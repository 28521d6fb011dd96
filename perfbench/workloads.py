"""The three benchmark workloads: table1, exact-cold and small-space.

Each workload is a function ``(seed, seconds, trace, size) -> Outcome``.  It
repeats one *pass* of its job until ``seconds`` of wall time would be
exceeded (at least one pass), checks every output of every pass, and reports
medians over its samples in reference seconds (see ``calibration.py``).  With
``trace`` set it alternates an untraced pass with a traced one and reports
per-layer numbers, in raw seconds, from the traced passes instead.

Sizes live in the ``*Size`` dataclasses; the defaults are the benchmark's
sizes and the smoke test passes tiny ones.  The alphabet of small-space and
the shaping order are fixed (``SMALL_NS``, ``K``): the frozen oracle values
and the per-shape metric names assume them.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seqshape import harness, oracle, shaping
from seqshape import (
    ADAPTIVE_RANK,
    EXACT_SORTED,
    TABLE1_GRID,
    NotInImageError,
    RankState,
    Sequence,
    ShaperConfig,
    SourceSpec,
    format_table1_comparison,
    sample,
    sweep_table1,
    to_digits,
)

from calibration import Clock, scale
from spans import Span, Tracer, mean_us, nesting_errors, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("sources", "entropy", "rankcodec", "shaping", "harness", "oracle")

K = 1  # shaping order of every workload
SMALL_NS = 3  # alphabet of small-space
MEMBERSHIP_CHUNK = 3**7  # inverse calls timed together; 9 chunks of 3^9

# taken before any tracer patches the module attribute: the benchmark's own
# correctness check calls it, so the check never shows as spans
_transform = shaping.transform


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int | float] = field(default_factory=dict)

    def calibrated(self, name: str, samples) -> float:
        """Median of ``(seconds, scale)`` samples in reference seconds; raw figures go to the notes."""
        samples = list(samples)
        raw = [t for t, _ in samples]
        value = _median(t * scale for t, scale in samples)
        self.notes.append(
            f"samples {name}: median {value:.6g} reference s; raw median {_median(raw):.6g} s, "
            f"fastest {min(raw):.6g} s; {len(samples)} samples"
        )
        return value

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(why)


def _passes(seconds: float, one_pass, least: int = 1, clock: Clock | None = None) -> list[tuple[object, float]]:
    """Run ``one_pass()`` at least ``least`` times, and while another pass fits in ``seconds``.

    Returns ``(result, scale)`` per pass, where ``scale`` turns the pass's
    seconds into reference seconds, from the calibrations before and after it.
    A pass that times its own regions laps the same ``clock``.
    """
    start = time.perf_counter()
    results = []
    clock = clock or Clock()
    while True:
        t = time.perf_counter()
        result = one_pass()
        took = time.perf_counter() - t
        results.append((result, clock.lap()))
        if len(results) >= least and time.perf_counter() - start + took > seconds:
            return results


def _joined(regions) -> tuple[float, float]:
    """One ``(seconds, scale)`` sample for back-to-back regions, each with its own scale."""
    regions = list(regions)
    seconds = sum(t for t, _ in regions)
    return seconds, sum(t * k for t, k in regions) / seconds


def _median(values) -> float:
    return float(statistics.median(values))


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Self time of every layer per traced pass."""
    own = self_seconds(spans)
    return {f"{layer}.self_s": (own.get(layer, 0.0) / passes, "s") for layer in LAYERS}


def _merge(out: Outcome, runs: list[list[Span]]) -> list[Span]:
    """Check the nesting of each traced pass and join them into one span list."""
    spans: list[Span] = []
    for run in runs:
        _check_nesting(out, run)
        offset = len(spans)
        spans += [
            Span(s.name, s.layer, s.start, s.end, s.parent + offset if s.parent >= 0 else -1, s.request, s.error)
            for s in run
        ]
    return spans


def _phases(spans: list[Span]) -> list[str]:
    """Name of the nearest enclosing benchmark span of every span."""
    phase = []
    for s in spans:
        phase.append(s.name if s.layer == "bench" else (phase[s.parent] if s.parent >= 0 else ""))
    return phase


def comparisons_per_symbol(seqs) -> float:
    """Computed count: ``RankState.comparisons`` of ``to_digits`` per encoded symbol."""
    comparisons = symbols = 0
    for seq in seqs:
        state = RankState(seq.ns)
        to_digits(seq, state)
        comparisons += state.comparisons
        symbols += len(seq)
    return comparisons / symbols


def count_enumeration(tracer: Tracer) -> None:
    """Count the sequences and type classes the program enumerates, as it runs.

    ``shaping._info_by_lex_index`` returns one value per sequence of a space,
    ``info_from_sorted_counts`` is called once per type class of a space it
    builds, and ``oracle._enumerate_lex`` yields one tuple per sequence.
    """
    tracer.count(shaping, "_info_by_lex_index", "shaping.sequences_enumerated", size=len)
    tracer.count(shaping, "info_from_sorted_counts", "shaping.type_classes")
    tracer.count(oracle, "_enumerate_lex", "oracle.sequences_enumerated", yields=True)


def _forget_orders() -> None:
    """Drop shaping's cached exact-sorted orders, so a pass builds them as a fresh process does."""
    clear = getattr(getattr(shaping, "_space_order", None), "cache_clear", None)
    if clear is not None:
        clear()


def _same_counts(out: Outcome, per_run: list[dict]) -> dict:
    """The counts of the first traced run; every other traced run must repeat them exactly."""
    differing = [counts for counts in per_run[1:] if counts != per_run[0]]
    if differing:
        out.fail(len(differing), f"computed counts differ between traced passes: {per_run[0]} != {differing[0]}")
    return dict(per_run[0]) if per_run else {}


# ---------------------------------------------------------------- table1


@dataclass(frozen=True)
class Table1Size:
    trials: int = 100  # per grid row; one trial is about 2 ms at workers=1


def _record_key(r) -> tuple:
    return (r.trial, r.infc.hex(), r.tinfc.hex(), r.dife.hex(), r.success, r.roundtrip_ok)


def _without_records(swept):
    """A sweep's result without its trial records, so what a run keeps does not grow its peak RSS."""
    if swept is None:
        return None
    wall, rows, factor = swept
    return wall, [(summary, row_wall) for summary, _, row_wall in rows], factor


def table1(seed: int, seconds: float, trace: bool, size: Table1Size = Table1Size()) -> Outcome:
    """``sweep_table1`` over the paper's grid at workers=1, then workers=2, same seed."""
    out = Outcome()
    cfg = ShaperConfig(ns=TABLE1_GRID[0], strategy=ADAPTIVE_RANK, k=K)
    per_sweep = len(TABLE1_GRID) * size.trials
    rows: list[tuple] = []
    run_experiment = harness.run_experiment
    # each sweep is scaled by the calibrations right before and after it
    clock = Clock()

    def capturing(spec, row_cfg, trials, row_seed, workers=1):
        # keeps each row's records for the workers=1 vs workers=2 comparison
        t = time.perf_counter()
        summary, records = run_experiment(spec, row_cfg, trials, row_seed, workers=workers)
        rows.append((summary, records, time.perf_counter() - t))
        return summary, records

    def sweep(workers: int, tracer: Tracer | None = None):
        rows.clear()
        out.attempted += per_sweep
        t = time.perf_counter()
        try:
            if tracer is None:
                sweep_table1(cfg, trials=size.trials, seed=seed, workers=workers)
            else:
                with tracer.span("sweep", "bench"):
                    harness.sweep_table1(cfg, trials=size.trials, seed=seed, workers=workers)
        except Exception as exc:  # a failed sweep is counted, not fatal
            out.fail(per_sweep, f"sweep workers={workers}: {exc!r}")
            return None
        wall = time.perf_counter() - t
        bad = sum(not r.roundtrip_ok for _, records, _ in rows for r in records)
        bad += sum(
            [r.trial for r in records] != list(range(size.trials)) for _, records, _ in rows
        ) * size.trials
        if bad:
            out.fail(bad, f"workers={workers}: {bad} trials without a verified round trip")
        return wall, list(rows), clock.lap()

    def untraced_pass():
        w1 = sweep(1)
        w2 = sweep(2)
        if w1 and w2:
            mismatched = sum(
                _record_key(a) != _record_key(b)
                for (_, ra, _), (_, rb, _) in zip(w1[1], w2[1])
                for a, b in zip(ra, rb)
            )
            if mismatched or [s for s, _, _ in w1[1]] != [s for s, _, _ in w2[1]]:
                out.fail(max(mismatched, 1), f"workers=1 and workers=2 differ in {mismatched} records")
        return _without_records(w1), _without_records(w2)

    harness.run_experiment = capturing
    try:
        if not trace:
            done = [(p, k) for p, k in _passes(seconds, untraced_pass, clock=clock) if p[0] and p[1]]
            traced = []
        else:
            tracer = Tracer()
            traced = []

            def paired_pass():
                plain = untraced_pass()
                tracer.reset()
                tracer.patch(harness, "sweep_table1", "harness")
                tracer.patch(harness, "run_experiment", "harness")
                tracer.patch(harness, "sample", "sources", request=lambda args: args[2])
                tracer.patch(harness, "entropy_length_product", "entropy")
                tracer.patch(harness, "transform", "shaping")
                tracer.patch(harness, "inverse_transform", "shaping")
                tracer.patch(shaping, "to_digits", "rankcodec")
                tracer.patch(shaping, "from_digits", "rankcodec")
                try:
                    w1 = sweep(1, tracer)
                finally:
                    tracer.restore()
                if w1:
                    traced.append((w1[0], list(tracer.spans)))
                return plain

            done = [(p, k) for p, k in _passes(seconds, paired_pass, clock=clock) if p[0] and p[1]]
    finally:
        harness.run_experiment = run_experiment

    if not done:
        return out
    sweeps1 = [(wall, k) for ((wall, _, k), _), _ in done]
    sweeps2 = [(wall, k) for (_, (wall, _, k)), _ in done]
    first_rows = done[0][0][0][1]
    rate1 = per_sweep / out.calibrated("sweep_workers1_s", sweeps1)
    rate2 = per_sweep / out.calibrated("sweep_workers2_s", sweeps2)
    out.notes += [
        f"named trials_per_s = {rate1:.6g} 1/s (workers=1, median of {len(done)} sweeps)",
        f"named trials_per_s_pool = {rate2:.6g} 1/s (workers=2, pool start-up included)",
        f"result table1 over {size.trials} trials per row, seed {seed} (reported, not a metric):",
        *("result   " + line for line in format_table1_comparison([s for s, _ in first_rows]).splitlines()),
    ]
    peak = max(_rss_mb(), _rss_mb(resource.RUSAGE_CHILDREN))
    out.metrics = {
        "job_s": (out.calibrated("job_s", (_joined(pair) for pair in zip(sweeps1, sweeps2))), "s"),
        "first_s": (out.calibrated("first_s", ((row_list[0][1], k) for ((_, row_list, k), _), _ in done)), "s"),
        "ops_per_s": (rate1, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    if trace:
        out.metrics = _table1_layers(out, done, traced, rate1, rate2, seed, size)
    return out


def _table1_layers(out, done, traced, rate1, rate2, seed, size) -> dict:
    if not traced:
        return {}
    spans = _merge(out, [run for _, run in traced])
    overhead = _median(wall for wall, _ in traced) / _median(wall for ((wall, _, _), _), _ in done) - 1
    row_times: dict[int, list[float]] = {ns: [] for ns in TABLE1_GRID}
    for _, run in traced:
        experiments = [s for s in run if s.name == "run_experiment"]
        for ns, s in zip(TABLE1_GRID, experiments):
            row_times[ns].append(s.seconds)
    grid_inputs = (
        sample(SourceSpec(ns=ns, n=harness.TABLE1_N, pmax=harness.TABLE1_PMAX), seed, t)
        for ns in TABLE1_GRID
        for t in range(size.trials)
    )
    out.counts["rankcodec.comparisons_per_symbol"] = comparisons_per_symbol(grid_inputs)
    out.notes.append(
        f"named harness.pool_efficiency base: trials_per_s_pool {rate2:.6g} / (2 x trials_per_s {rate1:.6g})"
    )
    metrics = _layer_metrics(spans, len(traced))
    metrics.update(
        {
            "rankcodec.to_digits_us": (mean_us(spans, "to_digits"), "us"),
            "rankcodec.from_digits_us": (mean_us(spans, "from_digits"), "us"),
            "rankcodec.calls": (sum(s.name in ("to_digits", "from_digits") for s in traced[0][1]), "count"),
            "shaping.transform_us": (mean_us(spans, "transform"), "us"),
            "shaping.inverse_us": (mean_us(spans, "inverse_transform"), "us"),
            "sources.sample_us": (mean_us(spans, "sample"), "us"),
            "entropy.elp_us": (mean_us(spans, "entropy_length_product"), "us"),
            "harness.pool_efficiency": (rate2 / (2 * rate1), "ratio"),
            "trace.overhead_share": (overhead, "ratio"),
            **{f"harness.row_s.ns{ns}": (_median(v), "s") for ns, v in row_times.items() if v},
        }
    )
    return metrics


def _check_nesting(out: Outcome, spans: list[Span]) -> None:
    errors = nesting_errors(spans)
    if errors:
        out.fail(len(errors), f"trace nesting: {errors[0]}")


# ---------------------------------------------------------------- exact-cold


@dataclass(frozen=True)
class ExactSize:
    # opposite type-class structure, both with a target space of 2^20
    shapes: tuple[tuple[int, int], ...] = ((4, 9), (2, 19))
    max_space: int = 1 << 20
    warm: int = 3000  # warm round trips per child


def exact_inputs(seed: int, size: ExactSize) -> list[dict]:
    """One child job per shape: seeded source sequences for the warm round trips."""
    rng = np.random.default_rng(seed)
    return [
        {"ns": ns, "n": n, "k": K, "max_space": size.max_space,
         "inputs": rng.integers(0, ns, size=(size.warm, n)).tolist()}
        for ns, n in size.shapes
    ]


def _run_child(job: dict, trace: bool) -> tuple[float, dict | None, str]:
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "exact_child.py")],
            input=json.dumps({**job, "trace": trace}),
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, None, "timed out"
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return wall, None, lines[-1] if lines else f"exit code {proc.returncode}"
    return wall, json.loads(proc.stdout), ""


def exact_cold(seed: int, seconds: float, trace: bool, size: ExactSize = ExactSize()) -> Outcome:
    """Fresh child processes, each paying the first ``exact-sorted`` order build.

    A pass is one child; passes take the shapes in turn.  With ``trace`` a
    pass is an untraced child and a traced child of the same shape.
    """
    out = Outcome()
    jobs = exact_inputs(seed, size)
    turn = itertools.count()

    def child(job: dict, traced: bool):
        out.attempted += 1 + len(job["inputs"])
        wall, result, err = _run_child(job, traced)
        if result is None:
            out.fail(1 + len(job["inputs"]), f"child ns={job['ns']} n={job['n']} failed: {err}")
            return None
        if result["failed"]:
            out.fail(result["failed"], f"child ns={job['ns']} n={job['n']}: {result['errors']}")
        # the child calibrates right before and after its cold call, and after its warm loop
        before, after, done = result["calibration_s"]
        return {**result, "wall_s": wall, "shape": (job["ns"], job["n"]),
                "scale": scale(before, after), "warm_scale": scale(after, done)}

    def one_pass():
        job = jobs[next(turn) % len(jobs)]
        return child(job, False), (child(job, True) if trace else None)

    runs = [(plain, traced, plain["scale"]) for (plain, traced), _ in _passes(seconds, one_pass, len(jobs)) if plain]
    done = {shape: [(r, k) for r, _, k in runs if r["shape"] == shape] for shape in size.shapes}
    if not all(done.values()):
        out.fail(1, "no child ran for every shape")
        return out

    chunk = min(500, size.warm)
    names = {shape: f"ns{shape[0]}_n{shape[1]}" for shape in size.shapes}
    first = job = warm = 0.0
    for shape, results in done.items():
        first += out.calibrated(f"first_call_s.{names[shape]}", ((r["first_call_s"], k) for r, k in results))
        job += out.calibrated(f"child_s.{names[shape]}", ((r["wall_s"], k) for r, k in results))
        # one sample per `chunk` consecutive warm round trips
        warm += out.calibrated(
            f"warm_chunk_s.{names[shape]}",
            (
                (sum(r["latencies_ns"][i : i + chunk]) / 1e9, r["warm_scale"])
                for r, _ in results
                for i in range(0, len(r["latencies_ns"]) - chunk + 1, chunk)
            ),
        )
    pooled = sorted(t for r, _, _ in runs for t in r["latencies_ns"])
    out.notes += [
        f"named first_call_s = {first:.6g} reference s (sum over shapes {', '.join(names.values())})",
        f"named exact_call_p50_us = {statistics.median(pooled) / 1e3:.6g} us, "
        f"exact_call_p99_us = {pooled[int(0.99 * (len(pooled) - 1))] / 1e3:.6g} us "
        f"(raw, {len(pooled)} warm round trips over {len(runs)} children)",
        *(
            f"named peak_rss_mb.{names[shape]} = {max(r['peak_rss_mb'] for r, _ in results):.6g} MB"
            for shape, results in done.items()
        ),
    ]
    out.metrics = {
        "job_s": (job, "s"),
        "first_s": (first, "s"),
        "ops_per_s": (len(size.shapes) * chunk / warm, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r, _, _ in runs), "MB"),
    }
    if trace:
        out.metrics = _exact_layers(out, runs, jobs, size)
    return out


def _exact_layers(out, runs, jobs, size) -> dict:
    builds, traced, counts = {}, [], {}
    for _, result, _ in runs:
        if result is None:
            continue
        ns, n = result["shape"]
        run = [Span(*s) for s in result["spans"]]
        traced.append(run)
        counts.setdefault((ns, n), []).append(result["counts"])
        phase = _phases(run)
        warm_fwd = [s.seconds for s, p in zip(run, phase) if p == "warm" and s.name == "transform_exact_sorted"]
        first = next(s for s, p in zip(run, phase) if p == "first" and s.layer == "shaping")
        builds.setdefault(f"shaping.order_build_s.ns{ns}_n{n}", []).append(
            first.seconds - statistics.median(warm_fwd)
        )
    spans = _merge(out, traced)
    # one cold child of each shape; every child of a shape must count the same
    for per_shape in counts.values():
        for name, value in _same_counts(out, per_shape).items():
            out.counts[name] = out.counts.get(name, 0) + value
    out.counts["rankcodec.comparisons_per_symbol"] = comparisons_per_symbol(
        Sequence(np.asarray(s, dtype=np.int64), job["ns"]) for job in jobs for s in job["inputs"]
    )
    # traced against untraced warm loop of the same shape, child by child
    overhead = _median(
        sum(traced["latencies_ns"]) / sum(plain["latencies_ns"]) - 1 for plain, traced, _ in runs if traced
    )
    warm = [s for s, p in zip(spans, _phases(spans)) if p == "warm"]
    metrics = _layer_metrics(spans, len(traced))
    metrics.update(
        {
            "shaping.transform_us": (mean_us(warm, "transform_exact_sorted"), "us"),
            "shaping.inverse_us": (mean_us(warm, "inverse_exact_sorted"), "us"),
            "shaping.exact_call_us": (mean_us(warm, "transform_exact_sorted", "inverse_exact_sorted"), "us"),
            **{name: (_median(v), "s") for name, v in builds.items()},
            "trace.overhead_share": (overhead, "ratio"),
        }
    )
    return metrics


# ---------------------------------------------------------------- small-space


@dataclass(frozen=True)
class SmallSize:
    oracle_n: int = 11
    validate_n: int = 8


# oracle_report values at these sizes as the seed code computes them, as
# float.hex of (avg_source_info, avg_shaped_info, optimal_gain, success_fraction)
FROZEN_ORACLE = {
    (3, 11, 1): ("0x1.fbb95f1994866p+3", "0x1.f8bd21b884590p+3", "0x1.7e1eb08816b00p-4", "0x1.f163c76141715p-2"),
    (3, 4, 1): ("0x1.2117ae51edf64p+2", "0x1.0daecf403c382p+2", "0x1.368df11b1be20p-2", "0x1.097b425ed097bp-1"),
}


def small_inputs(seed: int, size: SmallSize) -> list[Sequence]:
    """Every target sequence of length validate_n + k, in a seeded order."""
    length = size.validate_n + K
    lex = np.random.default_rng(seed).permutation(SMALL_NS**length)
    places = SMALL_NS ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return [Sequence(row, SMALL_NS) for row in (lex[:, None] // places) % SMALL_NS]


def small_space(seed: int, seconds: float, trace: bool, size: SmallSize = SmallSize()) -> Outcome:
    """``oracle_report``, ``validate_strategy`` for both strategies, then a membership sweep.

    Every pass starts without shaping's cached exact-sorted orders, so each
    pass does the same work, and the traced passes count the enumeration.
    """
    out = Outcome()
    targets = small_inputs(seed, size)
    ns, k = SMALL_NS, K
    adaptive = ShaperConfig(ns=ns, strategy=ADAPTIVE_RANK, k=k)
    exact = ShaperConfig(ns=ns, strategy=EXACT_SORTED, k=k)
    sources = ns**size.validate_n
    rejects_expected = len(targets) - sources
    frozen = FROZEN_ORACLE.get((ns, size.oracle_n, k))
    chunk = min(MEMBERSHIP_CHUNK, len(targets))
    # every region of a pass (oracle, each validation, each membership chunk)
    # is scaled by the calibrations right before and after it
    clock = Clock()

    def one_pass(tracer: Tracer | None):
        def phase(name):
            return tracer.span(name, "bench") if tracer else nullcontext()

        times = {}
        out.attempted += 1
        _forget_orders()
        t = time.perf_counter()
        with phase("oracle"):
            report = oracle.oracle_report(ns, size.oracle_n, k)
        times["oracle"] = (time.perf_counter() - t, clock.lap())
        values = (report.avg_source_info, report.avg_shaped_info, report.optimal_gain, report.success_fraction)
        if frozen is not None and tuple(v.hex() for v in values) != frozen:
            out.fail(1, f"oracle_report{(ns, size.oracle_n, k)} differs from its frozen values")
        for name, cfg in (("validate_adaptive", adaptive), ("validate_exact", exact)):
            out.attempted += sources
            t = time.perf_counter()
            with phase(name):
                report = oracle.validate_strategy(cfg, ns, size.validate_n)
            times[name] = (time.perf_counter() - t, clock.lap())
            if not report.ok:
                out.fail(sources, f"{name}: {report.counterexample}")

        out.attempted += len(targets)
        accepted, rejects, errors, chunks = [], 0, [], []
        inverse = shaping.inverse_transform
        with phase("membership"):
            for start in range(0, len(targets), chunk):
                t = time.perf_counter()
                for i in range(start, min(start + chunk, len(targets))):
                    y = targets[i]
                    if tracer:
                        tracer.request = i
                    try:
                        accepted.append((y, inverse(y, adaptive)))
                    except NotInImageError:
                        rejects += 1
                    except Exception as exc:  # counted; the sweep goes on
                        errors.append(repr(exc))
                chunks.append((time.perf_counter() - t, clock.lap()))
        times["membership"] = _joined(chunks)
        if errors:
            out.fail(len(errors), f"membership: {errors[0]}")
        if rejects != rejects_expected:
            out.fail(abs(rejects - rejects_expected), f"membership: {rejects} rejections, expected {rejects_expected}")
        wrong = sum(_transform(x, adaptive) != y for y, x in accepted)
        wrong += len(accepted) - len({tuple(x.symbols.tolist()) for _, x in accepted})
        if wrong:
            out.fail(wrong, f"membership: {wrong} accepted sequences do not round-trip to distinct preimages")
        return times, chunks

    if trace:
        tracer = Tracer()
        traced = []

        def paired_pass():
            plain = one_pass(None)
            tracer.reset()
            counter = itertools.count()
            tracer.patch(oracle, "oracle_report", "oracle")
            tracer.patch(oracle, "validate_strategy", "oracle")
            tracer.patch(oracle, "transform", "shaping", request=lambda args: next(counter))
            tracer.patch(oracle, "inverse_transform", "shaping")
            tracer.patch(shaping, "inverse_transform", "shaping")
            tracer.patch(shaping, "to_digits", "rankcodec")
            tracer.patch(shaping, "from_digits", "rankcodec")
            count_enumeration(tracer)
            try:
                times, _ = one_pass(tracer)
            finally:
                tracer.restore()
            traced.append((times, list(tracer.spans), dict(tracer.counts)))
            return plain

        done = _passes(seconds, paired_pass, clock=clock)
    else:
        done = _passes(seconds, lambda: one_pass(None), clock=clock)

    oracle_s = out.calibrated("oracle_s", (t["oracle"] for (t, _), _ in done))
    validate = 2 * sources / out.calibrated(
        "validate_s", (_joined([t["validate_adaptive"], t["validate_exact"]]) for (t, _), _ in done)
    )
    membership = chunk / out.calibrated(
        "membership_chunk_s", (c for (_, chunks), _ in done for c in chunks[: len(targets) // chunk])
    )
    out.notes += [
        f"named oracle_s = {oracle_s:.6g} reference s (oracle_report{(ns, size.oracle_n, k)})",
        f"named validate_per_s = {validate:.6g} 1/s (both strategies over {ns}^{size.validate_n} sequences)",
        f"named membership_per_s = {membership:.6g} 1/s ({len(targets)} inverse calls, "
        f"{rejects_expected} expected NotInImageError rejections)",
    ]
    out.metrics = {
        "job_s": (out.calibrated("job_s", (_joined(t.values()) for (t, _), _ in done)), "s"),
        "first_s": (oracle_s, "s"),
        "ops_per_s": (membership, "1/s"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }
    if trace:
        out.metrics = _small_layers(out, done, traced, targets)
    return out


def _small_layers(out, done, traced, targets) -> dict:
    spans = _merge(out, [run for _, run, _ in traced])
    phase = _phases(spans)
    # adaptive-rank calls only, so the exact-sorted validation does not dilute them
    adaptive = [s for s, p in zip(spans, phase) if p in ("validate_adaptive", "membership")]
    exact_calls = [s for s, p in zip(spans, phase) if p == "validate_exact"]

    def phase_s(name):
        return _median(s.seconds for s in spans if s.layer == "bench" and s.name == name)

    untraced = _median(sum(s for s, _ in t.values()) for (t, _), _ in done)
    traced_wall = _median(sum(s for s, _ in t.values()) for t, _, _ in traced)
    out.counts.update(_same_counts(out, [counts for _, _, counts in traced]))
    out.counts["rankcodec.comparisons_per_symbol"] = comparisons_per_symbol(targets)
    metrics = _layer_metrics(spans, len(traced))
    metrics.update(
        {
            "rankcodec.to_digits_us": (mean_us(spans, "to_digits"), "us"),
            "rankcodec.from_digits_us": (mean_us(spans, "from_digits"), "us"),
            "rankcodec.calls": (sum(s.name in ("to_digits", "from_digits") for s in traced[0][1]), "count"),
            "shaping.transform_us": (mean_us(adaptive, "transform"), "us"),
            "shaping.inverse_us": (mean_us(adaptive, "inverse_transform"), "us"),
            "shaping.reject_us": (mean_us(adaptive, "inverse_transform", error="NotInImageError"), "us"),
            "shaping.exact_call_us": (mean_us(exact_calls, "transform", "inverse_transform"), "us"),
            "oracle.report_s": (phase_s("oracle"), "s"),
            "oracle.validate_adaptive_s": (phase_s("validate_adaptive"), "s"),
            "oracle.validate_exact_s": (phase_s("validate_exact"), "s"),
            "trace.overhead_share": (traced_wall / untraced - 1, "ratio"),
        }
    )
    return metrics


WORKLOADS = {"table1": table1, "exact-cold": exact_cold, "small-space": small_space}

# one input generator per workload; setup_s times import plus this call
INPUTS = {
    "table1": lambda seed: [SourceSpec(ns=ns, n=harness.TABLE1_N, pmax=harness.TABLE1_PMAX) for ns in TABLE1_GRID],
    "exact-cold": lambda seed: exact_inputs(seed, ExactSize()),
    "small-space": lambda seed: small_inputs(seed, SmallSize()),
}


def code_digest() -> str:
    """sha256 over the package sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "seqshape").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


