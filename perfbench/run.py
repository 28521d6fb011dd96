"""seqshape benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout (no install step; ``src/`` is put on the
path and numpy is the only dependency)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads (seeded; inputs are made in this process, at most two processes
do the work):

``table1``
    ``sweep_table1`` over the paper's grid (ns 30/40/50/60, n=400,
    pmax=0.5, adaptive-rank, k=1) at workers=1 and then workers=2 on the same
    seed.  The rank codec's per-symbol loop dominates.  Check: every trial
    round-trips and the two worker counts give bitwise-identical records.
``exact-cold``
    Two fresh child processes, ns=4 n=9 and ns=2 n=19 (k=1, target space
    2^20), each paying the first exact-sorted order build and then making
    3000 warm transform+inverse round trips.  The rank codec is never called.
    Check: every round trip returns its input.
``small-space``
    ``oracle_report(3, 11, 1)``, ``validate_strategy`` for both strategies
    at ns=3 n=8, then adaptive-rank ``inverse_transform`` on all 3^9 targets
    in a seeded order.  Short calls and the rejection path dominate.  Check:
    frozen oracle values, both validations ok, exactly 3^9-3^8 rejections,
    and every accepted target round-trips to a distinct preimage.

End-to-end metrics (``--trace 0``), reported on every workload.  A run
repeats its pass for ``--seconds``.  Timings are medians over the run's
samples in reference seconds, scaled by a calibration kernel timed next to
them (see ``calibration.py`` for why); raw seconds are printed beside them:

* ``setup_s`` - import plus input generation, median of seven fresh
  interpreters, before timing starts.
* ``job_s`` - wall time of one pass of the workload's job: both sweeps
  (table1); both cold child processes, start to exit (exact-cold); oracle,
  both validations and the membership sweep (small-space).
* ``first_s`` - the pass's first heavy call: the ns=30 row at workers=1
  (table1); the first exact-sorted call summed over both shapes, i.e.
  ``first_call_s`` (exact-cold); ``oracle_report``, i.e. ``oracle_s``
  (small-space).
* ``ops_per_s`` - headline rate: ``trials_per_s`` at workers=1 (table1);
  warm exact-sorted round trips per second, in chunks of 500 per shape
  (exact-cold); ``membership_per_s``, in chunks of 3^7 calls (small-space).
* ``peak_rss_mb`` - largest ``ru_maxrss`` of the processes doing the work.

The remaining named figures (``trials_per_s_pool``, ``exact_call_p50_us``,
``exact_call_p99_us``, ``validate_per_s``, ``failed_share``) and table1's
per-row ``pcs``/``mdife`` are printed as ``named``/``result`` lines.
``failed_share`` is ``failed / attempted`` of the result line; it is 0 on a
correct tree, so it is not a metric a bound could be a share of.

``--trace 1`` alternates untraced passes with passes whose calls into
``sources``, ``entropy``, ``rankcodec``, ``shaping``, ``harness`` and
``oracle`` are wrapped in spans (see ``spans.py``), and reports the per-layer
metrics in ``PER_LAYER``: mean call times, row times, self time per layer,
and the tracing overhead against the untraced passes.  Layers a workload
never calls read 0.  Counts marked computed are counted, not timed:
``rankcodec.comparisons_per_symbol`` from a ``RankState`` passed into
``to_digits`` on the workload's inputs, and the sequences and type classes
enumerated from what the traced passes make the program enumerate.  They
must repeat exactly: between the traced passes of a run, and against an
earlier run of the same code and seed (kept in ``.bench_build/``); a run
where they do not is not correct.  ``setup_s`` is not measured under
``--trace 1``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``python3 perfbench/test_smoke.py`` runs every
workload at a tiny size.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "job_s": "s", "first_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
COMPUTED = {
    "rankcodec.comparisons_per_symbol": "cmp/symbol",
    "shaping.sequences_enumerated": "count",
    "shaping.type_classes": "count",
    "oracle.sequences_enumerated": "count",
}
PER_LAYER = {
    "rankcodec.to_digits_us": "us",
    "rankcodec.from_digits_us": "us",
    "rankcodec.calls": "count",
    "rankcodec.self_s": "s",
    "shaping.transform_us": "us",
    "shaping.inverse_us": "us",
    "shaping.reject_us": "us",
    "shaping.exact_call_us": "us",
    "shaping.order_build_s.ns4_n9": "s",
    "shaping.order_build_s.ns2_n19": "s",
    "shaping.self_s": "s",
    "sources.sample_us": "us",
    "sources.self_s": "s",
    "entropy.elp_us": "us",
    "entropy.self_s": "s",
    "harness.self_s": "s",
    "harness.row_s.ns30": "s",
    "harness.row_s.ns40": "s",
    "harness.row_s.ns50": "s",
    "harness.row_s.ns60": "s",
    "harness.pool_efficiency": "ratio",
    "oracle.report_s": "s",
    "oracle.validate_adaptive_s": "s",
    "oracle.validate_exact_s": "s",
    "oracle.self_s": "s",
    "trace.overhead_share": "ratio",
    **COMPUTED,
}
SETUP_PROBES = 7


def provenance(args, argv, version: str, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "seqshape": version,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "argv": argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


def setup_seconds(workload: str, seed: int) -> tuple[float | None, str]:
    """Median of the set-up probes in reference seconds, or None and why a probe failed."""
    from calibration import scale

    times = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                capture_output=True, text=True, timeout=60, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None, "set-up probe timed out"
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return None, f"set-up probe failed: {lines[-1] if lines else f'exit code {proc.returncode}'}"
        took, before, after = map(float, proc.stdout.split())
        times.append(took * scale(before, after))
    return statistics.median(times), ""


def counts_repeat(key: str, counts: dict) -> str | None:
    """Compare computed counts with an earlier run of the same code and seed."""
    if not counts:
        return None
    store = ROOT / ".bench_build" / "perfbench-counts.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    earlier = seen.get(key)
    if earlier is not None and earlier != counts:
        return f"computed counts changed between runs: {earlier} != {counts}"
    seen[key] = counts
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(store)
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["table1", "exact-cold", "small-space"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")

    if not (SRC / "seqshape" / "__init__.py").is_file():
        print(f"error: no seqshape sources under {SRC}; run from a seqshape checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import seqshape

    if Path(seqshape.__file__).resolve().parent != SRC / "seqshape":
        print(f"error: imported seqshape from {seqshape.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    # set-up is an end-to-end metric only, so the traced run skips its probes
    setup_s, setup_error = setup_seconds(args.workload, args.seed) if not args.trace else (None, "")
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        outcome.attempted += 1
        if setup_s is None:
            outcome.fail(1, setup_error)

    print("provenance " + json.dumps(provenance(args, argv, seqshape.__version__, numpy.__version__)))
    for line in outcome.notes:
        print(line)
    correct = outcome.failed == 0 and bool(outcome.metrics)
    if args.trace:
        counts = dict(outcome.counts)
        changed = counts_repeat(f"{workloads.code_digest()}:{args.workload}:{args.seed}", counts)
        if changed:
            outcome.errors.append(changed)
            correct = False
        values = {name: outcome.metrics.get(name, (counts.get(name, 0), unit)) for name, unit in PER_LAYER.items()}
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, (value, _) in values.items()}
    else:
        values = {**outcome.metrics}
        if setup_s is not None:
            values["setup_s"] = (setup_s, "s")
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items() if name in values}
        correct = correct and len(metrics) == len(END_TO_END)
    for name, metric in metrics.items():
        tag = " (computed count)" if name in COMPUTED else ""
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}{tag}")
    share = outcome.failed / max(outcome.attempted, 1)
    print(f"named failed_share = {share:.6g} ({outcome.failed} of {outcome.attempted} operations failed)")
    for error in outcome.errors:
        print(f"error {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
