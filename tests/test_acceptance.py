"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the rendered benchmark comparison.
"""
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from seqshape import (
    EXACT_SORTED,
    NotInImageError,
    RankState,
    Sequence,
    ShaperConfig,
    SourceSpec,
    entropy_length_product,
    entropy_length_product_from_counts,
    format_table1_comparison,
    histogram,
    inverse_adaptive,
    inverse_exact_sorted,
    inverse_transform,
    is_in_image,
    oracle_report,
    run_experiment,
    sample,
    sweep_table1,
    to_digits,
    transform,
    transform_adaptive,
    transform_exact_sorted,
)

from conftest import seq
from reference_impl import ref_sorted_space


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_roundtrip_bijectivity():
    started = time.perf_counter()
    failures = 0
    trials_done = 0

    # randomized sweep: 278 trials in each of the 36 (ns, n, k) cells
    master = 20250808
    pmax_choices = (0.3, 0.5, 0.9)
    for ns in (2, 3, 30, 40, 50, 60):
        for n in (1, 10, 400):
            for k in (1, 2):
                for t in range(278):
                    pmax = pmax_choices[t % 3] if t % 4 else 1.0 / ns
                    spec = SourceSpec(ns=ns, n=n, pmax=pmax)
                    s = sample(spec, master, trials_done)
                    trials_done += 1
                    if inverse_adaptive(transform_adaptive(s, k), k) != s:
                        failures += 1

    # exhaustive sweep over every small sequence, both strategies
    exhaustive_done = 0
    for ns in (2, 3):
        for n in range(1, 8):
            for k in (1, 2):
                for s_tuple in itertools.product(range(ns), repeat=n):
                    s = seq(s_tuple, ns)
                    if inverse_adaptive(transform_adaptive(s, k), k) != s:
                        failures += 1
                    if inverse_exact_sorted(transform_exact_sorted(s, k), k) != s:
                        failures += 1
                    exhaustive_done += 1

    elapsed = time.perf_counter() - started
    _report(
        1,
        "round-trip bijectivity",
        failures == 0 and trials_done >= 10_000 and elapsed < 60.0,
        f"{trials_done} randomized + {exhaustive_done} exhaustive inputs, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_entropy_length_product_correctness():
    worked_ok = (
        entropy_length_product(seq([0, 0, 0, 0], 3)) == 0.0
        and entropy_length_product(seq([0, 1], 2)) == 2.0
        and round(entropy_length_product(seq([0, 0, 1], 2)), 6) == 2.754888
        and abs(entropy_length_product(seq([0, 0, 1], 2)) - (3 * math.log2(3) - 2)) < 1e-12
    )

    rng = np.random.default_rng(160_493)
    worst_rel = 0.0
    for _ in range(10_000):
        ns = int(rng.integers(2, 65))
        length = int(np.exp(rng.uniform(0.0, math.log(10_000))))
        s = Sequence(symbols=rng.integers(0, ns, size=max(1, length)), ns=ns)
        positional = entropy_length_product(s)
        closed = entropy_length_product_from_counts(histogram(s))
        if positional != closed:
            worst_rel = max(worst_rel, abs(positional - closed) / max(abs(closed), 1e-300))
    _report(
        2,
        "entropy-length product two-form agreement",
        worked_ok and worst_rel < 1e-9,
        f"worked values exact, worst relative gap {worst_rel:.2e} over 10^4 sequences",
    )


def test_criterion_3_oracle_ground_truth():
    started = time.perf_counter()
    report = oracle_report(3, 2, 1)
    elapsed = time.perf_counter() - started
    # values frozen from an independent brute force over all 9 and 27 sequences
    ok = (
        abs(report.avg_source_info - 4.0 / 3.0) < 1e-6
        and abs(report.avg_shaped_info - 1.836591668108979) < 1e-6
        and abs(report.optimal_gain - (-0.5032583347756456)) < 1e-6
        and elapsed < 1.0
    )
    _report(
        3,
        "oracle ground truth at (ns=3, n=2, k=1)",
        ok,
        f"avg_source={report.avg_source_info:.9f} avg_shaped={report.avg_shaped_info:.9f} "
        f"{elapsed*1000:.0f}ms",
    )


def test_criterion_4_strategy_matches_enumeration_oracle():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for ns, max_n in ((3, 7), (4, 5)):
        for n in range(1, max_n + 1):
            src, _ = ref_sorted_space(ns, n)
            tgt, _ = ref_sorted_space(ns, n + 1)
            for r, s_tuple in enumerate(src):
                shaped = transform_exact_sorted(seq(s_tuple, ns), 1)
                checked += 1
                if tuple(shaped.symbols.tolist()) != tgt[r]:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    _report(
        4,
        "exact-sorted strategy equals independent rank map",
        mismatches == 0 and elapsed < 60.0,
        f"{checked} sequences checked, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_self_verification():
    ns, n, k = 3, 7, 1
    image = {
        tuple(transform_adaptive(seq(s, ns), k).symbols.tolist())
        for s in itertools.product(range(ns), repeat=n)
    }
    rng = np.random.default_rng(55_000)
    draws = rng.integers(0, ns, size=(100_000, n + k))
    in_image_count = 0
    agreement_failures = 0
    for row in draws:
        y = Sequence(symbols=row, ns=ns)
        member = tuple(row.tolist()) in image
        detected = is_in_image(y, k)
        if detected != member:
            agreement_failures += 1
        if member:
            in_image_count += 1
            recovered = inverse_adaptive(y, k)
            if transform_adaptive(recovered, k) != y:
                agreement_failures += 1
        else:
            try:
                inverse_adaptive(y, k)
                agreement_failures += 1
            except NotInImageError:
                pass
    fraction = in_image_count / 100_000
    sigma = math.sqrt((1 / 3) * (2 / 3) / 100_000)
    _report(
        5,
        "image membership self-verification",
        agreement_failures == 0 and abs(fraction - 1 / 3) < 5 * sigma,
        f"fraction {fraction:.5f} vs 1/3 (5-sigma band {5*sigma:.5f}), "
        f"{agreement_failures} disagreements over 10^5 draws",
    )


def test_criterion_6_harness_fidelity():
    spec = SourceSpec(ns=40, n=400, pmax=0.5)
    cfg = ShaperConfig(ns=40)
    master = 987_654_321

    started = time.perf_counter()
    summary_a, records_a = run_experiment(spec, cfg, 1000, master)
    single_run = time.perf_counter() - started
    summary_b, records_b = run_experiment(spec, cfg, 1000, master)
    summary_c, records_c = run_experiment(spec, cfg, 1000, master, workers=2)

    ok = (
        all(r.roundtrip_ok for r in records_a)
        and summary_a == summary_b == summary_c
        and records_a == records_b == records_c
        and summary_a.trials == 1000
        and summary_a.pcs == 100.0 * summary_a.cs2 / 1000
        and abs(summary_a.mdife - (summary_a.medinfc - summary_a.medtinfc)) < 1e-9
        and single_run < 30.0
    )
    _report(
        6,
        "harness determinism and worker invariance",
        ok,
        f"medinfc={summary_a.medinfc:.3f} medtinfc={summary_a.medtinfc:.3f} "
        f"pcs={summary_a.pcs:.1f} run={single_run:.1f}s",
    )


# sweep_table1(ShaperConfig(ns=30), trials=20, seed=0) as the scalar walk
# encoded it: per row ns, medinfc, medtinfc and mdife as float.hex, and cs2;
# any change to the codec or the harness that moves a bit of a record fails here
FROZEN_TABLE1_ROWS = [
    (30, "0x1.56044e2f14d0dp+10", "0x1.577aaba4d5aa3p+10", "-0x1.765d75c0d95f3p+2", 0),
    (40, "0x1.6961f4a7a8907p+10", "0x1.6af4c66f0e282p+10", "-0x1.92d1c765979a6p+2", 0),
    (50, "0x1.77952602e17bep+10", "0x1.793ef9b3f4d79p+10", "-0x1.a9d3b1135bc40p+2", 0),
    (60, "0x1.83e131ff4d872p+10", "0x1.859f877316d40p+10", "-0x1.be5573c94ce00p+2", 0),
]


def test_criterion_6_frozen_table1_records():
    rows = [
        (s.spec.ns, s.medinfc.hex(), s.medtinfc.hex(), s.mdife.hex(), s.cs2)
        for s in sweep_table1(ShaperConfig(ns=30), trials=20, seed=0)
    ]
    _report(
        6,
        "table1 summaries bit-identical to the frozen values",
        rows == FROZEN_TABLE1_ROWS,
        "; ".join(f"ns={row[0]} mdife={float.fromhex(row[3]):.6f}" for row in rows),
    )


def test_criterion_7_reference_grid_status():
    cfg = ShaperConfig(ns=2)
    sweep_a = sweep_table1(cfg, trials=1000, seed=101)
    sweep_b = sweep_table1(cfg, trials=1000, seed=202)

    print(format_table1_comparison(sweep_a))
    grid_ok = (
        [s.spec.ns for s in sweep_a] == [30, 40, 50, 60]
        and all(s.spec.n == 400 and s.spec.pmax == 0.5 and s.trials == 1000 for s in sweep_a)
    )
    rendered = format_table1_comparison(sweep_a)
    render_ok = "ref P_s" in rendered and "ref gain" in rendered
    drifts = [abs(a.pcs - b.pcs) for a, b in zip(sweep_a, sweep_b)]
    _report(
        7,
        "reference grid reported side-by-side, two-seed stability",
        grid_ok and render_ok and max(drifts) < 4.0,
        f"pcs drift per row {['%.2f' % d for d in drifts]} pp "
        f"(measured values are not asserted against the published columns)",
    )


# Times criterion 8's two sizes in a fresh interpreter and prints the fastest
# call of each, in seconds, as JSON.  The cyclic ramp keeps per-position work
# size-independent, so the timing ratio isolates how the transform itself
# scales with length.  The sizes alternate so a slow spell of a shared machine
# hits both, and the fastest call of each is the one least disturbed by other
# work.
_CRITERION_8_TIMING = """
import gc, json, time
import numpy as np
from seqshape import Sequence, transform_adaptive
small, large = (Sequence(symbols=np.arange(n, dtype=np.int64) % 30, ns=30) for n in (4_000, 40_000))
for _ in range(3):
    transform_adaptive(small)
times = ([], [])
gc.disable()
for _ in range(15):
    for s, spent in zip((small, large), times):
        t0 = time.perf_counter()
        transform_adaptive(s)
        spent.append(time.perf_counter() - t0)
print(json.dumps([min(spent) for spent in times]))
"""


def test_criterion_8_linear_time_scaling():
    ns = 30
    small = Sequence(symbols=np.arange(4_000, dtype=np.int64) % ns, ns=ns)
    large = Sequence(symbols=np.arange(40_000, dtype=np.int64) % ns, ns=ns)
    # timed in a fresh process: in this one the heap that earlier tests left
    # behind could decide the ratio, as a call after a larger one faults
    # freed buffers back in
    run = subprocess.run(
        [sys.executable, "-c", _CRITERION_8_TIMING], capture_output=True, text=True, timeout=300, check=True
    )
    t_small, t_large = json.loads(run.stdout)
    ratio = t_large / t_small

    # the same scaling counted, free of the machine's load: the codec's order
    # comparisons per encoded symbol
    per_symbol = []
    for s in (small, large):
        state = RankState(ns)
        to_digits(s, state)
        per_symbol.append(state.comparisons / len(s))
    drift = per_symbol[1] / per_symbol[0] - 1
    _report(
        8,
        "transform cost scales linearly with length",
        8.0 <= ratio <= 12.0 and abs(drift) <= 0.01,
        f"fastest call {t_small*1e3:.2f}ms @4k vs {t_large*1e3:.2f}ms @40k, ratio {ratio:.2f}; "
        f"comparisons per symbol {per_symbol[0]:.5f} @4k vs {per_symbol[1]:.5f} @40k",
    )
