"""Exact ground truth on desk-size spaces.

For spaces small enough to enumerate outright, ``sorted_space`` sorts every
sequence by information content and ``validate_strategy`` checks the
production strategies sequence by sequence.  ``oracle_report`` computes the
averages an optimal shaper could reach without enumerating: every sequence of
a type class has the same information content, so it sums one (value, count)
run per partition of the length.
"""
from seqshape import EXACT_SORTED, ShaperConfig, oracle_report, sorted_space, validate_strategy

# the full order of all length-2 sequences over ns=3: constants first (zero
# information), then everything else in lexicographic order within ties
print("sorted_space(3, 2):")
for rank, s in enumerate(sorted_space(3, 2)):
    print(f"  rank {rank}: {s}")

# exact optimal-shaping statistics: average info of the whole source space vs
# the cheapest ns^n sequences of the target space
print("\noracle_report(3, 2, 1):")
report = oracle_report(3, 2, 1)
print("  avg source info :", round(report.avg_source_info, 9))
print("  avg shaped info :", round(report.avg_shaped_info, 9))
print("  optimal gain    :", round(report.optimal_gain, 9))
print("  success fraction:", report.success_fraction)

# the sign of the optimal gain depends on the space: negative at tiny n,
# positive once the target space has enough cheap sequences to absorb A^n
print("\noptimal gain across n (ns=3, k=1):")
for n in range(1, 8):
    r = oracle_report(3, n, 1)
    print(
        f"  n={n}: gain {r.optimal_gain:+.6f} bits, "
        f"success fraction {r.success_fraction:.4f}"
    )

# validate the production strategies against the enumeration
for strategy in ("adaptive-rank", EXACT_SORTED):
    cfg = ShaperConfig(ns=3, strategy=strategy, k=1)
    v = validate_strategy(cfg, 3, 4)
    print(
        f"\nvalidate {strategy} on all {v.size} sequences of length {v.n}: "
        f"ok={v.ok} roundtrip={v.roundtrip_ok} distinct={v.images_distinct}"
    )
    if v.image_matches_sorted_prefix is not None:
        print("  image is exactly the cheapest slice of the target order:",
              v.image_matches_sorted_prefix)
