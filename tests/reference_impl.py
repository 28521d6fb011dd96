"""Naive reference implementations, written independently of the package.

Everything here favors obviousness over speed: itertools enumeration, full
re-sorts at every step, Counter-based statistics.  Tests compare package
output against these.
"""
import itertools
import math
from collections import Counter


def ref_info_positional(seq):
    counts = Counter(seq)
    length = len(seq)
    return -sum(math.log2(counts[s] / length) for s in seq)


def ref_info_sorted_counts(counts):
    total = sum(counts)
    return total * math.log2(total) - sum(c * math.log2(c) for c in counts if c)


def ref_type_class_info(seq, ns):
    counts = Counter(seq)
    key = tuple(sorted((counts.get(a, 0) for a in range(ns))))
    return ref_info_sorted_counts(key)


def ref_sorted_space(ns, length):
    """All sequences ordered by (type-class info, lexicographic)."""
    seqs = list(itertools.product(range(ns), repeat=length))
    infos = [ref_type_class_info(s, ns) for s in seqs]
    order = sorted(range(len(seqs)), key=infos.__getitem__)
    return [seqs[i] for i in order], [infos[i] for i in order]


def ref_oracle_report(ns, n, k):
    size = ns**n
    _, src_infos = ref_sorted_space(ns, n)
    _, tgt_infos = ref_sorted_space(ns, n + k)
    avg_source = math.fsum(src_infos) / size
    avg_shaped = math.fsum(tgt_infos[:size]) / size
    successes = sum(1 for r in range(size) if tgt_infos[r] < src_infos[r])
    return avg_source, avg_shaped, avg_source - avg_shaped, successes / size


def ref_exact_sorted_map(ns, n, k):
    """The rank-to-rank shaping map as a dict: source tuple -> target tuple."""
    src, _ = ref_sorted_space(ns, n)
    tgt, _ = ref_sorted_space(ns, n + k)
    return {src[r]: tgt[r] for r in range(len(src))}


def _order_of(counts):
    return sorted(range(len(counts)), key=lambda a: (-counts[a], a))


def ref_to_digits(seq, ns):
    counts = [0] * ns
    digits = []
    for s in seq:
        digits.append(_order_of(counts).index(s))
        counts[s] += 1
    return tuple(digits)


def ref_from_digits(digits, ns):
    counts = [0] * ns
    symbols = []
    for d in digits:
        s = _order_of(counts)[d]
        symbols.append(s)
        counts[s] += 1
    return tuple(symbols)


def ref_bubble_comparisons(seq, ns):
    """Key comparisons an upward bubble makes while encoding ``seq``.

    Each step lifts the symbol from rank p to rank q: it compares the p - q
    keys it passes, one more that stops it when q > 0, and one for the step.
    """
    counts = [0] * ns
    total = 0
    for s in seq:
        p = _order_of(counts).index(s)
        counts[s] += 1
        q = _order_of(counts).index(s)
        total += p - q + (q > 0) + 1
    return total


def ref_transform_adaptive(seq, ns, k=1):
    return ref_from_digits((0,) * k + ref_to_digits(seq, ns), ns)


def ref_inverse_adaptive(seq, ns, k=1):
    """None when the sequence is not an adaptive-shaping image."""
    digits = ref_to_digits(seq, ns)
    if any(d != 0 for d in digits[:k]):
        return None
    return ref_from_digits(digits[k:], ns)
