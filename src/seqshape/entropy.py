"""Sequences over a finite alphabet and their empirical information content.

A sequence of length L over the alphabet {0..ns-1} carries
``-sum_i log2(count[s_i] / L)`` bits under its own symbol frequencies: the
empirical (zero-order) entropy multiplied by the length.  This value is the
reference coding limit everything else in the package is measured against.

Symbols are 0-based everywhere in this package; any 1-based presentation is
the concern of I/O code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sequence",
    "Histogram",
    "histogram",
    "entropy_length_product",
    "entropy_length_product_from_counts",
    "info_from_sorted_counts",
]


def _check_integer(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_ns(ns: int) -> int:
    ns = _check_integer(ns, "alphabet size")
    if ns < 2:
        raise ValueError(f"alphabet size must be >= 2, got {ns}")
    return ns


def _check_symbols(values, ns: int, noun: str) -> tuple[int, np.ndarray]:
    """Checked ``ns`` and a read-only int64 copy of ``values``.

    ``values`` must be one-dimensional integers in ``[0, ns)``; ``noun``
    ("symbol", "digit") names one value in the error messages.
    """
    ns = _check_ns(ns)
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{noun}s must be integers")
    arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{noun}s must be one-dimensional, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= ns):
        raise ValueError(f"{noun} out of range [0, {ns})")
    arr.setflags(write=False)
    return ns, arr


def _trusted(cls, values, ns: int):
    """A ``cls`` (:class:`Sequence` or ``DigitStream``) of ``values``, skipping its checks.

    Only for values the package has just computed itself, all in ``[0, ns)``
    for an ``ns`` already checked: the rank codec's output, digit streams cut
    from it, and sequences decoded from a lex index.  ``values`` must be a
    list or an array no caller holds.  Public construction never comes here
    and keeps every check.
    """
    arr = np.asarray(values, dtype=np.int64)
    arr.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, next(iter(cls.__dataclass_fields__)), arr)
    object.__setattr__(obj, "ns", ns)
    return obj


@dataclass(frozen=True, eq=False)
class Sequence:
    """An immutable sequence of symbols drawn from {0..ns-1}.

    ``symbols`` may be given as any integer iterable; it is stored as a
    read-only int64 array.  Construction validates the symbol range.
    """

    symbols: np.ndarray
    ns: int

    def __post_init__(self):
        ns, arr = _check_symbols(self.symbols, self.ns, "symbol")
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "ns", ns)

    def __len__(self) -> int:
        return int(self.symbols.size)

    def __iter__(self):
        return iter(self.symbols.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.ns == other.ns and np.array_equal(self.symbols, other.symbols)

    __hash__ = None

    def __repr__(self) -> str:
        body = " ".join(map(str, self.symbols.tolist()[:16]))
        tail = " ..." if len(self) > 16 else ""
        return f"Sequence([{body}{tail}], ns={self.ns}, len={len(self)})"


@dataclass(frozen=True, eq=False)
class Histogram:
    """Per-symbol occurrence counts of one sequence plus its total length."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "total", int(self.total))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.total == other.total and np.array_equal(self.counts, other.counts)

    __hash__ = None


def histogram(seq: Sequence) -> Histogram:
    """Count occurrences of every symbol of ``seq``.

    The counts vector has one entry per alphabet symbol (zeros included) and
    sums to ``len(seq)``.
    """
    if len(seq) == 0:
        raise ValueError("histogram of an empty sequence is undefined")
    counts = np.bincount(seq.symbols, minlength=seq.ns)
    return Histogram(counts=counts, total=len(seq))


def entropy_length_product(seq: Sequence) -> float:
    """Information content of ``seq`` in bits: ``-sum_i log2(count[s_i]/L)``.

    Evaluated positionally, exactly as defined: every position contributes the
    negative log2 of its own symbol's observed frequency.  Zero iff the
    sequence is constant; at most ``L * log2(ns)``.
    """
    if len(seq) == 0:
        raise ValueError("information content of an empty sequence is undefined")
    counts = np.bincount(seq.symbols, minlength=seq.ns)
    freqs = counts[seq.symbols] / len(seq)
    return float(-np.log2(freqs).sum()) + 0.0


def entropy_length_product_from_counts(hist: Histogram) -> float:
    """Closed form of the same quantity: ``L*log2(L) - sum_a c_a*log2(c_a)``.

    Terms with a zero count are omitted (a symbol that never occurs
    contributes nothing).  Agrees with :func:`entropy_length_product` to
    floating-point accuracy; kept as a separate route for cross-checking.
    """
    total = int(hist.total)
    if total == 0:
        raise ValueError("information content of an empty histogram is undefined")
    counts = hist.counts[hist.counts > 0].astype(np.float64)
    return float(total * math.log2(total) - (counts * np.log2(counts)).sum()) + 0.0


def info_from_sorted_counts(counts: tuple[int, ...]) -> float:
    """Canonical per-type-class information content from sorted counts.

    Every ordering key in this package that compares sequences by information
    content goes through this one scalar expression, so that all members of a
    type class (same count multiset) receive a bit-identical float and
    independently built orderings agree exactly.  The terms are added left to
    right from 0.0: builtin ``sum`` of floats is compensated from Python 3.12
    on, which would give different bits on different interpreters.
    """
    total = sum(counts)
    if total == 0:
        raise ValueError("empty type class")
    terms = 0.0
    for c in counts:
        if c:
            terms += c * math.log2(c)
    return total * math.log2(total) - terms
