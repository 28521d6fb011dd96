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
    if type(value) is int:  # the common case, checked on every exact-sorted call
        return value
    if not _is_integer(value):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_at_least(value, least: int, what: str) -> int:
    """``value`` as an ``int``, refused unless it is an integer of at least ``least``."""
    if type(value) is not int:  # an int, the common case, is checked on every warm call
        value = _check_integer(value, what)
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _check_ns(ns: int) -> int:
    ns = _check_at_least(ns, 2, "alphabet size")
    # symbols in [0, ns) are int64, and the rank codec sizes lists by ns
    if ns > (1 << 63) - 1:
        raise ValueError(f"alphabet size must be <= 2**63 - 1, got {ns}")
    return ns


def _check_symbols(values, ns: int, noun: str) -> tuple[int, np.ndarray]:
    """Checked ``ns`` and a read-only int64 copy of ``values``.

    ``values`` must be one-dimensional integers in ``[0, ns)``; ``noun``
    ("symbol", "digit") names one value in the error messages.
    """
    ns = _check_ns(ns)
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        if arr.dtype.kind != "O" and not isinstance(values, np.ndarray):
            # numpy reads a list mixing int64-sized and larger ints as float64
            arr = np.asarray(values, dtype=object)
        if not all(map(_is_integer, arr.flat)):
            raise TypeError(f"{noun}s must be integers")
        # integers in an object array: numpy keeps those beyond int64 and
        # uint64 there, and no such integer lies in [0, ns)
        if not all(0 <= v < ns for v in arr.flat):
            raise ValueError(f"{noun} out of range [0, {ns})")
    arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{noun}s must be one-dimensional, got shape {arr.shape}")
    # read as uint64, a negative value lies above every ns <= 2**63 - 1: one
    # reduction checks both ends, compared as Python ints on any numpy
    if arr.size and int(arr.view(np.uint64).max()) >= ns:
        raise ValueError(f"{noun} out of range [0, {ns})")
    arr.setflags(write=False)
    return ns, arr


def _same_int64(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two int64 arrays hold the same values.

    Up to 4096 values (32 KiB) their bytes are compared, several times
    cheaper than an elementwise compare; beyond that copying the bytes costs
    more than comparing the values.
    """
    if a.shape != b.shape:
        return False
    if a.size <= 4096:
        return a.tobytes() == b.tobytes()
    return bool((a == b).all())


# a dtype object: asarray and frombuffer take it faster than the type np.int64
_INT64 = np.dtype(np.int64)
_new = object.__new__
_set = object.__setattr__


class _Checked:
    """The check, equality and pickling :class:`Sequence` and ``DigitStream`` share.

    A subclass is a frozen dataclass of its values (the field ``_values``
    names) and ``ns``; ``_noun`` names one value in the error messages.
    ``pickle`` and ``copy`` rebuild a value through its public constructor.
    """

    def __post_init__(self):
        ns, arr = _check_symbols(getattr(self, self._values), self.ns, self._noun)
        _set(self, self._values, arr)
        _set(self, "ns", ns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ns == other.ns and _same_int64(getattr(self, self._values), getattr(other, self._values))

    __hash__ = None

    def __reduce__(self):
        return type(self), (getattr(self, self._values), self.ns)


def _wrap(cls, arr: np.ndarray, ns: int):
    """A ``cls`` (:class:`Sequence` or ``DigitStream``) around ``arr`` itself, skipping its checks.

    ``arr`` must be a read-only one-dimensional ``int64`` array whose memory
    no caller writes, every value in ``[0, ns)`` for an ``ns`` already
    checked: ``np.frombuffer`` of bytes, a slice of such an array, or what
    :func:`_trusted` makes.  It is stored without a copy, in the field the
    class names by ``_values``.  Public construction never comes here and
    keeps every check, as do a pickle and a copy of the result.
    """
    obj = _new(cls)
    _set(obj, cls._values, arr)
    _set(obj, "ns", ns)
    return obj


def _trusted(cls, values, ns: int):
    """A ``cls`` of ``values``, skipping its checks: :func:`_wrap` of them as a read-only ``int64`` array.

    Only for values the package has just computed itself, all in ``[0, ns)``
    for an ``ns`` already checked: the rank codec's output, digit streams cut
    from it, and the oracle's tuples from ``itertools.product(range(ns))``.
    ``values`` must be a list, a tuple or an ``int64`` array no caller holds,
    as an array is frozen in place, not copied.  Pickle and copy check anew.
    """
    arr = np.asarray(values, _INT64)
    arr.setflags(write=False)
    return _wrap(cls, arr, ns)


@dataclass(frozen=True, eq=False)
class Sequence(_Checked):
    """An immutable sequence of symbols drawn from {0..ns-1}.

    ``symbols`` may be given as any integer iterable; it is stored as a
    read-only int64 array.  Construction validates the symbol range, and
    pickle and copy go through construction.
    """

    symbols: np.ndarray
    ns: int
    _values = "symbols"
    _noun = "symbol"

    def __len__(self) -> int:
        return self.symbols.size

    def __iter__(self):
        return iter(self.symbols.tolist())

    def __repr__(self) -> str:
        body = " ".join(map(str, self.symbols.tolist()[:16]))
        tail = " ..." if len(self) > 16 else ""
        return f"Sequence([{body}{tail}], ns={self.ns}, len={len(self)})"


@dataclass(frozen=True, eq=False)
class Histogram:
    """Per-symbol occurrence counts of one sequence plus its total length; pickle and copy construct anew."""

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
        return self.total == other.total and _same_int64(self.counts, other.counts)

    __hash__ = None

    def __reduce__(self):
        return Histogram, (self.counts, self.total)


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
    # no minlength: only the symbols present are read, so the cost follows
    # the sequence, not the declared alphabet
    counts = np.bincount(seq.symbols)
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
