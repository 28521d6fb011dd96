"""Adaptive frequency-rank digits: a linear-time bijection on sequences.

Each position of a sequence is replaced by the rank of its symbol in the total
order induced by the running occurrence counts of all *earlier* positions:
higher count first, ties broken by smaller symbol id, identity order before
anything has been seen.  The count of the consumed symbol is incremented only
after the digit is emitted, so encoder and decoder walk through identical
states and the map is exactly invertible.  The order is kept as a sorted list
of integer keys, so each step is a bisect and at most one list move.

The decoder walks the sequence one step at a time: the symbol at a position
is only known once every earlier step is done.  It keeps only the sorted
keys: a step reads the key at the digit's rank, records it and moves it, and
the symbols (each key ``% ns``) are taken once, at the end of the walk.  The
encoder needs no walk, as a symbol's rank depends only on the counts of
earlier positions, and a cumulative sum gives those for every position at
once.  A long sequence (``_VECTOR_MIN_LENGTH`` symbols or more) over a small
alphabet (at most ``_VECTOR_MAX_NS`` symbols) encoded with no state is taken
that way, in numpy with int32 keys.  Any other encode with no state walks
the sorted keys alone, with each symbol's own current key beside them; an
encode given a state walks that state.  All three give the same digits.

A caller's :class:`RankState` is only ever advanced by :meth:`RankState._walk`,
so its ``counts``, keys and ``comparisons`` have one definition.  A pass
given no state keeps nothing beyond its output: the vector encoder, the
short encode and the decoder start from the identity keys and build no
state at all.

Frequently seen symbols sit at low ranks, so on skewed sources the digit
stream concentrates near digit 0 while remaining a bijection on the full
symbol space at every length.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .entropy import Sequence, _Checked, _check_integer, _check_ns, _trusted

__all__ = [
    "DigitStream",
    "RankState",
    "rank_of_symbol",
    "symbol_of_rank",
    "to_digits",
    "from_digits",
]

# The size rule for the vector encoder: below this length its fixed numpy
# overhead costs more than the scalar walk, and above this alphabet its
# O(ns) work per position does (see the crossover table in CHANGES.md).  The
# alphabet bound also keeps a row's count of keys inside the uint8 sums.
_VECTOR_MIN_LENGTH = 128
_VECTOR_MAX_NS = 64
# positions per key matrix, so memory stays O(ns * block) at any length
_VECTOR_BLOCK = 2048
# every key of a pass from the identity keys lies in (-ns * (length + 1), ns):
# inside int32 while ns * (length + 1) is below this
_VECTOR_KEY_LIMIT = 2**31
# from this many digits on, the decoder takes its symbols from the recorded
# keys with one numpy `%`; below it a list comprehension is faster
_NUMPY_SYMBOLS_MIN = 32


@dataclass(frozen=True, eq=False)
class DigitStream(_Checked):
    """Rank digits in [0, ns), one per encoded position; checked, stored and pickled as a ``Sequence``."""

    digits: np.ndarray
    ns: int
    _values = "digits"
    _noun = "digit"

    def __len__(self) -> int:
        return self.digits.size


def _identity_keys(ns: int) -> list:
    """The sorted keys before any symbol is seen: each symbol's own id."""
    try:
        return list(range(ns))
    except MemoryError:
        raise MemoryError(
            f"alphabet size {ns}: the rank codec keeps a key per symbol of the "
            f"alphabet, a list of {ns} entries"
        ) from None


class RankState:
    """Running symbol-frequency ranking over an alphabet of ``ns`` symbols.

    The order (count descending, smaller id first) is one ascending list of
    the keys ``symbol - count * ns``: a rank is one ``bisect_left`` and the
    symbol at a rank is ``key % ns``.  A step lowers the symbol's key by ``ns``
    and moves it from rank ``p`` up to the rank ``q <= p`` a bisect finds.
    ``comparisons`` counts what an upward bubble making that move compares,
    ``p - q + (q > 0) + 1`` keys, O(L * ns) per pass at worst.  A state passed
    to :func:`to_digits` or :func:`from_digits` is advanced by :meth:`_walk`
    alone, so the counter is exact on it.
    """

    __slots__ = ("ns", "counts", "_keys", "comparisons")

    def __init__(self, ns: int):
        self.ns = _check_ns(ns)
        self._keys = _identity_keys(self.ns)
        self.counts = [0] * self.ns
        self.comparisons = 0

    @classmethod
    def from_counts(cls, counts) -> "RankState":
        state = cls(len(counts))
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        state.counts = [int(c) for c in counts]
        state._keys = sorted(a - c * state.ns for a, c in enumerate(state.counts))
        state.comparisons += state.ns
        return state

    def rank_of(self, symbol: int) -> int:
        return bisect_left(self._keys, symbol - self.counts[symbol] * self.ns)

    def symbol_at(self, rank: int) -> int:
        return self._keys[rank] % self.ns

    def advance(self, symbol: int) -> None:
        """Increment ``symbol``'s count and restore the order invariant."""
        self._walk([symbol])

    def _walk(self, symbols: list) -> list:
        """Step past each symbol in turn: their ranks, with ``counts``, keys and ``comparisons`` kept."""
        ns, keys, counts = self.ns, self._keys, self.counts
        ranks = []
        append = ranks.append
        moved = 0
        for symbol in symbols:
            key = symbol - counts[symbol] * ns
            p = bisect_left(keys, key)
            append(p)
            counts[symbol] += 1
            key -= ns
            if p:
                q = bisect_left(keys, key)
                del keys[p]
                keys.insert(q, key)
                moved += p - (q or 1)
            else:
                keys[0] = key
        # the bubble compares 1 + (p > 0) keys at each step, and moving a key
        # from rank p up to q another p - q + (q > 0) - 1, which is
        # p - (q or 1) and 0 when q == p > 0
        self.comparisons += 2 * len(ranks) - ranks.count(0) + moved
        return ranks


def _encode(symbols: np.ndarray, ns: int) -> np.ndarray:
    """The ranks of ``symbols`` stepped past in turn from the identity keys; ``_walk`` without the walk.

    Row ``i`` of a block's int32 key matrix holds every symbol's key before
    position ``i``: the identity keys in row 0, then a cumulative sum of
    ``-ns`` at ``(i + 1, symbol_i)``.  The digit is ``p_i``, the number of
    keys in row ``i`` below the symbol's own key.
    """
    step = min(symbols.size, _VECTOR_BLOCK)
    # one buffer serves every block: with a matrix per block two were alive
    # at once, and freeing them made the allocator hand the memory back to
    # the system, to fault it in again on the next call
    matrix = np.empty((step + 1, ns), dtype=np.int32)
    matrix[0] = np.arange(ns)
    digits = np.empty(symbols.size, dtype=np.int64)
    for start in range(0, symbols.size, step):
        block = symbols[start:start + step]
        size = block.size
        rows = np.arange(size)
        keys = matrix[:size + 1]
        keys[1:] = 0
        keys.reshape(-1)[block + ns * (rows + 1)] = -ns
        np.cumsum(keys, axis=0, out=keys)
        own = keys[rows, block][:, None]
        digits[start:start + size] = np.einsum("ij->i", (keys[:size] < own).view(np.uint8))
        matrix[0] = keys[size]
    return digits


def _ranks(symbols: list, ns: int) -> list:
    """The ranks of ``symbols`` stepped past in turn from the identity keys; ``_walk`` with no state.

    Beside the sorted keys it keeps only each symbol's own current key
    (``own[symbol]``, ``symbol - count * ns``): no counts and no
    comparisons.
    """
    keys = _identity_keys(ns)
    own = keys.copy()
    ranks = []
    append = ranks.append
    for symbol in symbols:
        key = own[symbol]
        p = bisect_left(keys, key)
        append(p)
        key -= ns
        own[symbol] = key
        if p:
            # the lowered key's place lies at or before rank p, and keys are
            # distinct, so insort puts it where bisect_left would
            del keys[p]
            insort(keys, key)
        else:
            keys[0] = key
    return ranks


def _decode(keys: list, ns: int, digits: list):
    """The symbols at ``digits`` stepped past in turn, moving the sorted ``keys`` in place.

    A step only records the lowered key of rank ``p`` and moves it; the
    symbols (the recorded keys ``% ns``, as one numpy array from
    ``_NUMPY_SYMBOLS_MIN`` digits on) are taken once, after the loop.  No
    counts and no comparisons: :func:`from_digits` gives a caller's state
    those by encoding the symbols.
    """
    out = []
    append = out.append
    for p in digits:
        if p:
            # every key the bisect counts lies before rank p, so it finds
            # the same place with the moved key already popped; keys are
            # distinct (each is its symbol mod ns), so insort's bisect_right
            # is bisect_left
            key = keys.pop(p) - ns
            insort(keys, key)
        else:
            key = keys[0] = keys[0] - ns
        append(key)
    if len(out) < _NUMPY_SYMBOLS_MIN:
        return [key % ns for key in out]
    # a symbol's key only falls, so every recorded key lies in [keys[0], ns);
    # keys[0] is at least -ns * len(digits) from a fresh state, and only a
    # given state's counts can take it below int64
    return np.asarray(out, dtype=np.int64 if keys[0] >= -(2**63) else object) % ns


def _check_index(value: int, ns: int, what: str) -> int:
    value = _check_integer(value, what)
    if not 0 <= value < ns:
        raise ValueError(f"{what} {value} out of range [0, {ns})")
    return value


def rank_of_symbol(state: RankState, symbol: int) -> int:
    """Rank of ``symbol`` under the state's order; bijective for a fixed state."""
    return state.rank_of(_check_index(symbol, state.ns, "symbol"))


def symbol_of_rank(state: RankState, digit: int) -> int:
    """The symbol occupying position ``digit`` of the state's order."""
    return state.symbol_at(_check_index(digit, state.ns, "digit"))


def to_digits(seq: Sequence, state: RankState | None = None) -> DigitStream:
    """Encode ``seq`` as adaptive frequency-rank digits.

    Each digit is the symbol's rank given the counts of all earlier positions;
    the state advances after every emission.  A caller-supplied ``state`` is
    consumed in place by the scalar walk (useful for streaming or for
    instrumentation): its ``counts``, keys and ``comparisons`` end as a
    step-by-step walk leaves them.  With no state, a sequence of at least
    ``_VECTOR_MIN_LENGTH`` symbols over at most ``_VECTOR_MAX_NS`` is encoded
    in numpy, every rank from one cumulative sum of keys per block of
    positions; anything else walks the identity keys with no ``RankState``
    and no bookkeeping.  The digits are the same on every path.
    """
    length = len(seq)
    if length == 0:
        raise ValueError("cannot encode an empty sequence")
    ns = seq.ns
    if state is None:
        if length >= _VECTOR_MIN_LENGTH and ns <= _VECTOR_MAX_NS and ns * (length + 1) < _VECTOR_KEY_LIMIT:
            return _trusted(DigitStream, _encode(seq.symbols, ns), ns)
        return _trusted(DigitStream, _ranks(seq.symbols.tolist(), ns), ns)
    if state.ns != ns:
        raise ValueError(f"state alphabet {state.ns} != sequence alphabet {ns}")
    return _trusted(DigitStream, state._walk(seq.symbols.tolist()), ns)


def from_digits(stream: DigitStream, state: RankState | None = None) -> Sequence:
    """Decode a digit stream; exact inverse of :func:`to_digits`.

    The decoder walks the sorted keys alone.  A caller-supplied ``state`` is
    then advanced by encoding the decoded symbols on it: decoding and
    encoding pass through the same states and make the same moves, so its
    ``counts``, keys and ``comparisons`` end as those of a step-by-step
    decode.  With no state the pass keeps no bookkeeping.
    """
    if len(stream) == 0:
        raise ValueError("cannot decode an empty digit stream")
    ns = stream.ns
    if state is None:
        keys = _identity_keys(ns)
    elif state.ns != ns:
        raise ValueError(f"state alphabet {state.ns} != stream alphabet {ns}")
    else:
        keys = state._keys.copy()
    seq = _trusted(Sequence, _decode(keys, ns, stream.digits.tolist()), ns)
    if state is not None:
        to_digits(seq, state)
    return seq
