"""Adaptive frequency-rank digits: a linear-time bijection on sequences.

Each position of a sequence is replaced by the rank of its symbol in the total
order induced by the running occurrence counts of all *earlier* positions:
higher count first, ties broken by smaller symbol id, identity order before
anything has been seen.  The count of the consumed symbol is incremented only
after the digit is emitted, so encoder and decoder walk through identical
states and the map is exactly invertible.  The order is kept as a sorted list
of integer keys, so each step is a bisect and at most one list move.

Frequently seen symbols sit at low ranks, so on skewed sources the digit
stream concentrates near digit 0 while remaining a bijection on the full
symbol space at every length.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .entropy import Sequence, _check_integer, _check_ns, _check_symbols

__all__ = [
    "DigitStream",
    "RankState",
    "rank_of_symbol",
    "symbol_of_rank",
    "to_digits",
    "from_digits",
]


@dataclass(frozen=True, eq=False)
class DigitStream:
    """Rank digits in [0, ns), one per encoded position."""

    digits: np.ndarray
    ns: int

    def __post_init__(self):
        ns, arr = _check_symbols(self.digits, self.ns, "digit")
        object.__setattr__(self, "digits", arr)
        object.__setattr__(self, "ns", ns)

    def __len__(self) -> int:
        return int(self.digits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DigitStream):
            return NotImplemented
        return self.ns == other.ns and np.array_equal(self.digits, other.digits)

    __hash__ = None


class RankState:
    """Running symbol-frequency ranking over an alphabet of ``ns`` symbols.

    The order (count descending, smaller id first) is one ascending list of
    the keys ``symbol - count * ns``: a rank is one ``bisect_left`` and the
    symbol at a rank is ``key % ns``.  A step lowers the symbol's key by ``ns``
    and moves it from rank ``p`` up to the rank ``q`` a bisect over ``[0, p)``
    finds.  ``comparisons`` counts what an upward bubble making that move
    compares, ``p - q + (q > 0) + 1`` keys, O(L * ns) per pass at worst.
    """

    __slots__ = ("ns", "counts", "_keys", "comparisons")

    def __init__(self, ns: int):
        self.ns = _check_ns(ns)
        self.counts = [0] * self.ns
        self._keys = list(range(self.ns))
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
        self._walk([symbol], decode=False)

    def _walk(self, values: list, decode: bool) -> list:
        """Step past each value: the symbols' ranks, or with ``decode`` the ranks' symbols."""
        ns, counts, keys = self.ns, self.counts, self._keys
        out = []
        append = out.append
        moved = 0
        for value in values:
            if decode:
                p = value
                key = keys[p]
                symbol = key % ns
                append(symbol)
            else:
                symbol = value
                key = symbol - counts[symbol] * ns
                p = bisect_left(keys, key)
                append(p)
            counts[symbol] += 1
            key -= ns
            if p == 0 or keys[p - 1] < key:
                keys[p] = key
            else:
                q = bisect_left(keys, key, 0, p - 1)
                del keys[p]
                keys.insert(q, key)
                moved += p - q + (q > 0) - 1
        # a step that keeps its rank p costs 1 + (p > 0), a move `moved` more
        ranks = values if decode else out
        self.comparisons += 2 * len(ranks) - ranks.count(0) + moved
        return out


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
    consumed in place (useful for streaming or for instrumentation).
    """
    if len(seq) == 0:
        raise ValueError("cannot encode an empty sequence")
    if state is None:
        state = RankState(seq.ns)
    elif state.ns != seq.ns:
        raise ValueError(f"state alphabet {state.ns} != sequence alphabet {seq.ns}")
    digits = state._walk(seq.symbols.tolist(), decode=False)
    return DigitStream(digits=np.asarray(digits, dtype=np.int64), ns=seq.ns)


def from_digits(stream: DigitStream, state: RankState | None = None) -> Sequence:
    """Decode a digit stream; exact inverse of :func:`to_digits`."""
    if len(stream) == 0:
        raise ValueError("cannot decode an empty digit stream")
    if state is None:
        state = RankState(stream.ns)
    elif state.ns != stream.ns:
        raise ValueError(f"state alphabet {state.ns} != stream alphabet {stream.ns}")
    symbols = state._walk(stream.digits.tolist(), decode=True)
    return Sequence(symbols=np.asarray(symbols, dtype=np.int64), ns=stream.ns)
