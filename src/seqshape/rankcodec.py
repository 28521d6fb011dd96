"""Adaptive frequency-rank digits: a linear-time bijection on sequences.

Each position of a sequence is replaced by the rank of its symbol in the total
order induced by the running occurrence counts of all *earlier* positions:
higher count first, ties broken by smaller symbol id, identity order before
anything has been seen.  The count of the consumed symbol is incremented only
after the digit is emitted, so encoder and decoder walk through identical
states and the map is exactly invertible.

Frequently seen symbols sit at low ranks, so on skewed sources the digit
stream concentrates near digit 0 while remaining a bijection on the full
symbol space at every length.
"""
from __future__ import annotations

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

    Maintains the counts together with the induced order (count descending,
    smaller id first) so that rank queries in both directions are O(1) and an
    ``advance`` repositions the incremented symbol by bubbling it over the
    entries it newly outranks.  ``comparisons`` counts order-key evaluations;
    the codec performs O(L * ns) of them in the worst case.
    """

    __slots__ = ("ns", "counts", "_order", "_pos", "comparisons")

    def __init__(self, ns: int):
        self.ns = _check_ns(ns)
        self.counts = [0] * self.ns
        self._order = list(range(self.ns))
        self._pos = list(range(self.ns))
        self.comparisons = 0

    @classmethod
    def from_counts(cls, counts) -> "RankState":
        state = cls(len(counts))
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        state.counts = [int(c) for c in counts]
        state._order = sorted(range(state.ns), key=lambda a: (-state.counts[a], a))
        state._pos = [0] * state.ns
        for position, symbol in enumerate(state._order):
            state._pos[symbol] = position
        state.comparisons += state.ns
        return state

    def rank_of(self, symbol: int) -> int:
        return self._pos[symbol]

    def symbol_at(self, rank: int) -> int:
        return self._order[rank]

    def advance(self, symbol: int) -> None:
        """Increment ``symbol``'s count and restore the order invariant."""
        counts = self.counts
        counts[symbol] += 1
        new_count = counts[symbol]
        order, pos = self._order, self._pos
        p = pos[symbol]
        comparisons = 0
        # entries that still outrank `symbol` form a prefix of the order list,
        # so a single upward bubble lands it in its new position
        while p > 0:
            other = order[p - 1]
            comparisons += 1
            if counts[other] > new_count or (counts[other] == new_count and other < symbol):
                break
            order[p - 1] = symbol
            order[p] = other
            pos[other] = p
            p -= 1
        pos[symbol] = p
        self.comparisons += comparisons + 1


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
    digits = []
    append = digits.append
    pos = state._pos
    advance = state.advance
    for symbol in seq.symbols.tolist():
        append(pos[symbol])
        advance(symbol)
    return DigitStream(digits=np.asarray(digits, dtype=np.int64), ns=seq.ns)


def from_digits(stream: DigitStream, state: RankState | None = None) -> Sequence:
    """Decode a digit stream; exact inverse of :func:`to_digits`."""
    if len(stream) == 0:
        raise ValueError("cannot decode an empty digit stream")
    if state is None:
        state = RankState(stream.ns)
    elif state.ns != stream.ns:
        raise ValueError(f"state alphabet {state.ns} != stream alphabet {stream.ns}")
    symbols = []
    append = symbols.append
    order = state._order
    advance = state.advance
    for digit in stream.digits.tolist():
        symbol = order[digit]
        append(symbol)
        advance(symbol)
    return Sequence(symbols=np.asarray(symbols, dtype=np.int64), ns=stream.ns)
