"""Bijective length-increasing shaping of symbol sequences.

A shaping function maps every length-N sequence over {0..ns-1} to a distinct
length-(N+K) sequence over the same alphabet, K >= 1.  The image therefore
covers exactly an ns^-K fraction of the longer space: membership is decidable,
inversion fails loudly outside the image, and no shaped sequence can be
confused with an unshaped one.

Two interchangeable strategies are provided:

* ``adaptive-rank`` - encode to adaptive frequency-rank digits, prepend K zero
  digits, decode.  O((N+K) * ns) time at any length.
* ``exact-sorted`` - rank the source sequence in the total order of its whole
  space keyed by (information content, lexicographic) and map it to the same
  rank in the target space's order.  Exact but exponential: only usable while
  ns^(N+K) stays within the enumeration bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import (
    Sequence,
    _check_integer,
    _check_ns,
    _trusted,
    entropy_length_product,
    info_from_sorted_counts,
)
from .rankcodec import DigitStream, from_digits, to_digits

__all__ = [
    "ADAPTIVE_RANK",
    "EXACT_SORTED",
    "STRATEGIES",
    "DEFAULT_MAX_SPACE",
    "NotInImageError",
    "SpaceTooLargeError",
    "ShaperConfig",
    "ShapingOutcome",
    "transform_adaptive",
    "inverse_adaptive",
    "is_in_image",
    "transform_exact_sorted",
    "inverse_exact_sorted",
    "transform",
    "inverse_transform",
    "shape_and_measure",
]

ADAPTIVE_RANK = "adaptive-rank"
EXACT_SORTED = "exact-sorted"
STRATEGIES = (ADAPTIVE_RANK, EXACT_SORTED)

# keeps exact-sorted enumeration in the comfortably-interactive range
DEFAULT_MAX_SPACE = 1 << 24
# lex indices and their place values are int64
_MAX_LEX_INDEX = np.iinfo(np.int64).max


class NotInImageError(Exception):
    """The sequence lies outside the shaped subset and has no pre-image."""


class SpaceTooLargeError(ValueError):
    """ns^length exceeds the configured enumeration bound or the int64 lex indices."""


@dataclass(frozen=True)
class ShaperConfig:
    """Strategy selection plus the shaping order K and alphabet size."""

    ns: int
    strategy: str = ADAPTIVE_RANK
    k: int = 1
    max_space: int = DEFAULT_MAX_SPACE

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        _check_ns(self.ns)
        _check_k(self.k)
        if self.max_space < 2:
            raise ValueError("enumeration bound must be >= 2")


@dataclass(frozen=True)
class ShapingOutcome:
    """One shaped sequence together with the before/after information contents."""

    output: Sequence
    input_info: float
    output_info: float
    gain_bits: float
    success: bool


def _check_k(k: int) -> int:
    k = _check_integer(k, "shaping order")
    if k < 1:
        raise ValueError(f"shaping order must be >= 1, got {k}")
    return k


def transform_adaptive(seq: Sequence, k: int = 1) -> Sequence:
    """Shape ``seq`` by injecting ``k`` zero digits ahead of its rank digits."""
    _check_k(k)
    if len(seq) == 0:
        raise ValueError("cannot shape an empty sequence")
    digits = to_digits(seq)
    shaped = np.concatenate([np.zeros(k, dtype=np.int64), digits.digits])
    return from_digits(_trusted(DigitStream, shaped, seq.ns))


def inverse_adaptive(seq: Sequence, k: int = 1) -> Sequence:
    """Recover the pre-image of an adaptive-rank shaped sequence.

    Raises :class:`NotInImageError` when ``seq`` was not produced by
    :func:`transform_adaptive` with this ``k``, before any decoding work.
    """
    if not is_in_image(seq, k):
        raise NotInImageError("not in image")
    digits = to_digits(seq)
    return from_digits(_trusted(DigitStream, digits.digits[k:], seq.ns))


def is_in_image(seq: Sequence, k: int = 1) -> bool:
    """Whether ``seq`` is reachable by the adaptive-rank shaping of order ``k``.

    The image is exactly the sequences that start with ``k`` zeros: while only
    zeros have been seen, symbol 0 ranks first, so the ``k`` injected zero
    digits decode to ``k`` zero symbols and any continuation is reachable.
    """
    _check_k(k)
    if len(seq) <= k:
        raise ValueError(f"shaped sequence must be longer than k={k}, got length {len(seq)}")
    return not np.any(seq.symbols[:k])


def _check_space(ns: int, length: int, max_space: int) -> int:
    size = ns**length
    if size - 1 > _MAX_LEX_INDEX:
        raise SpaceTooLargeError(
            f"{ns}^{length} sequences: the largest lex index {size - 1} exceeds "
            f"the int64 lex-index limit {_MAX_LEX_INDEX}"
        )
    if size > max_space:
        raise SpaceTooLargeError(
            f"{ns}^{length} = {size} sequences exceed the enumeration bound {max_space}"
        )
    return size


def _lex_places(ns: int, length: int) -> np.ndarray:
    return ns ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _digits_from_lex(lex, ns: int, length: int) -> np.ndarray:
    """Symbols of the sequences with lex index ``lex``.

    A lex index reads a sequence as a base-``ns`` number, first symbol most
    significant.  ``lex`` is one index, giving ``length`` symbols, or a column
    of indices (shape ``(m, 1)``), giving one row of symbols per index.
    """
    return (lex // _lex_places(ns, length)) % ns


def _info_by_lex_index(ns: int, length: int) -> np.ndarray:
    """Information content of every length-``length`` sequence, in lex order.

    Each chunk is the ``ns**tail`` sequences sharing one head, contiguous in
    lex order: the tail digits are decoded once and a chunk writes only its
    head, so memory does not grow with ``ns``.  A sorted row changes value at
    a set of positions (a ``length - 1`` bit key); the runs between them are
    the row's nonzero counts.  Each type class gets its value from the shared
    canonical scalar once, so independently built orderings sort on
    bit-identical keys.  Requires ``length >= 1``.
    """
    tail = max([1] + [t for t in range(1, length + 1) if ns**t <= 1 << 16])
    head, rows = length - tail, ns**tail
    digits = np.empty((rows, length), dtype=np.int64)
    digits[:, head:] = _digits_from_lex(np.arange(rows)[:, None], ns, tail)
    bits = 1 << np.arange(length - 1, dtype=np.int64)
    class_info = lru_cache(maxsize=None)(info_from_sorted_counts)
    info = np.empty(ns**length, dtype=np.float64)
    for start in range(0, info.size, rows):
        digits[:, :head] = _digits_from_lex(start // rows, ns, head)
        ordered = np.sort(digits, axis=1)
        keys, inverse = np.unique((ordered[:, 1:] != ordered[:, :-1]) @ bits, return_inverse=True)
        values = np.empty(keys.size, dtype=np.float64)
        for i, key in enumerate(keys.tolist()):
            ends = [j + 1 for j in range(length - 1) if key >> j & 1] + [length]
            values[i] = class_info(tuple(sorted(b - a for a, b in zip([0, *ends], ends))))
        info[start : start + rows] = values[inverse]
    return info


# every caller uses one (n, n+k) pair at a time; a space at the default
# bound holds 256 MiB of (order, rank), so keep no more than that pair
@lru_cache(maxsize=2)
def _space_order(ns: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank) arrays of the (info, lex) total order on all sequences.

    ``order[r]`` is the lex index of the rank-r sequence; ``rank`` is the
    inverse permutation.  Stable argsort over the lex enumeration makes the
    lexicographic tie-break implicit.
    """
    info = _info_by_lex_index(ns, length)
    order = np.argsort(info, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=np.int64)
    order.setflags(write=False)
    rank.setflags(write=False)
    return order, rank


def _lex_index(seq: Sequence) -> int:
    return int(np.dot(seq.symbols, _lex_places(seq.ns, len(seq))))


def _seq_from_lex_index(lex: int, ns: int, length: int) -> Sequence:
    return _trusted(Sequence, _digits_from_lex(lex, ns, length), ns)


def _rerank(seq: Sequence, length: int, max_space: int) -> Sequence:
    """The length-``length`` sequence at ``seq``'s rank in the (info, lex) order.

    Raises :class:`NotInImageError` when that rank is ``ns**length`` or more.
    """
    _check_space(seq.ns, max(len(seq), length), max_space)
    _, rank = _space_order(seq.ns, len(seq))
    r = int(rank[_lex_index(seq)])
    if r >= seq.ns**length:
        raise NotInImageError("not in image")
    order, _ = _space_order(seq.ns, length)
    return _seq_from_lex_index(int(order[r]), seq.ns, length)


def transform_exact_sorted(seq: Sequence, k: int = 1, max_space: int = DEFAULT_MAX_SPACE) -> Sequence:
    """Map ``seq`` to the equally-ranked sequence of the length-(N+k) order.

    Rank r in the source order (information content ascending, lexicographic
    within ties) goes to rank r in the target order, so the image is exactly
    the ns^N cheapest-to-describe sequences of the longer space.
    """
    _check_k(k)
    if len(seq) == 0:
        raise ValueError("cannot shape an empty sequence")
    return _rerank(seq, len(seq) + k, max_space)


def inverse_exact_sorted(seq: Sequence, k: int = 1, max_space: int = DEFAULT_MAX_SPACE) -> Sequence:
    """Invert :func:`transform_exact_sorted`; raises outside the image."""
    _check_k(k)
    if len(seq) <= k:
        raise ValueError(f"shaped sequence must be longer than k={k}, got length {len(seq)}")
    return _rerank(seq, len(seq) - k, max_space)


def transform(seq: Sequence, cfg: ShaperConfig) -> Sequence:
    """Shape ``seq`` with the configured strategy."""
    if seq.ns != cfg.ns:
        raise ValueError(f"sequence alphabet {seq.ns} != config alphabet {cfg.ns}")
    if cfg.strategy == ADAPTIVE_RANK:
        return transform_adaptive(seq, cfg.k)
    return transform_exact_sorted(seq, cfg.k, cfg.max_space)


def inverse_transform(seq: Sequence, cfg: ShaperConfig) -> Sequence:
    """Invert :func:`transform`; raises :class:`NotInImageError` off-image."""
    if seq.ns != cfg.ns:
        raise ValueError(f"sequence alphabet {seq.ns} != config alphabet {cfg.ns}")
    if cfg.strategy == ADAPTIVE_RANK:
        return inverse_adaptive(seq, cfg.k)
    return inverse_exact_sorted(seq, cfg.k, cfg.max_space)


def shape_and_measure(seq: Sequence, cfg: ShaperConfig) -> ShapingOutcome:
    """Shape ``seq`` and measure the change in information content.

    ``success`` uses a strict ``<`` on the double-precision values: the shaped
    sequence must genuinely undercut the original coding limit, never merely
    tie it.
    """
    output = transform(seq, cfg)
    input_info = entropy_length_product(seq)
    output_info = entropy_length_product(output)
    return ShapingOutcome(
        output=output,
        input_info=input_info,
        output_info=output_info,
        gain_bits=input_info - output_info,
        success=output_info < input_info,
    )
