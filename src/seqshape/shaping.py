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

The exact-sorted order of a space is built on first use and cached.  Every
sequence of a type class (a partition of the length into at most ``ns``
parts) has the same value, and a space within the enumeration bound has at
most a few dozen classes.  So the build gives every sequence the rank of its
class's value, one byte.  It reads the space in chunks of the sequences that
share a head (all symbols but the last ``tail``), whose ranks depend only on
the head's multiset and each tail's.  Once per build, the classes are
ranked, and the tails and the heads are grouped by multiset, grown one
symbol at a time; per batch of head multisets, merging each into every
distinct tail multiset gives the ranks by tail multiset; per chunk, those
ranks are copied out by each tail's multiset.  Nothing then sorts the whole
space: a stable argsort of one chunk's ranks orders every chunk of its head
multiset by class (small chunks are sorted a block at a time), and per-class
counts place each chunk's class segments in the order.  The order and its
inverse are ``int32``, ``int64`` only beyond 2^31 sequences.

The place values of a space's lex indices (``ns**(length-1), ..., 1``) are
cached per space too, so a later call is a dot product with them, one lookup
in each side's order and one division by them.
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
# symbols merged per batch of the class-rank build, and sequences per block
# of the order build: small enough that a step's work stays in cache
_STEP = 1 << 14


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
        if _check_integer(self.max_space, "enumeration bound") < 2:
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
    return not np.count_nonzero(seq.symbols[:k])


def _check_space(ns: int, length: int, max_space: int) -> int:
    max_space = _check_integer(max_space, "enumeration bound")
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


# a few hundred bytes per space: room for both sides of a round trip and every
# prefix width an order build's multisets grow through
@lru_cache(maxsize=64)
def _lex_places(ns: int, length: int) -> np.ndarray:
    """The place values ``ns**(length-1), ..., ns, 1`` of a lex index, read-only ``int64``."""
    places = ns ** np.arange(length - 1, -1, -1, dtype=np.int64)
    places.setflags(write=False)
    return places


def _digits_from_lex(lex, ns: int, length: int) -> np.ndarray:
    """Symbols of the sequences with lex index ``lex``.

    A lex index reads a sequence as a base-``ns`` number, first symbol most
    significant.  ``lex`` is one index, giving ``length`` symbols, or a column
    of indices (shape ``(m, 1)``), giving one row of symbols per index.
    """
    return (lex // _lex_places(ns, length)) % ns


def _multisets(ns: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct multisets among the ``ns**width`` sequences of ``width`` symbols.

    Returns each multiset's sorted symbols, one row per multiset in the lex
    order of those rows, and for each sequence, in lex order, its
    multiset's row.  The multisets grow one symbol at a time: a sequence
    of ``w`` symbols is one of ``w - 1`` symbols followed by a last one, so
    its row is a transition of its prefix's row.
    """
    columns = np.zeros((0, 1), dtype=np.int64)  # the rows, transposed
    ids = np.zeros(1, dtype=np.int64)
    symbols = np.arange(ns, dtype=np.int64)
    for w in range(1, width + 1):
        # inserting s into a sorted row r gives max(r[j-1], min(r[j], s)) at j
        below = np.concatenate([np.full((1, columns.shape[1]), -1), columns])[:, :, None]
        above = np.concatenate([columns, np.full((1, columns.shape[1]), ns)])[:, :, None]
        grown = np.maximum(below, np.minimum(above, symbols))  # (position, row, symbol)
        names = np.tensordot(_lex_places(ns, w), grown, axes=1)  # lex index of the sorted symbols
        table = np.zeros(ns**w, dtype=np.int64)
        table[names] = 1
        trans = np.cumsum(table, out=table)[names] - 1  # (row, symbol) -> grown row
        columns = np.empty((w, table[-1]), dtype=np.int64)
        columns[:, trans] = grown
        ids = trans.ravel()[(ids * ns)[:, None] + symbols].ravel()
    return columns.T.copy(), ids


def _chunk_shape(ns: int, length: int) -> tuple[int, int]:
    """(head, tail) symbols of the order build's chunks.

    A chunk is the ``ns**tail`` sequences sharing one head, contiguous in lex
    order; ``tail`` is the largest with ``ns**tail <= 2**16``, and at least 1.
    """
    tail = max([1] + [t for t in range(1, length + 1) if ns**t <= 1 << 16])
    return length - tail, tail


def _index_dtype(size: int) -> type:
    """``int32`` while it holds every lex index of ``size`` sequences, else ``int64``."""
    return np.int32 if size - 1 <= np.iinfo(np.int32).max else np.int64


def _partitions(total: int, parts: int, largest: int):
    """The partitions of ``total`` into at most ``parts`` parts of at most ``largest``, parts descending."""
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _type_classes(ns: int, length: int) -> tuple[dict[tuple[int, ...], int], np.ndarray]:
    """The type classes of the length-``length`` sequences, ranked by value.

    A class is a partition of ``length`` into at most ``ns`` parts, written
    as its counts ascending.  Returns each class's rank among the distinct
    values, and those values ascending: class ``c`` has value
    ``values[rank[c]]``, and classes of equal value share a rank.  Each value
    comes from the shared canonical scalar, called once per class, so
    independently built orderings sort on bit-identical keys.
    """
    classes = [part[::-1] for part in _partitions(length, ns, length)]
    values, ranks = np.unique([info_from_sorted_counts(c) for c in classes], return_inverse=True)
    return dict(zip(classes, ranks.tolist())), values


def _info_by_lex_index(ns: int, length: int) -> np.ndarray:
    """The class rank (see :func:`_type_classes`) of every length-``length`` sequence, in lex order.

    The ranks have the smallest unsigned dtype that holds them, ``uint8`` for
    every space within the default enumeration bound.  A sequence's class
    depends only on its multiset of symbols.  Each chunk is the ``ns**tail``
    sequences sharing one head, contiguous in lex order, so a chunk's ranks
    depend only on the head's multiset and each tail's.

    * Once per build, the classes are ranked, and the tails and the heads
      are grouped by multiset.
    * Per batch of head multisets (up to ``_STEP`` merged symbols), each is
      merged into each distinct tail multiset.  A sorted row changes value
      at a set of positions (a ``length - 1`` bit key); the runs between
      them are the row's nonzero counts, its class.  Each key's rank is
      worked out once per build.
    * Once per chunk, the ranks are copied out by each tail's multiset
      (one gather, written to every chunk with that head multiset).

    Requires ``length >= 1``.
    """
    head, tail = _chunk_shape(ns, length)
    tails, tid = _multisets(ns, tail)
    heads, hid = _multisets(ns, head)
    bits = 1 << np.arange(length - 1, dtype=np.int64)
    class_rank, values = _type_classes(ns, length)
    dtype = np.min_scalar_type(values.size - 1)

    @lru_cache(maxsize=None)
    def rank(key: int) -> int:
        ends = [j + 1 for j in range(length - 1) if key >> j & 1] + [length]
        return class_rank[tuple(sorted(b - a for a, b in zip([0, *ends], ends)))]

    codes = np.empty((hid.size, tid.size), dtype=dtype)
    groups = np.split(np.argsort(hid), np.cumsum(np.bincount(hid))[:-1])
    per = max(1, _STEP // (len(tails) * length))
    # pair p of a batch's (head, tail) multisets shifted by p*ns: one flat
    # stable sort of two sorted runs merges every pair, where a row-wise sort
    # pays per row
    shift = np.arange(per * len(tails), dtype=np.int64).reshape(per, -1, 1) * ns
    shifted_tails = (tails + shift).ravel()
    for i in range(0, len(heads), per):
        batch = heads[i : i + per]
        shifted_heads = (batch[:, None] + shift[: len(batch)]).ravel()
        merged = np.sort(np.concatenate([shifted_tails[: len(batch) * tails.size], shifted_heads]), kind="stable")
        ordered = merged.reshape(-1, length)
        keys, inverse = np.unique((ordered[:, 1:] != ordered[:, :-1]) @ bits, return_inverse=True)
        ranks = np.array([rank(key) for key in keys.tolist()], dtype=dtype)[inverse].reshape(len(batch), -1)
        for row, group in zip(ranks, groups[i : i + per]):
            codes[group] = row[tid]
    return codes.ravel()


# every caller uses one (n, n+k) pair at a time; a space at the default
# bound holds 128 MiB of (order, rank), so keep no more than that pair
@lru_cache(maxsize=2)
def _space_order(ns: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank) arrays of the (info, lex) total order on all sequences.

    ``order[r]`` is the lex index of the rank-r sequence; ``rank`` is the
    inverse permutation.  Both are ``int32`` up to 2^31 sequences (see
    :func:`_index_dtype`).  Nothing sorts the whole space: it is read from
    :func:`_info_by_lex_index`'s class ranks in blocks of lex-consecutive
    chunks (:func:`_chunk_shape`), one chunk or up to ``_STEP`` sequences,
    taken head multiset by head multiset.

    * Once per block, its classes are counted.  ``base[b, c]``, the
      sequences of lower classes plus those of class ``c`` in blocks before
      ``b``, is where block ``b``'s class-``c`` sequences start in ``order``.
    * Once per block, or once per head multiset when blocks are one chunk
      (the chunks of one head multiset hold the same ranks), a stable argsort
      of its ranks (``perm``) orders the block by class, then lex.
    * Per block, class ``c``'s segment of ``perm`` plus the block's first
      lex index is copied to ``order`` at ``base[b, c]``, and the sequence
      at place ``i`` of ``perm``, of class ``c``, gets the rank
      ``base[b, c] - (start of c in perm) + i``.
    """
    codes = _info_by_lex_index(ns, length)
    head, tail = _chunk_shape(ns, length)
    width = ns**tail
    chunks = codes.reshape(-1, width)
    _, hid = _multisets(ns, head)
    members = np.argsort(hid, kind="stable")  # chunks grouped by head multiset
    # a block is up to `step` chunks, lex-consecutive and in `members` order
    step = max(1, _STEP // width)
    runs = np.split(members, np.flatnonzero(np.diff(members) != 1) + 1)
    blocks = [(first, min(first + step, int(run[-1]) + 1)) for run in runs for first in run[::step].tolist()]
    # a one-chunk block after one of the same head multiset reuses its counts and sort
    shared = [int(hid[first]) if stop - first == 1 else None for first, stop in blocks]
    fresh = [i == 0 or multiset is None or multiset != shared[i - 1] for i, multiset in enumerate(shared)]
    classes = int(codes.max()) + 1
    counts = np.empty((len(blocks), classes), dtype=np.int64)
    for i, (first, stop) in enumerate(blocks):
        counts[i] = np.bincount(chunks[first:stop].ravel(), minlength=classes) if fresh[i] else counts[i - 1]
    in_lex = np.argsort([first for first, _ in blocks])
    earlier = np.empty_like(counts)
    earlier[in_lex] = np.cumsum(counts[in_lex], axis=0) - counts[in_lex]
    totals = counts.sum(axis=0)
    base = np.cumsum(totals) - totals + earlier
    starts = np.cumsum(counts, axis=1) - counts
    dtype = _index_dtype(codes.size)
    offsets = (base - starts).astype(dtype)
    positions = np.arange(min(step, chunks.shape[0]) * width, dtype=dtype)
    order = np.empty(codes.size, dtype=dtype)
    rank = np.empty(codes.size, dtype=dtype)
    for (first, stop), new, offset, at, sizes, froms in zip(
        blocks, fresh, offsets, base.tolist(), counts.tolist(), starts.tolist()
    ):
        if new:
            perm = np.argsort(chunks[first:stop].ravel(), kind="stable")
            in_block = perm.astype(dtype)  # for copies into order
        rank[first * width : stop * width][perm] = np.repeat(offset, sizes) + positions[: perm.size]
        for begin, size, start in zip(at, sizes, froms):
            if size:
                np.add(in_block[start : start + size], first * width, out=order[begin : begin + size])
    order.setflags(write=False)
    rank.setflags(write=False)
    return order, rank


def _seq_from_lex_index(lex: int, ns: int, length: int) -> Sequence:
    return _trusted(Sequence, _digits_from_lex(lex, ns, length), ns)


def _rerank(seq: Sequence, n: int, length: int, max_space: int) -> Sequence:
    """The length-``length`` sequence at ``seq``'s rank in the (info, lex) order.

    ``n`` is ``len(seq)``.  Raises :class:`NotInImageError` when that rank is
    ``ns**length`` or more.
    """
    ns = seq.ns
    _check_space(ns, max(n, length), max_space)
    _, rank = _space_order(ns, n)
    r = int(rank[seq.symbols @ _lex_places(ns, n)])
    if r >= ns**length:
        raise NotInImageError("not in image")
    order, _ = _space_order(ns, length)
    return _trusted(Sequence, order[r] // _lex_places(ns, length) % ns, ns)


def transform_exact_sorted(seq: Sequence, k: int = 1, max_space: int = DEFAULT_MAX_SPACE) -> Sequence:
    """Map ``seq`` to the equally-ranked sequence of the length-(N+k) order.

    Rank r in the source order (information content ascending, lexicographic
    within ties) goes to rank r in the target order, so the image is exactly
    the ns^N cheapest-to-describe sequences of the longer space.
    """
    _check_k(k)
    n = len(seq)
    if n == 0:
        raise ValueError("cannot shape an empty sequence")
    return _rerank(seq, n, n + k, max_space)


def inverse_exact_sorted(seq: Sequence, k: int = 1, max_space: int = DEFAULT_MAX_SPACE) -> Sequence:
    """Invert :func:`transform_exact_sorted`; raises outside the image."""
    _check_k(k)
    n = len(seq)
    if n <= k:
        raise ValueError(f"shaped sequence must be longer than k={k}, got length {n}")
    return _rerank(seq, n, n - k, max_space)


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
