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
  ns^(N+K) stays within ``max_space`` (``--max-space`` on the command line),
  the largest space whose order it tabulates.

The exact-sorted order of a space is built on first use and cached as
tables that rank and unrank without listing the space (the method of types:
Cover 1973, "Enumerative source encoding").  A sequence's value depends only
on its type class, a partition of the length into at most ``ns`` parts, and
its class only on the multisets of its head (first symbols) and its tail.
So per head multiset, tables give each tail's class and its place among the
tails ordered by class, then lex; per class and head, a table gives where
that head's sequences of that class start.  A build names each head's and
tail's multiset by sorting the symbols of every head and every tail once.
A later call looks its source's head and tail up by their bytes, reads a
few table entries, and joins the bytes of the target's head and tail into
the symbols it returns.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .entropy import (
    _INT64,
    Sequence,
    _check_at_least,
    _check_integer,
    _check_ns,
    _trusted,
    _wrap,
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

# the largest space (sequences) whose exact-sorted order is tabulated, or whose
# oracle is computed, unless ``max_space`` (``--max-space``) says otherwise: it
# keeps a first call's order build in the comfortably-interactive range
DEFAULT_MAX_SPACE = 1 << 24
# how the messages about a bad bound name it
_BOUND = "max_space (the largest space tabulated or reported)"
# lex indices and their place values are int64
_MAX_LEX_INDEX = np.iinfo(np.int64).max
# symbols merged, and table entries written, per batch of an order build:
# small enough that a batch's work stays in cache
_STEP = 1 << 14


class NotInImageError(Exception):
    """The sequence lies outside the shaped subset and has no pre-image."""


class SpaceTooLargeError(ValueError):
    """ns^length exceeds ``max_space`` (``--max-space``), the largest space tabulated or reported, or the int64 lex indices."""


class RoundTripError(RuntimeError):
    """Inverting a shaped sequence did not reproduce the original.

    Raised by :mod:`seqshape.harness`, which exports it; defined here so the
    command line catches it without importing the harness.
    """


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
        # the checked Python ints are stored, so a config given numpy integers
        # still exports to JSON
        object.__setattr__(self, "ns", _check_ns(self.ns))
        object.__setattr__(self, "k", _check_k(self.k))
        object.__setattr__(self, "max_space", _check_integer(self.max_space, _BOUND))
        if self.max_space < 2:
            raise ValueError(f"{_BOUND} must be >= 2")


@dataclass(frozen=True)
class ShapingOutcome:
    """One shaped sequence together with the before/after information contents."""

    output: Sequence
    input_info: float
    output_info: float
    gain_bits: float
    success: bool


def _check_k(k: int) -> int:
    return _check_at_least(k, 1, "shaping order")


def transform_adaptive(seq: Sequence, k: int = 1) -> Sequence:
    """Shape ``seq`` by injecting ``k`` zero digits ahead of its rank digits."""
    k = _check_k(k)
    if len(seq) == 0:
        raise ValueError("cannot shape an empty sequence")
    digits = to_digits(seq)
    shaped = np.zeros(k + len(seq), dtype=np.int64)
    shaped[k:] = digits.digits
    return from_digits(_trusted(DigitStream, shaped, seq.ns))


def inverse_adaptive(seq: Sequence, k: int = 1) -> Sequence:
    """Recover the pre-image of an adaptive-rank shaped sequence.

    Raises :class:`NotInImageError` when ``seq`` was not produced by
    :func:`transform_adaptive` with this ``k``, before any decoding work.
    """
    k = _check_k(k)
    if not _in_image(seq, k):
        raise NotInImageError("not in image")
    digits = to_digits(seq)
    # a slice of a read-only array is read-only: wrapped as it is
    return from_digits(_wrap(DigitStream, digits.digits[k:], seq.ns))


def is_in_image(seq: Sequence, k: int = 1) -> bool:
    """Whether ``seq`` is reachable by the adaptive-rank shaping of order ``k``.

    The image is exactly the sequences that start with ``k`` zeros: while only
    zeros have been seen, symbol 0 ranks first, so the ``k`` injected zero
    digits decode to ``k`` zero symbols and any continuation is reachable.
    """
    return _in_image(seq, _check_k(k))


def _in_image(seq: Sequence, k: int) -> bool:
    """:func:`is_in_image` for a checked ``k``."""
    if len(seq) <= k:
        raise ValueError(f"shaped sequence must be longer than k={k}, got length {len(seq)}")
    # a list's any() is cheaper than numpy's count at the few symbols of k
    return not any(seq.symbols[:k].tolist())


def _check_space(ns: int, length: int, max_space: int) -> int:
    return _space_size(ns, length, _check_integer(max_space, _BOUND))


# every warm exact-sorted call checks its space; a refusal raises, so it is
# never cached and raises again on the next call
@lru_cache(maxsize=64)
def _space_size(ns: int, length: int, max_space: int) -> int:
    # ns >= 2, so 64 or more symbols are 2**64 or more sequences: refused
    # before the power, which alone can take seconds; below 64 symbols it has
    # at most 63 * 63 bits
    if length >= 64 or (size := ns**length) - 1 > _MAX_LEX_INDEX:
        raise SpaceTooLargeError(
            f"{ns}^{length} sequences: the largest lex index exceeds the int64 lex-index limit {_MAX_LEX_INDEX}"
        )
    if size > max_space:
        raise SpaceTooLargeError(
            f"{ns}^{length} = {size} sequences exceed max_space {max_space}, the largest space tabulated or reported"
        )
    return size


def _lex_digits(ns: int, width: int) -> np.ndarray:
    """The symbols of every ``width``-symbol sequence, one ``int64`` row per sequence in lex order.

    Row ``i`` holds the base-``ns`` digits of ``i``, first symbol most
    significant, written column by column without a division.
    """
    digits = np.empty((ns**width, width), dtype=np.int64)
    for j in range(width):
        # column j holds each symbol for ns**(width-1-j) rows in turn, ns**j times over
        digits.reshape(ns**j, ns, -1, width)[:, :, :, j] = np.arange(ns)[:, None]
    return digits


def _multisets(ns: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct multisets among the ``ns**width`` sequences of ``width`` symbols.

    Returns each multiset's sorted symbols, one row per multiset in the lex
    order of those rows, and for each sequence, in lex order, its
    multiset's row.  Each sequence's sorted symbols are named by the lex
    index they spell, so the distinct names, ascending, are the rows in lex
    order, each read from the first sequence with that name.
    """
    digits = _lex_digits(ns, width)
    # the stable sort is the one the order build's merge runs: as fast at
    # these widths, and it pages in no second sort's code
    digits.sort(axis=1, kind="stable")
    names = digits @ ns ** np.arange(width - 1, -1, -1, dtype=np.int64)
    _, first, ids = np.unique(names, return_index=True, return_inverse=True)
    return digits[first], ids


def _index_dtype(size: int) -> type:
    """``int32`` while it holds every index into ``size`` entries, else ``int64``."""
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


def _type_classes(ns: int, length: int) -> tuple[dict[tuple[int, ...], int], list[float], list[int]]:
    """The type classes of the length-``length`` sequences, ranked by value.

    A class is a partition of ``length`` into at most ``ns`` parts, written
    as its counts ascending.  Returns each class's rank among the distinct
    values (equal values share a rank), the values ascending, and each
    value's number of sequences: a partition of ``m`` parts, ``mult_j`` of
    them equal to ``j``, labels ``ns!/((ns-m)! prod mult_j!)`` count vectors
    of ``length!/prod p_i!`` sequences each.  Each value comes from the
    canonical scalar, once per class, so independently built orderings sort
    on bit-identical keys.
    """
    value_of, sizes = {}, {}
    for part in _partitions(length, ns, length):
        value = value_of[part[::-1]] = info_from_sorted_counts(part[::-1])
        labelings = math.perm(ns, len(part)) // math.prod(map(math.factorial, map(part.count, set(part))))
        sequences = math.factorial(length) // math.prod(map(math.factorial, part))
        sizes[value] = sizes.get(value, 0) + labelings * sequences
    values = sorted(sizes)
    rank = {value: r for r, value in enumerate(values)}
    return {c: rank[value] for c, value in value_of.items()}, values, [sizes[value] for value in values]


def _split(ns: int, length: int, values: int) -> int:
    """The head width of :func:`_space_order`'s tables: the least table and merge work.

    ``M(w)`` multisets of ``w`` symbols give ``M(head) * ns**tail`` class and
    place entries, ``values * ns**head`` starts, ``head * ns**head + tail *
    ns**tail`` digits and ``M(head) * M(tail) * length`` merged symbols.
    Raises :class:`MemoryError` when the build's estimated bytes exceed
    physical memory.  The estimate is what the build holds when it returns
    plus the largest of its passing peaks, which never coexist.  It holds
    the three entry tables (a class byte or two and two indices per entry),
    24 bytes per start (the counts per head, ``base`` and ``start``), 8 per
    digit, 176 per sequence of either side (its multiset id, its digit row's
    bytes object, its entry in the lookup dicts the first rank builds and,
    for a head, its row's int) and 64 per element of the last batch's work
    arrays.  Its passing peaks are 8 more bytes per start, or one side's
    :func:`_multisets` (8 per digit and 56 per sequence).
    """

    def sizes(head: int) -> tuple[int, int, int, int]:
        tail = length - head
        heads, tails = math.comb(head + ns - 1, head), math.comb(tail + ns - 1, tail)
        return heads * ns**tail, values * ns**head, head * ns**head + tail * ns**tail, heads * tails * length

    head = min(range(length + 1), key=lambda head: sum(sizes(head)))
    tail = length - head
    entries, starts, digits, _ = sizes(head)
    width, tails = ns**tail, math.comb(tail + ns - 1, tail)
    per_entry = np.min_scalar_type(values - 1).itemsize + 2 * np.dtype(_index_dtype(width)).itemsize
    held = per_entry * entries + 24 * starts + 8 * digits + 176 * (ns**head + width)
    held += 64 * (_STEP + width + tails * length)
    estimate = held + max(8 * starts, *((8 * w + 56) * ns**w for w in (head, tail)))
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if estimate > memory:
        raise MemoryError(f"the exact-sorted order of {ns}^{length} sequences needs about {estimate:.3g} bytes, "
                          f"more than the {memory:.3g} bytes of physical memory")
    return head


@dataclass(frozen=True, eq=False)
class _Tables:
    """The (info, lex) order of one space of ``ns``-symbol sequences, factored over heads and tails.

    Lex index ``h * tail_size + t`` has head ``h`` and tail ``t``; head ``h``'s
    multiset owns the row of the flat tables ``cls``, ``tails`` and ``pos``
    starting at ``rows[h]``.  For ``i = rows[h] + t`` and ``H = len(rows)``:
    ``cls[i]`` is the class rank (see :func:`_type_classes`) of ``(h, t)``; a
    row of ``tails`` lists its tails by class, then lex, and ``pos[i]`` is
    ``t``'s place there; ``base[v * H + h]`` (never decreasing) is where head
    ``h``'s class-``v`` sequences start in the order, and ``start[v * H + h]``
    is that less the place of the row's first class-``v`` tail.  So ``(h, t)``
    has rank ``start[cls[i] * H + h] + pos[i]``.  ``head_digits[h]`` and
    ``tail_digits[t]`` are their symbols as native ``int64`` bytes, and the
    first rank keys ``h`` and ``t`` by those bytes.  A warm call makes a few
    lookups, where numpy's per-call cost would dominate, so they read Python
    ints and bytes from dicts, lists and memoryviews of read-only arrays.
    """

    ns: int
    tail_size: int
    rows: list[int]
    cls: memoryview
    tails: memoryview
    pos: memoryview
    base: memoryview
    start: memoryview
    head_digits: list[bytes]
    tail_digits: list[bytes]

    @cached_property
    def _index(self) -> tuple[int, dict[bytes, int], dict[bytes, int]]:
        """Where a sequence's bytes split, and each head's and tail's index keyed by its bytes.

        Built by the first rank, so a table only ever unranked (a transform's
        target) holds no dicts.
        """
        heads, tails = self.head_digits, self.tail_digits
        return len(heads[0]), dict(zip(heads, range(len(heads)))), dict(zip(tails, range(len(tails))))

    def rank(self, symbols: bytes) -> int:
        """The rank of the sequence whose symbols are the native ``int64`` bytes ``symbols``."""
        cut, heads, tails = self._index
        h = heads[symbols[:cut]]
        i = self.rows[h] + tails[symbols[cut:]]
        return self.start[self.cls[i] * len(self.rows) + h] + self.pos[i]

    def unrank(self, r: int) -> Sequence:
        """The rank-``r`` sequence; its symbols are a read-only ``int64`` array."""
        j = bisect_right(self.base, r) - 1
        h = j % len(self.rows)
        t = self.tails[self.rows[h] + r - self.start[j]]
        # frombuffer of bytes is read-only int64, and a table's symbols are
        # in [0, ns): wrapped as it is, without the constructor's copy
        return _wrap(Sequence, np.frombuffer(self.head_digits[h] + self.tail_digits[t], _INT64), self.ns)

    def class_ranks(self) -> np.ndarray:
        """The class rank of every sequence, in lex order: ``O(ns**length)`` memory."""
        return np.asarray(self.cls)[np.add.outer(self.rows, range(self.tail_size))].ravel()


def _digit_rows(ns: int, width: int) -> list[bytes]:
    """The symbols of each ``width``-symbol sequence, in lex order, as native ``int64`` bytes."""
    if not width:
        return [b""]
    # viewed as one void item per row, tolist gives one bytes object per row
    return _lex_digits(ns, width).view(f"V{8 * width}").ravel().tolist()


# every caller uses one (n, n+k) pair at a time
@lru_cache(maxsize=2)
def _space_order(ns: int, length: int) -> _Tables:
    """The tables (see :class:`_Tables`) of the (info, lex) total order on all sequences.

    :func:`_split` picks the head width, or refuses a build that cannot fit,
    and the heads and tails are grouped by multiset (:func:`_multisets`, one
    sort of every head's or tail's symbols).
    Per batch of head multisets (up to ``_STEP`` merged symbols and table
    entries), each is merged into each distinct tail multiset: a sorted
    row's change positions form a ``length - 1`` bit key, its runs are its
    class, and each key is ranked once per build.  The ranks are gathered
    by each tail's multiset into ``cls``, argsorted row by row into
    ``tails`` and ``pos`` and counted by class; cumulative sums of the
    counts give ``base`` and ``start``.  Each head's and tail's symbols are
    kept as bytes (:func:`_digit_rows`), one view of one digit matrix per
    side.  Requires ``length >= 1``.
    """
    class_rank, values, _ = _type_classes(ns, length)
    head = _split(ns, length, len(values))
    tail_sets, tid = _multisets(ns, length - head)
    head_sets, hid = _multisets(ns, head)
    bits = 1 << np.arange(length - 1, dtype=np.int64)

    @lru_cache(maxsize=None)
    def rank(key: int) -> int:
        ends = [j + 1 for j in range(length - 1) if key >> j & 1] + [length]
        return class_rank[tuple(sorted(b - a for a, b in zip([0, *ends], ends)))]

    rows, width, classes = len(head_sets), tid.size, len(values)
    cls = np.empty(rows * width, dtype=np.min_scalar_type(classes - 1))
    tails = np.empty(rows * width, dtype=_index_dtype(width))
    pos = np.empty_like(tails)
    counts = np.empty((rows, classes), dtype=np.int64)
    per = max(1, min(_STEP // (len(tail_sets) * length), _STEP // width))
    starts = np.arange(0, rows * width, width)[:, None]
    places = np.tile(np.arange(width, dtype=tails.dtype), per)
    # pair p of a batch's (head, tail) multisets shifted by p*ns: one flat
    # stable sort of a few sorted runs (the tails, then each head position
    # across the pairs) merges every pair, where a row-wise sort pays per row
    shift = np.arange(per * len(tail_sets), dtype=np.int64).reshape(per, -1) * ns
    shifted_tails = (tail_sets + shift[:, :, None]).ravel()
    # change flags as 0/1 int64: their matmul with the bit weights is exact and
    # about twice as fast as a bool matmul
    changed = np.zeros(per * len(tail_sets) * length, dtype=np.int64)
    for i in range(0, rows, per):
        batch = head_sets[i : i + per]
        n, at = len(batch), slice(i * width, (i + len(batch)) * width)
        shifted_heads = (batch.T[:, :, None] + shift[:n]).ravel()
        merged = np.sort(np.concatenate([shifted_tails[: n * tail_sets.size], shifted_heads]), kind="stable")
        np.not_equal(merged[1:], merged[:-1], out=changed[: merged.size - 1], casting="unsafe")
        keys, inverse = np.unique(changed[: merged.size].reshape(-1, length)[:, :-1] @ bits, return_inverse=True)
        ranks = np.array([rank(key) for key in keys.tolist()], dtype=cls.dtype)[inverse].reshape(n, -1)
        block = np.take(ranks, tid, axis=1, out=cls[at].reshape(n, width))
        sort = np.argsort(block, axis=1, kind="stable")
        tails[at] = sort.ravel()
        sort += starts[i : i + n]
        pos[sort.ravel()] = places[: n * width]
        flat = (block + np.arange(0, n * classes, classes)[:, None]).ravel()
        counts[i : i + n] = np.bincount(flat, minlength=n * classes).reshape(-1, classes)
    # class-major, so each prefix sum holds every sequence of lower value
    per_head = counts.T[:, hid].ravel()
    base = np.cumsum(per_head) - per_head
    start = base - (np.cumsum(counts, axis=1) - counts).T[:, hid].ravel()
    for array in (cls, tails, pos, base, start):
        array.setflags(write=False)
    views = (memoryview(array) for array in (cls, tails, pos, base, start))
    return _Tables(ns, width, (hid * width).tolist(), *views, _digit_rows(ns, head), _digit_rows(ns, length - head))


def _rerank(seq: Sequence, n: int, length: int, max_space: int) -> Sequence:
    """The length-``length`` sequence at ``seq``'s rank in the (info, lex) order.

    ``n`` is ``len(seq)``.  Raises :class:`NotInImageError` when that rank is
    ``ns**length`` or more.
    """
    ns = seq.ns
    _check_space(ns, max(n, length), max_space)
    r = _space_order(ns, n).rank(seq.symbols.tobytes())
    if r >= ns**length:
        raise NotInImageError("not in image")
    return _space_order(ns, length).unrank(r)


def transform_exact_sorted(seq: Sequence, k: int = 1, max_space: int = DEFAULT_MAX_SPACE) -> Sequence:
    """Map ``seq`` to the equally-ranked sequence of the length-(N+k) order.

    Rank r in the source order (information content ascending, lexicographic
    within ties) goes to rank r in the target order, so the image is exactly
    the ns^N cheapest-to-describe sequences of the longer space.
    """
    k = _check_k(k)
    n = len(seq)
    if n == 0:
        raise ValueError("cannot shape an empty sequence")
    return _rerank(seq, n, n + k, max_space)


def inverse_exact_sorted(seq: Sequence, k: int = 1, max_space: int = DEFAULT_MAX_SPACE) -> Sequence:
    """Invert :func:`transform_exact_sorted`; raises outside the image."""
    k = _check_k(k)
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
