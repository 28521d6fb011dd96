"""Exact ground truth for small sequence spaces.

:func:`sorted_space` and :func:`validate_strategy` enumerate full spaces
outright: the sorted order, and every sequence of a source space driven
through a strategy and checked against that order.  :func:`oracle_report`
enumerates nothing: the averages an optimal shaper could reach follow from
the type classes of both spaces, one per partition of the length.  The
(information content, lexicographic) order is the one :mod:`seqshape.shaping`
builds for the ``exact-sorted`` strategy; the tests check it and the report
against an independent enumeration.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import shaping
from .entropy import _check_integer, _check_ns, info_from_sorted_counts
from .shaping import (
    DEFAULT_MAX_SPACE,
    EXACT_SORTED,
    ShaperConfig,
    inverse_transform,
    transform,
)

__all__ = [
    "SpaceDescriptor",
    "OracleReport",
    "ValidationReport",
    "space_descriptor",
    "sorted_space",
    "oracle_report",
    "validate_strategy",
]


@dataclass(frozen=True)
class SpaceDescriptor:
    """The full space of length-``length`` sequences over ``ns`` symbols."""

    ns: int
    length: int
    size: int


@dataclass(frozen=True)
class OracleReport:
    """Exact averages for optimal shaping of A^n into A^(n+k).

    ``avg_shaped_info`` averages over exactly the ns^n lowest-ordered target
    sequences; ``success_fraction`` is the fraction of ranks whose target
    sequence has strictly lower information content than the equally-ranked
    source sequence.  No sign of ``optimal_gain`` is promised: at very small n
    it is measurably negative.
    """

    ns: int
    n: int
    k: int
    avg_source_info: float
    avg_shaped_info: float
    optimal_gain: float
    success_fraction: float


@dataclass(frozen=True)
class ValidationReport:
    """Exhaustive check of one strategy over a full source space."""

    strategy: str
    ns: int
    n: int
    k: int
    size: int
    roundtrip_ok: bool
    images_distinct: bool
    image_matches_sorted_prefix: bool | None
    counterexample: str | None

    @property
    def ok(self) -> bool:
        return (
            self.roundtrip_ok
            and self.images_distinct
            and self.image_matches_sorted_prefix is not False
        )


def space_descriptor(ns: int, length: int, max_space: int = DEFAULT_MAX_SPACE) -> SpaceDescriptor:
    ns = _check_ns(ns)
    length = _check_integer(length, "length")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return SpaceDescriptor(ns=ns, length=length, size=shaping._check_space(ns, length, max_space))


def _tuples(lex: np.ndarray, ns: int, length: int) -> list[tuple[int, ...]]:
    return [tuple(row) for row in shaping._digits_from_lex(lex[:, None], ns, length).tolist()]


def sorted_space(ns: int, length: int, max_space: int = DEFAULT_MAX_SPACE) -> list[tuple[int, ...]]:
    """All length-``length`` sequences, cheapest information content first.

    Ties in information content keep lexicographic order, so the result is a
    deterministic permutation of the full enumeration.
    """
    space_descriptor(ns, length, max_space)
    order, _ = shaping._space_order(ns, length)
    return _tuples(order, ns, length)


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


def _info_runs(ns: int, length: int) -> list[tuple[float, int]]:
    """The sorted information contents of all ``ns**length`` sequences, as (value, count) runs.

    Every sequence of one type class has the same value, so the space is the
    partitions P of ``length`` into at most ``ns`` parts: P holds
    ``ns!/((ns-m)! prod mult_j!)`` count vectors (m parts, ``mult_j`` parts
    equal to j), each with ``length!/prod p_i!`` sequences (Cover 1973,
    "Enumerative source encoding").  The value comes from the same scalar the
    (info, lex) order uses, so it is bit-identical to that order's key.
    """
    runs: dict[float, int] = {}
    for part in _partitions(length, ns, length):
        labelings = math.perm(ns, len(part)) // math.prod(map(math.factorial, Counter(part).values()))
        sequences = math.factorial(length) // math.prod(map(math.factorial, part))
        value = info_from_sorted_counts(tuple(sorted(part)))
        runs[value] = runs.get(value, 0) + labelings * sequences
    return sorted(runs.items())


def _cut(runs: list[tuple[float, int]], size: int) -> list[tuple[float, int]]:
    """The runs of the ``size`` lowest values."""
    out = []
    for value, count in runs:
        if size <= 0:
            break
        out.append((value, min(count, size)))
        size -= count
    return out


def _average(runs: list[tuple[float, int]], size: int) -> float:
    """``math.fsum`` of the ``size`` values the runs hold, divided by ``size``.

    The sum is exact, rounded once to a float and then divided in float, as
    ``math.fsum(values) / size`` does; rounding ``S / size`` in one step
    would give other bits.
    """
    return float(sum(Fraction(value) * count for value, count in runs)) / size


def _successes(src: list[tuple[float, int]], tgt: list[tuple[float, int]]) -> int:
    """The ranks at which the target value is strictly below the source value.

    Both run lists cover the same ranks; between consecutive run ends of
    either list both values are constant.
    """
    src_ends = list(accumulate(count for _, count in src))
    tgt_ends = list(accumulate(count for _, count in tgt))
    successes = start = 0
    for end in sorted({*src_ends, *tgt_ends}):
        if tgt[bisect_right(tgt_ends, start)][0] < src[bisect_right(src_ends, start)][0]:
            successes += end - start
        start = end
    return successes


def oracle_report(ns: int, n: int, k: int, max_space: int = DEFAULT_MAX_SPACE) -> OracleReport:
    """Exact optimal-shaping statistics for A^n -> A^(n+k), from type-class runs.

    Only the sorted information contents matter, not which sequence holds
    each one, and every sequence of a type class has the same content: both
    spaces are summed as (value, count) runs over the partitions of the
    length (Cover 1973, "Enumerative source encoding"; the method of types),
    never enumerated.  Each average is the exact sum of the values, rounded
    once to a float, divided by ns^n: bit for bit ``math.fsum`` over the
    sorted per-sequence values divided by ns^n.  Both spaces must still lie
    within the enumeration bound ``max_space``.
    """
    shaping._check_k(k)
    space_descriptor(ns, n, max_space)
    space_descriptor(ns, n + k, max_space)
    size = ns**n
    src = _info_runs(ns, n)
    tgt = _cut(_info_runs(ns, n + k), size)
    avg_source = _average(src, size)
    avg_shaped = _average(tgt, size)
    return OracleReport(
        ns=ns,
        n=n,
        k=k,
        avg_source_info=avg_source,
        avg_shaped_info=avg_shaped,
        optimal_gain=avg_source - avg_shaped,
        success_fraction=_successes(src, tgt) / size,
    )


def validate_strategy(cfg: ShaperConfig, ns: int, n: int, max_space: int = DEFAULT_MAX_SPACE) -> ValidationReport:
    """Drive one strategy over every sequence of A^n and check its contract.

    Verifies the round trip and pairwise-distinct images for any strategy;
    for ``exact-sorted`` additionally checks that the image set is exactly the
    ns^n lowest-ordered target sequences.  The first failure is captured with
    both offending sequences spelled out.
    """
    if cfg.ns != ns:
        raise ValueError(f"config alphabet {cfg.ns} != requested alphabet {ns}")
    desc = space_descriptor(ns, n, max_space)
    if cfg.strategy == EXACT_SORTED:
        space_descriptor(ns, n + cfg.k, max_space)

    roundtrip_ok = True
    images_distinct = True
    counterexample = None
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for lex in range(desc.size):
        seq = shaping._seq_from_lex_index(lex, ns, n)
        seq_tuple = tuple(seq.symbols.tolist())
        image = transform(seq, cfg)
        image_tuple = tuple(image.symbols.tolist())
        recovered = inverse_transform(image, cfg)
        if recovered != seq:
            roundtrip_ok = False
            counterexample = (
                f"round trip failed: {seq_tuple} -> {image_tuple} -> "
                f"{tuple(recovered.symbols.tolist())}"
            )
            break
        if image_tuple in seen:
            images_distinct = False
            counterexample = (
                f"images collide: {seen[image_tuple]} and {seq_tuple} both map to {image_tuple}"
            )
            break
        seen[image_tuple] = seq_tuple

    image_matches = None
    if cfg.strategy == EXACT_SORTED and counterexample is None:
        order, _ = shaping._space_order(ns, n + cfg.k)
        expected = set(_tuples(order[: desc.size], ns, n + cfg.k))
        image_matches = seen.keys() == expected
        if not image_matches:
            missing = sorted(expected - seen.keys())[:1]
            extra = sorted(seen.keys() - expected)[:1]
            counterexample = (
                f"image set differs from sorted prefix: missing {missing}, unexpected {extra}"
            )

    return ValidationReport(
        strategy=cfg.strategy,
        ns=ns,
        n=n,
        k=cfg.k,
        size=desc.size,
        roundtrip_ok=roundtrip_ok,
        images_distinct=images_distinct,
        image_matches_sorted_prefix=image_matches,
        counterexample=counterexample,
    )
