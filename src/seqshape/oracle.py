"""Exact ground truth for small sequence spaces.

:func:`sorted_space` lists a full space in its sorted order, and
:func:`validate_strategy` drives every sequence of a source space through a
strategy; for ``exact-sorted`` it then checks that the images are the
cheapest sequences of the target space by their ranks, without listing that
space.  :func:`oracle_report` enumerates nothing: the averages an optimal
shaper could reach follow from the type-class table of both spaces, the one
that ranks the classes of the (information content, lexicographic) order
:mod:`seqshape.shaping` tabulates for ``exact-sorted``; the tests check the
order and the report against an independent enumeration.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, product

import numpy as np

from . import shaping
from .entropy import Sequence, _check_at_least, _check_ns, _trusted
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
    length = _check_at_least(length, 1, "length")
    return SpaceDescriptor(ns=ns, length=length, size=shaping._check_space(ns, length, max_space))


def sorted_space(ns: int, length: int, max_space: int = DEFAULT_MAX_SPACE) -> list[tuple[int, ...]]:
    """All length-``length`` sequences, cheapest information content first.

    Ties in information content keep lexicographic order, so the result is a
    deterministic permutation of the full enumeration.  It costs
    ``O(ns**length)`` time and memory: one class rank per sequence, gathered
    from the exact-sorted order's tables, one stable argsort of them, the
    symbols of every sequence gathered by it and one tuple per sequence.
    """
    desc = space_descriptor(ns, length, max_space)
    ns, length = desc.ns, desc.length
    order = np.argsort(shaping._space_order(ns, length).class_ranks(), kind="stable")
    return list(map(tuple, shaping._lex_digits(ns, length)[order].tolist()))


def _runs(ns: int, length: int, size: int) -> tuple[list[float], list[int]]:
    """The ``size`` lowest values of a space's type-class table: each value, and where its run of ranks ends."""
    _, values, counts = shaping._type_classes(ns, length)
    ends = list(accumulate(counts))
    cut = bisect_left(ends, size)
    return values[: cut + 1], [*ends[:cut], size]


def _average(values: list[float], ends: list[int]) -> float:
    """``math.fsum`` of the values the runs hold, divided by their number.

    Each value is an integer over a power of two, so the sum is one exact
    integer over the largest of them, rounded once to a float (integer true
    division rounds correctly) and then divided in float, as
    ``math.fsum(values) / size`` does; rounding ``S / size`` in one step
    would give other bits.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(den for _, den in ratios)
    total = sum(num * (scale // den) * (end - start) for (num, den), start, end in zip(ratios, [0, *ends], ends))
    return total / scale / ends[-1]


def _successes(src_values: list[float], src_ends: list[int], tgt_values: list[float], tgt_ends: list[int]) -> int:
    """The ranks at which the target value is strictly below the source value.

    Both runs cover the same ranks; between consecutive run ends of either
    both values are constant.
    """
    successes = start = 0
    for end in sorted({*src_ends, *tgt_ends}):
        if tgt_values[bisect_right(tgt_ends, start)] < src_values[bisect_right(src_ends, start)]:
            successes += end - start
        start = end
    return successes


def oracle_report(ns: int, n: int, k: int, max_space: int = DEFAULT_MAX_SPACE) -> OracleReport:
    """Exact optimal-shaping statistics for A^n -> A^(n+k), from type-class runs.

    Only the sorted information contents matter, not which sequence holds
    each one, and every sequence of a type class has the same content: both
    spaces are summed as runs of the type-class table (Cover 1973,
    "Enumerative source encoding"; the method of types), never enumerated.
    Each average is the exact sum of the values, rounded once to a float,
    divided by ns^n: bit for bit ``math.fsum`` over the sorted per-sequence
    values divided by ns^n.  Both spaces must still lie within
    ``max_space`` (``--max-space``).
    """
    k = shaping._check_k(k)
    desc = space_descriptor(ns, n, max_space)
    ns, n, size = desc.ns, desc.length, desc.size
    space_descriptor(ns, n + k, max_space)
    src = _runs(ns, n, size)
    tgt = _runs(ns, n + k, size)
    avg_source = _average(*src)
    avg_shaped = _average(*tgt)
    return OracleReport(
        ns=ns,
        n=n,
        k=k,
        avg_source_info=avg_source,
        avg_shaped_info=avg_shaped,
        optimal_gain=avg_source - avg_shaped,
        success_fraction=_successes(*src, *tgt) / size,
    )


def validate_strategy(cfg: ShaperConfig, ns: int, n: int) -> ValidationReport:
    """Drive one strategy over every sequence of A^n and check its contract.

    Verifies the round trip and pairwise-distinct images for any strategy;
    for ``exact-sorted`` additionally checks that the image set is exactly the
    ns^n lowest-ordered target sequences: the images being distinct, that is
    every image's target rank being below ns^n.  The first failure is
    captured with both offending sequences spelled out; for the image set,
    the lex-smallest missing and unexpected sequences.  The source space, and
    for ``exact-sorted`` the target space, must lie within ``cfg.max_space``
    before any sequence is transformed.
    """
    if cfg.ns != ns:
        raise ValueError(f"config alphabet {cfg.ns} != requested alphabet {ns}")
    desc = space_descriptor(ns, n, cfg.max_space)
    ns, n, k = desc.ns, desc.length, cfg.k
    if cfg.strategy == EXACT_SORTED:
        space_descriptor(ns, n + k, cfg.max_space)

    roundtrip_ok = True
    images_distinct = True
    counterexample = None
    # each image's symbols as bytes, the key the order's tables rank by, and
    # its source's lex index
    seen: dict[bytes, int] = {}
    for lex, symbols in enumerate(product(range(ns), repeat=n)):
        seq = _trusted(Sequence, symbols, ns)
        image = transform(seq, cfg)
        image_bytes = image.symbols.tobytes()
        recovered = inverse_transform(image, cfg)
        if recovered != seq:
            roundtrip_ok = False
            counterexample = f"round trip failed: {symbols} -> {tuple(image)} -> {tuple(recovered)}"
            break
        if image_bytes in seen:
            images_distinct = False
            first = next(islice(product(range(ns), repeat=n), seen[image_bytes], None))
            counterexample = f"images collide: {first} and {symbols} both map to {tuple(image)}"
            break
        seen[image_bytes] = lex

    image_matches = None
    if cfg.strategy == EXACT_SORTED and counterexample is None:
        tables = shaping._space_order(ns, n + k)
        ranks = [tables.rank(image) for image in seen]
        image_matches = max(ranks) < desc.size
        if not image_matches:
            hit = set(ranks)
            missing = min(tuple(tables.unrank(r)) for r in range(desc.size) if r not in hit)
            extra = min(
                tuple(np.frombuffer(image, np.int64).tolist()) for image, r in zip(seen, ranks) if r >= desc.size
            )
            counterexample = (
                f"image set differs from sorted prefix: missing {[missing]}, unexpected {[extra]}"
            )

    return ValidationReport(
        strategy=cfg.strategy,
        ns=ns,
        n=n,
        k=k,
        size=desc.size,
        roundtrip_ok=roundtrip_ok,
        images_distinct=images_distinct,
        image_matches_sorted_prefix=image_matches,
        counterexample=counterexample,
    )
