"""Exhaustive ground truth for small sequence spaces.

Everything here enumerates full spaces outright: the sorted orders, the
averages an optimal shaper could reach, and strategy validation against those
orders.  The (information content, lexicographic) order is the one
:mod:`seqshape.shaping` builds for the ``exact-sorted`` strategy; the tests
check it against an independent enumeration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import shaping
from .entropy import _check_ns
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


def oracle_report(ns: int, n: int, k: int, max_space: int = DEFAULT_MAX_SPACE) -> OracleReport:
    """Exact optimal-shaping statistics for A^n -> A^(n+k) by full enumeration.

    Only the sorted information contents matter, not which sequence holds
    each one, so a plain sort of the per-sequence values stands in for the
    (info, lex) order; ``math.fsum`` makes the averages independent of the
    summation order.
    """
    shaping._check_k(k)
    space_descriptor(ns, n, max_space)
    space_descriptor(ns, n + k, max_space)
    size = ns**n
    src_infos = np.sort(shaping._info_by_lex_index(ns, n))
    tgt_infos = np.sort(shaping._info_by_lex_index(ns, n + k))[:size]
    avg_source = math.fsum(src_infos.tolist()) / size
    avg_shaped = math.fsum(tgt_infos.tolist()) / size
    successes = int(np.count_nonzero(tgt_infos < src_infos))
    return OracleReport(
        ns=ns,
        n=n,
        k=k,
        avg_source_info=avg_source,
        avg_shaped_info=avg_shaped,
        optimal_gain=avg_source - avg_shaped,
        success_fraction=successes / size,
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
