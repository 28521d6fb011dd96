"""Seeded generation of skewed i.i.d. test sequences.

The source model gives one favored symbol (the highest id, ns-1) probability
``pmax`` and spreads the remainder uniformly over the other ns-1 symbols.
Every trial draws from its own substream derived from (master seed, trial
index), so experiments are reproducible bit for bit regardless of how trials
are scheduled across workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import Sequence, _check_ns

__all__ = ["SourceSpec", "probabilities", "trial_rng", "sample"]

_MASTER_SEED_MAX = 2**64


@dataclass(frozen=True)
class SourceSpec:
    """Alphabet size, sequence length, and the favored symbol's probability."""

    ns: int
    n: int
    pmax: float

    def __post_init__(self):
        _check_ns(self.ns)
        if self.n < 1:
            raise ValueError(f"sequence length must be >= 1, got {self.n}")
        if not 0.0 < self.pmax < 1.0:
            raise ValueError(f"pmax must lie strictly inside (0, 1), got {self.pmax}")


def probabilities(spec: SourceSpec) -> np.ndarray:
    """The source's probability vector: pmax on symbol ns-1, uniform elsewhere."""
    p = np.full(spec.ns, (1.0 - spec.pmax) / (spec.ns - 1), dtype=np.float64)
    p[spec.ns - 1] = spec.pmax
    return p


def _check_master_seed(seed: int) -> int:
    if not 0 <= int(seed) < _MASTER_SEED_MAX:
        raise ValueError(f"master seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic PCG64 substream for one (master seed, trial index) pair."""
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.random.default_rng(np.random.SeedSequence([_check_master_seed(seed), int(trial)]))


def sample(spec: SourceSpec, seed: int, trial: int) -> Sequence:
    """Draw one length-n i.i.d. sequence from the spec's distribution.

    Inverse-CDF sampling over the trial substream: the same (spec, seed,
    trial) triple always produces the same sequence on any platform.
    """
    rng = trial_rng(seed, trial)
    cdf = np.cumsum(probabilities(spec))
    cdf[-1] = 1.0  # guard the top bin against cumulative rounding
    u = rng.random(spec.n)
    symbols = np.searchsorted(cdf, u, side="right")
    return Sequence(symbols=symbols, ns=spec.ns)
