"""Monte Carlo measurement of shaping gain over a skewed source.

Each trial draws a sequence, measures its information content ``infc``,
shapes it, measures the shaped content ``tinfc``, scores a success when
``tinfc < infc`` strictly, and verifies the round trip back to the original.
A round-trip failure is a correctness bug, not a statistic: it aborts the run
with the offending trial index.

Trials are independent with per-trial substreams, so the same master seed
gives bitwise-identical records and summaries for any worker count.  At more
than one worker an experiment maps its trials on a process pool of at most
``trials`` workers; the rows of a Table-1 sweep share one such pool, which
the sweep shuts down before it returns or raises.  The pool machinery
(``multiprocessing``, sockets, ``subprocess``) is imported when a pool
opens, so a process that never opens one does not pay for it.
"""
from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .entropy import _check_integer, entropy_length_product
from .shaping import ShaperConfig, inverse_transform, transform
from .sources import SourceSpec, _check_master_seed, sample

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "RoundTripError",
    "TrialRecord",
    "ExperimentSummary",
    "run_experiment",
    "TABLE1_GRID",
    "TABLE1_REFERENCE",
    "sweep_table1",
    "format_table1_comparison",
    "export",
    "summary_to_dict",
    "record_to_dict",
]


class RoundTripError(RuntimeError):
    """Inverting a shaped sequence did not reproduce the original."""


@dataclass(frozen=True)
class TrialRecord:
    """Measurements of a single trial; ``dife`` is exactly ``infc - tinfc``."""

    trial: int
    infc: float
    tinfc: float
    dife: float
    success: bool
    roundtrip_ok: bool


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates over all trials of one experiment.

    ``medinfc``/``medtinfc``/``mdife`` are the arithmetic means of the
    per-trial ``infc``/``tinfc``/``dife``; ``cs2`` counts strict successes and
    ``pcs`` is that count as a percentage of ``trials``.
    """

    medinfc: float
    medtinfc: float
    mdife: float
    cs2: int
    pcs: float
    trials: int
    spec: SourceSpec
    strategy: str
    k: int
    seed: int


def _run_trial(spec: SourceSpec, cfg: ShaperConfig, seed: int, trial: int) -> TrialRecord:
    seq = sample(spec, seed, trial)
    infc = entropy_length_product(seq)
    shaped = transform(seq, cfg)
    tinfc = entropy_length_product(shaped)
    recovered = inverse_transform(shaped, cfg)
    if recovered != seq:
        raise RoundTripError(
            f"trial {trial}: recovered sequence differs from the original input"
        )
    return TrialRecord(
        trial=trial,
        infc=infc,
        tinfc=tinfc,
        dife=infc - tinfc,
        success=tinfc < infc,
        roundtrip_ok=True,
    )


def _check_counts(trials: int, workers: int) -> tuple[int, int]:
    trials = _check_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    workers = _check_integer(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return trials, workers


# the pool a Table-1 sweep opens for all its rows, set only while it runs; a
# slot rather than an argument, so that each row stays one plain
# run_experiment(spec, cfg, trials, seed, workers=...) call, which perfbench's
# table1 workload wraps
_sweep_pool: ProcessPoolExecutor | None = None


def _process_pool(workers: int) -> ProcessPoolExecutor:
    # imported here: the pool machinery costs a fresh process 15-20 ms
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_experiment(
    spec: SourceSpec,
    cfg: ShaperConfig,
    trials: int,
    seed: int,
    workers: int = 1,
) -> tuple[ExperimentSummary, list[TrialRecord]]:
    """Run ``trials`` independent shaping trials and aggregate the results.

    Aggregation always happens in trial-index order, whatever `workers` is,
    so results are reproducible bit for bit.  At more than one worker the
    trials run on the pool of the sweep in progress, if there is one, or
    else on a pool of at most ``trials`` processes opened and joined here.
    """
    trials, workers = _check_counts(trials, workers)
    seed = _check_master_seed(seed)
    if spec.ns != cfg.ns:
        raise ValueError(f"source alphabet {spec.ns} != shaper alphabet {cfg.ns}")

    # a pool forks all its workers at the first submit, whether or not there
    # are trials for them
    workers = min(workers, trials)
    if workers == 1:
        records = [_run_trial(spec, cfg, seed, t) for t in range(trials)]
    else:
        chunksize = max(1, trials // (workers * 8))
        jobs = (_run_trial, [spec] * trials, [cfg] * trials, [seed] * trials, range(trials))
        if _sweep_pool is not None:
            records = list(_sweep_pool.map(*jobs, chunksize=chunksize))
        else:
            with _process_pool(workers) as pool:
                records = list(pool.map(*jobs, chunksize=chunksize))

    infc = np.array([r.infc for r in records])
    tinfc = np.array([r.tinfc for r in records])
    dife = np.array([r.dife for r in records])
    cs2 = int(sum(r.success for r in records))
    summary = ExperimentSummary(
        medinfc=float(infc.sum() / trials),
        medtinfc=float(tinfc.sum() / trials),
        mdife=float(dife.sum() / trials),
        cs2=cs2,
        pcs=100.0 * cs2 / trials,
        trials=trials,
        spec=spec,
        strategy=cfg.strategy,
        k=cfg.k,
        seed=seed,
    )
    return summary, records


# benchmark grid: alphabet sizes at fixed length 400 and pmax 0.5, with the
# published reference success percentage and mean gain for each row
TABLE1_GRID = (30, 40, 50, 60)
TABLE1_N = 400
TABLE1_PMAX = 0.5
TABLE1_REFERENCE = {
    30: (88.0, 8.0),
    40: (89.0, 10.4),
    50: (92.0, 13.0),
    60: (95.0, 15.2),
}


def sweep_table1(
    cfg: ShaperConfig,
    trials: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> list[ExperimentSummary]:
    """Run the reference benchmark grid; ``cfg.ns`` is overridden per row.

    Each row is one :func:`run_experiment` call.  At more than one worker the
    rows share one pool of at most ``trials`` processes, opened once for the
    sweep and joined before it returns or raises.
    """
    global _sweep_pool
    trials, workers = _check_counts(trials, workers)
    summaries = []
    pool_size = min(workers, trials)
    with _process_pool(pool_size) if pool_size > 1 else nullcontext() as pool:
        _sweep_pool = pool
        try:
            for ns in TABLE1_GRID:
                spec = SourceSpec(ns=ns, n=TABLE1_N, pmax=TABLE1_PMAX)
                row_cfg = replace(cfg, ns=ns)
                summary, _ = run_experiment(spec, row_cfg, trials, seed, workers=workers)
                summaries.append(summary)
        finally:
            _sweep_pool = None
    return summaries


def format_table1_comparison(summaries: list[ExperimentSummary]) -> str:
    """Render measured success rates and gains beside the reference columns."""
    lines = [
        f"{'ns':>4} {'n':>5} {'pmax':>6} {'trials':>7} "
        f"{'pcs %':>8} {'mdife bits':>11} {'ref P_s %':>10} {'ref gain bits':>14}"
    ]
    for s in summaries:
        ref_ps, ref_gain = TABLE1_REFERENCE.get(s.spec.ns, (float("nan"), float("nan")))
        lines.append(
            f"{s.spec.ns:>4} {s.spec.n:>5} {s.spec.pmax:>6.2f} {s.trials:>7} "
            f"{s.pcs:>8.1f} {s.mdife:>11.3f} {ref_ps:>10.1f} {ref_gain:>14.1f}"
        )
    return "\n".join(lines)


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def summary_to_dict(summary: ExperimentSummary) -> dict:
    return {
        "medinfc": _sig9(summary.medinfc),
        "medtinfc": _sig9(summary.medtinfc),
        "mdife": _sig9(summary.mdife),
        "cs2": summary.cs2,
        "pcs": _sig9(summary.pcs),
        "trials": summary.trials,
        "spec": {"ns": summary.spec.ns, "n": summary.spec.n, "pmax": _sig9(summary.spec.pmax)},
        "strategy": summary.strategy,
        "k": summary.k,
        "seed": summary.seed,
    }


def record_to_dict(record: TrialRecord) -> dict:
    return {
        "trial": record.trial,
        "infc": _sig9(record.infc),
        "tinfc": _sig9(record.tinfc),
        "dife": _sig9(record.dife),
        "success": record.success,
        "roundtrip_ok": record.roundtrip_ok,
    }


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    # a spec's pmax is stored as given, and may be a numpy float32
    if isinstance(value, (float, np.floating)):
        return f"{value:.9g}"
    return str(value)


_RECORD_FIELDS = ("trial", "infc", "tinfc", "dife", "success", "roundtrip_ok")
_SUMMARY_FIELDS = (
    "medinfc", "medtinfc", "mdife", "cs2", "pcs", "trials",
    "ns", "n", "pmax", "strategy", "k", "seed",
)


def export(
    summaries: list[ExperimentSummary],
    records: list[TrialRecord] | None,
    path: str | Path,
    format: str = "json",
) -> None:
    """Write results to ``path`` as JSON or CSV.

    JSON holds one object with ``summaries`` and ``records`` lists.  CSV holds
    the per-trial records table when ``records`` is given (header-only when
    the list is empty), or the flattened summaries table otherwise.  Floats
    are serialized with 9 significant digits; booleans as ``true``/``false``.
    """
    path = Path(path)
    if format == "json":
        payload = {
            "summaries": [summary_to_dict(s) for s in summaries],
            "records": [record_to_dict(r) for r in (records or [])],
        }
        try:
            path.write_text(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        return
    if format != "csv":
        raise ValueError(f"unknown export format {format!r}; expected 'csv' or 'json'")

    try:
        with path.open("w", newline="") as out:
            writer = csv.writer(out)
            if records is not None:
                fields, rows = _RECORD_FIELDS, [vars(r) for r in records]
            else:
                # a summary's table row takes ns, n and pmax from its spec
                fields, rows = _SUMMARY_FIELDS, [{**vars(s), **vars(s.spec)} for s in summaries]
            writer.writerow(fields)
            writer.writerows([_csv_cell(row[field]) for field in fields] for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
