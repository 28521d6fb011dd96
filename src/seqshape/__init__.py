"""Bijective length-increasing sequence shaping.

A shaping function maps every sequence of length N over a finite alphabet to
a distinct sequence of length N+K over the same alphabet, restricting the
longer space to a structured subset.  This package provides the transforms,
bit-exact empirical information measurement, an exhaustive small-space
oracle, seeded skewed sources, and a reproducible Monte Carlo harness,
plus the ``sst`` command line on top of them.

Each public name is imported from its module on first use (PEP 562), so a
fresh process loads only the modules it touches: ``from seqshape import
Sequence, shaping`` loads ``entropy``, ``rankcodec`` and ``shaping``, and
neither the harness nor the oracle.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_MODULE_OF = {
    name: module
    for module, names in (
        (
            "entropy",
            (
                "Histogram",
                "Sequence",
                "entropy_length_product",
                "entropy_length_product_from_counts",
                "histogram",
                "info_from_sorted_counts",
            ),
        ),
        (
            "harness",
            (
                "ExperimentSummary",
                "RoundTripError",
                "TABLE1_GRID",
                "TABLE1_REFERENCE",
                "TrialRecord",
                "export",
                "format_table1_comparison",
                "record_to_dict",
                "run_experiment",
                "summary_to_dict",
                "sweep_table1",
            ),
        ),
        (
            "oracle",
            (
                "OracleReport",
                "SpaceDescriptor",
                "ValidationReport",
                "oracle_report",
                "sorted_space",
                "space_descriptor",
                "validate_strategy",
            ),
        ),
        (
            "rankcodec",
            ("DigitStream", "RankState", "from_digits", "rank_of_symbol", "symbol_of_rank", "to_digits"),
        ),
        ("seqio", ("format_sequence", "parse_sequence", "read_sequence", "write_sequence")),
        (
            "shaping",
            (
                "ADAPTIVE_RANK",
                "DEFAULT_MAX_SPACE",
                "EXACT_SORTED",
                "NotInImageError",
                "ShaperConfig",
                "ShapingOutcome",
                "SpaceTooLargeError",
                "STRATEGIES",
                "inverse_adaptive",
                "inverse_exact_sorted",
                "inverse_transform",
                "is_in_image",
                "shape_and_measure",
                "transform",
                "transform_adaptive",
                "transform_exact_sorted",
            ),
        ),
        ("sources", ("SourceSpec", "probabilities", "sample", "trial_rng")),
    )
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's module on first access and keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
