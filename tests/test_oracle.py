import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqshape.oracle as oracle_mod
from seqshape import (
    ADAPTIVE_RANK,
    EXACT_SORTED,
    ShaperConfig,
    SpaceTooLargeError,
    inverse_adaptive,
    inverse_exact_sorted,
    oracle_report,
    shaping,
    sorted_space,
    space_descriptor,
    transform_adaptive,
    transform_exact_sorted,
    validate_strategy,
)
from seqshape.cli import main

from conftest import built_info, seq
from reference_impl import ref_oracle_report, ref_sorted_space

# frozen from two independent brute-force enumerations of all 9 and 27 sequences
ORACLE_3_2_1 = {
    "avg_source_info": 4.0 / 3.0,
    "avg_shaped_info": 1.836591668108979,
    "optimal_gain": -0.5032583347756456,
    "success_fraction": 0.0,
}

ORACLE_3_4_1_HEX = ("0x1.2117ae51edf64p+2", "0x1.0daecf403c382p+2", "0x1.368df11b1be20p-2", "0x1.097b425ed097bp-1")

# float.hex of the same four fields as computed by sorting every sequence's
# value and summing with math.fsum (the benchmark's small-space pin, and the
# largest binary space the enumeration bound admits)
ORACLE_3_11_1_HEX = ("0x1.fbb95f1994866p+3", "0x1.f8bd21b884590p+3", "0x1.7e1eb08816b00p-4", "0x1.f163c76141715p-2")
# the same four fields at (8, 7): eight labels per class, and a target space
# of 8^8 = 2^24 sequences, exactly the default bound
ORACLE_8_7_1_HEX = ("0x1.e0a00e8d70db0p+3", "0x1.bdb676f626bc4p+3", "0x1.174cbcba50f60p+0", "0x1.a89b800000000p-1")
ORACLE_2_23_1_HEX = ("0x1.6430e11662d6cp+4", "0x1.6a308ced20207p+4", "-0x1.7feaf5af526c0p-2", "0x1.2205000000000p-3")


def report_hex(report):
    values = (report.avg_source_info, report.avg_shaped_info, report.optimal_gain, report.success_fraction)
    return tuple(v.hex() for v in values)


def enumerated_report_hex(ns, n, k):
    """The four fields from every sequence's value, sorted and summed with ``math.fsum``."""
    size = ns**n
    src = np.sort(built_info(ns, n))
    tgt = np.sort(built_info(ns, n + k))[:size]
    avg_source = math.fsum(src.tolist()) / size
    avg_shaped = math.fsum(tgt.tolist()) / size
    success = int(np.count_nonzero(tgt < src)) / size
    return tuple(v.hex() for v in (avg_source, avg_shaped, avg_source - avg_shaped, success))


def shapes_within(max_size):
    """Every (ns, n, k) with ns**(n + k) <= max_size."""
    return [
        (ns, n, total - n)
        for ns in range(2, math.isqrt(max_size) + 1)
        for total in range(2, max_size.bit_length())
        if ns**total <= max_size
        for n in range(1, total)
    ]


class TestSortedSpace:
    def test_constants_come_first(self):
        assert sorted_space(3, 2)[:3] == [(0, 0), (1, 1), (2, 2)]

    def test_binary_singletons(self):
        assert sorted_space(2, 1) == [(0,), (1,)]

    def test_first_nonconstant_rank(self):
        assert sorted_space(3, 3)[3] == (0, 0, 1)

    @pytest.mark.parametrize("ns,length", [(2, 6), (3, 4), (4, 3)])
    def test_is_permutation_of_full_space(self, ns, length):
        space = sorted_space(ns, length)
        assert len(space) == ns**length
        assert len(set(space)) == len(space)
        assert all(len(s) == length and all(0 <= x < ns for x in s) for s in space)

    @pytest.mark.parametrize("ns,length", [(2, 6), (3, 4), (4, 3)])
    def test_info_non_decreasing_along_order(self, ns, length):
        from seqshape import entropy_length_product

        infos = [entropy_length_product(seq(s, ns)) for s in sorted_space(ns, length)]
        assert all(b >= a - 1e-9 for a, b in zip(infos, infos[1:]))

    @pytest.mark.parametrize(
        "ns,length", [(2, 5), (3, 4), (4, 3), (5, 3), (6, 2), (9, 3), (300, 2), (2, 17)]
    )
    def test_matches_reference_enumeration(self, ns, length):
        assert sorted_space(ns, length) == ref_sorted_space(ns, length)[0]

    def test_numpy_arguments_cache_int_tables(self):
        # the tables are cached by value, so numpy arguments must not build
        # the ones a later exact-sorted call unranks from
        shaping._space_order.cache_clear()
        try:
            listed = sorted_space(np.int64(3), np.int64(3))
            back = inverse_exact_sorted(transform_exact_sorted(seq([0, 1, 2], 3)))
            assert type(back.ns) is int and back == seq([0, 1, 2], 3)
            json.dumps(back.ns)
            assert listed == sorted_space(3, 3)
        finally:
            shaping._space_order.cache_clear()

    def test_space_too_large(self):
        with pytest.raises(SpaceTooLargeError):
            sorted_space(3, 40)
        with pytest.raises(SpaceTooLargeError):
            sorted_space(3, 3, max_space=8)

    def test_descriptor(self):
        d = space_descriptor(3, 4)
        assert (d.ns, d.length, d.size) == (3, 4, 81)
        with pytest.raises(ValueError):
            space_descriptor(1, 3)
        with pytest.raises(ValueError):
            space_descriptor(3, 0)

    def test_lex_index_must_fit_int64_whatever_the_bound(self):
        unbounded = 10**30
        assert space_descriptor(2, 63, max_space=unbounded).size == 2**63
        for ns, length in ((2, 64), (3, 42)):
            with pytest.raises(SpaceTooLargeError, match="int64 lex-index limit"):
                space_descriptor(ns, length, max_space=unbounded)

    @pytest.mark.parametrize("ns,length", [(4, 3000), (4, 10000), (10**4, 10**6)])
    def test_huge_space_refused_before_its_power(self, ns, length):
        # 4^10000 - 1 has more decimal digits than Python converts to str,
        # and 10000^1000000 alone takes seconds to compute
        start = time.perf_counter()
        with pytest.raises(SpaceTooLargeError) as raised:
            oracle_report(ns, length, 1)
        assert time.perf_counter() - start < 1
        assert str(raised.value) == (
            f"{ns}^{length} sequences: the largest lex index exceeds the int64 lex-index limit 9223372036854775807"
        )


class TestOracleReport:
    def test_three_symbols_pairs(self):
        report = oracle_report(3, 2, 1)
        assert report.avg_source_info == pytest.approx(ORACLE_3_2_1["avg_source_info"], abs=1e-9)
        assert report.avg_shaped_info == pytest.approx(ORACLE_3_2_1["avg_shaped_info"], abs=1e-9)
        assert report.optimal_gain == pytest.approx(ORACLE_3_2_1["optimal_gain"], abs=1e-9)
        assert report.success_fraction == ORACLE_3_2_1["success_fraction"]

    def test_frozen_bits_three_symbols_length_four(self):
        # frozen bit for bit: any change in the order, the per-class floats
        # or the summation shows here
        report = oracle_report(3, 4, 1)
        values = (report.avg_source_info, report.avg_shaped_info, report.optimal_gain, report.success_fraction)
        assert tuple(v.hex() for v in values) == ORACLE_3_4_1_HEX

    def test_recorded_sign_is_negative_at_tiny_length(self):
        assert oracle_report(3, 2, 1).optimal_gain < 0

    def test_binary_singletons_all_zero(self):
        report = oracle_report(2, 1, 1)
        assert report.avg_source_info == 0.0
        assert report.avg_shaped_info == 0.0
        assert report.optimal_gain == 0.0

    @pytest.mark.parametrize(
        "ns,n,k",
        [(2, 1, 1), (2, 3, 1), (2, 4, 2), (3, 2, 1), (3, 3, 1), (3, 3, 2), (4, 2, 1), (4, 3, 1)],
    )
    def test_matches_independent_enumeration(self, ns, n, k):
        report = oracle_report(ns, n, k)
        avg_source, avg_shaped, gain, success = ref_oracle_report(ns, n, k)
        assert report.avg_source_info == pytest.approx(avg_source, abs=1e-9)
        assert report.avg_shaped_info == pytest.approx(avg_shaped, abs=1e-9)
        assert report.optimal_gain == pytest.approx(gain, abs=1e-9)
        assert report.success_fraction == pytest.approx(success, abs=1e-12)

    def test_shaped_average_uses_exactly_source_count_sequences(self):
        # recompute by hand from the sorted target space
        report = oracle_report(3, 2, 1)
        target = sorted_space(3, 3)
        from seqshape import entropy_length_product

        first_nine = [entropy_length_product(seq(s, 3)) for s in target[:9]]
        assert report.avg_shaped_info == pytest.approx(math.fsum(first_nine) / 9, abs=1e-9)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            oracle_report(3, 2, 0)
        with pytest.raises(SpaceTooLargeError):
            oracle_report(3, 40, 1)

    def test_bitwise_equal_to_enumeration_up_to_4096_sequences(self):
        shapes = shapes_within(4096)
        assert len(shapes) == 202
        for ns, n, k in shapes:
            assert report_hex(oracle_report(ns, n, k)) == enumerated_report_hex(ns, n, k), (ns, n, k)

    @settings(max_examples=60)
    @given(st.sampled_from(shapes_within(1 << 16)))
    def test_bitwise_equal_to_enumeration_up_to_65536_sequences(self, shape):
        ns, n, k = shape
        assert report_hex(oracle_report(ns, n, k)) == enumerated_report_hex(ns, n, k)

    def test_frozen_bits_benchmark_pin(self):
        assert report_hex(oracle_report(3, 11, 1)) == ORACLE_3_11_1_HEX

    def test_frozen_bits_at_the_default_bound(self, capsys):
        assert report_hex(oracle_report(8, 7, 1)) == ORACLE_8_7_1_HEX
        assert main(["oracle", "--ns", "8", "--len", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        fields = ("avg_source_info", "avg_shaped_info", "optimal_gain", "success_fraction")
        assert tuple(float(payload[field]).hex() for field in fields) == ORACLE_8_7_1_HEX
        with pytest.raises(SpaceTooLargeError, match=r"^8\^8 = 16777216 sequences exceed max_space 16777215, "):
            oracle_report(8, 7, 1, max_space=(1 << 24) - 1)

    def test_frozen_bits_without_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("oracle_report enumerated a space")

        monkeypatch.setattr(shaping, "_space_order", no_enumeration)
        monkeypatch.setattr(shaping, "_multisets", no_enumeration)
        assert report_hex(oracle_report(2, 23, 1)) == ORACLE_2_23_1_HEX

    def test_numpy_integers_give_the_int_report(self):
        report = oracle_report(np.int64(3), np.int64(4), np.int64(1))
        assert [type(v) for v in dataclasses.astuple(report)] == [int] * 3 + [float] * 4
        assert report == oracle_report(3, 4, 1)
        assert report_hex(report) == ORACLE_3_4_1_HEX
        json.dumps(dataclasses.asdict(report))

    def test_empty_source_rejected_before_building(self, monkeypatch):
        def no_build(ns, length):
            raise AssertionError("order built for an empty source")

        monkeypatch.setattr(oracle_mod.shaping, "_space_order", no_build)
        with pytest.raises(ValueError, match="length must be >= 1"):
            oracle_report(3, 0, 1)


class TestValidateStrategy:
    def test_exact_sorted_image_is_sorted_prefix(self):
        report = validate_strategy(ShaperConfig(ns=3, strategy=EXACT_SORTED), 3, 2)
        assert report.ok
        assert report.roundtrip_ok and report.images_distinct
        assert report.image_matches_sorted_prefix is True
        assert report.counterexample is None

    def test_adaptive_distinct_images(self):
        report = validate_strategy(ShaperConfig(ns=3), 3, 3)
        assert report.ok
        assert report.size == 27
        assert report.image_matches_sorted_prefix is None

    def test_adaptive_binary_singletons(self):
        from seqshape import transform_adaptive

        report = validate_strategy(ShaperConfig(ns=2), 2, 1)
        assert report.ok
        assert transform_adaptive(seq([0], 2)) == seq([0, 0], 2)
        assert transform_adaptive(seq([1], 2)) == seq([0, 1], 2)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            validate_strategy(ShaperConfig(ns=3), 4, 2)

    def test_target_space_refused_by_the_config_bound_before_any_transform(self, monkeypatch):
        def no_transform(s, cfg):
            raise AssertionError("transform called for a space beyond the bound")

        monkeypatch.setattr(oracle_mod, "transform", no_transform)
        cfg = ShaperConfig(ns=2, strategy=EXACT_SORTED, max_space=4)
        with pytest.raises(SpaceTooLargeError, match=r"^2\^3 = 8 sequences exceed max_space 4, the largest space tabulated or reported$"):
            validate_strategy(cfg, 2, 2)

    @pytest.mark.parametrize("strategy", [ADAPTIVE_RANK, EXACT_SORTED])
    def test_numpy_integers_give_the_int_report(self, strategy):
        cfg = ShaperConfig(ns=3, strategy=strategy)
        report = validate_strategy(cfg, np.int64(3), np.int64(3))
        assert report == validate_strategy(cfg, 3, 3)
        assert all(type(v) is int for v in (report.ns, report.n, report.k, report.size))
        json.dumps(dataclasses.asdict(report))

    def test_broken_strategy_is_reported(self, monkeypatch):
        # collapse every image to a constant: must surface a collision counterexample
        def collide(s, cfg):
            return seq([0] * (len(s) + cfg.k), cfg.ns)

        monkeypatch.setattr(oracle_mod, "transform", collide)
        monkeypatch.setattr(oracle_mod, "inverse_transform", lambda y, cfg: seq([0] * (len(y) - cfg.k), cfg.ns))
        report = validate_strategy(ShaperConfig(ns=2), 2, 2)
        assert not report.ok
        assert not (report.roundtrip_ok and report.images_distinct)
        assert report.counterexample is not None

    def test_colliding_images_are_reported(self, monkeypatch):
        # a constant transform whose inverse returns the source it last saw:
        # every round trip holds, so the second source finds the first's image
        last = []

        def constant(s, cfg):
            last[:] = [s]
            return seq([0] * (len(s) + cfg.k), cfg.ns)

        monkeypatch.setattr(oracle_mod, "transform", constant)
        monkeypatch.setattr(oracle_mod, "inverse_transform", lambda y, cfg: last[0])
        report = validate_strategy(ShaperConfig(ns=2), 2, 2)
        assert report.roundtrip_ok and not report.images_distinct and not report.ok
        assert report.counterexample == "images collide: (0, 0) and (0, 1) both map to (0, 0, 0)"

    def test_bad_inverse_is_reported(self, monkeypatch):
        def wrong_inverse(y, cfg):
            flipped = [(x + 1) % cfg.ns for x in y.symbols.tolist()[cfg.k :]]
            return seq(flipped, cfg.ns)

        monkeypatch.setattr(oracle_mod, "inverse_transform", wrong_inverse)
        report = validate_strategy(ShaperConfig(ns=2), 2, 2)
        assert not report.roundtrip_ok
        assert "round trip failed" in report.counterexample

    def test_image_off_sorted_prefix_is_reported(self, monkeypatch):
        # a true bijection whose image is not the cheapest slice of the target order
        monkeypatch.setattr(oracle_mod, "transform", lambda s, cfg: transform_adaptive(s, cfg.k))
        monkeypatch.setattr(oracle_mod, "inverse_transform", lambda y, cfg: inverse_adaptive(y, cfg.k))
        report = validate_strategy(ShaperConfig(ns=3, strategy=EXACT_SORTED), 3, 2)
        assert report.roundtrip_ok and report.images_distinct
        assert report.image_matches_sorted_prefix is False
        assert not report.ok
        assert report.counterexample.startswith("image set differs from sorted prefix")
        assert "missing [(1, 1, 1)]" in report.counterexample
        assert "unexpected [(0, 1, 2)]" in report.counterexample
