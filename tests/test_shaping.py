import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqshape import (
    ADAPTIVE_RANK,
    EXACT_SORTED,
    DigitStream,
    NotInImageError,
    Sequence,
    ShaperConfig,
    SourceSpec,
    SpaceTooLargeError,
    info_from_sorted_counts,
    inverse_adaptive,
    inverse_exact_sorted,
    inverse_transform,
    is_in_image,
    oracle_report,
    shape_and_measure,
    space_descriptor,
    transform,
    transform_adaptive,
    transform_exact_sorted,
)
from seqshape import shaping

from conftest import seq
from reference_impl import ref_exact_sorted_map, ref_inverse_adaptive, ref_transform_adaptive


def random_sequences(max_ns=64, max_len=200):
    return st.integers(2, max_ns).flatmap(
        lambda ns: st.tuples(
            st.just(ns), st.lists(st.integers(0, ns - 1), min_size=1, max_size=max_len)
        )
    )


class TestAdaptiveTransform:
    def test_constant_zero(self):
        assert transform_adaptive(seq([0, 0, 0], 3)) == seq([0, 0, 0, 0], 3)

    def test_constant_two(self):
        assert transform_adaptive(seq([2, 2, 2], 3)) == seq([0, 2, 0, 0], 3)

    def test_binary_pair(self):
        assert transform_adaptive(seq([1, 1], 2)) == seq([0, 1, 0], 2)

    def test_inverse_examples(self):
        assert inverse_adaptive(seq([0, 2, 0, 0], 3)) == seq([2, 2, 2], 3)
        assert inverse_adaptive(seq([0, 1, 0], 2)) == seq([1, 1], 2)

    def test_not_in_image(self):
        with pytest.raises(NotInImageError, match="not in image"):
            inverse_adaptive(seq([1, 0, 0], 3))

    def test_is_in_image_examples(self):
        assert is_in_image(seq([0, 0, 0, 0], 3)) is True
        assert is_in_image(seq([2, 0, 0], 3)) is False

    def test_image_fraction_exhaustive(self):
        members = [
            y for y in itertools.product(range(3), repeat=4) if is_in_image(seq(y, 3))
        ]
        assert len(members) == 27

    @pytest.mark.parametrize("ns,n,k", [(2, 2, 2), (3, 2, 2), (2, 4, 3)])
    def test_image_fraction_higher_orders(self, ns, n, k):
        members = sum(
            is_in_image(seq(y, ns), k) for y in itertools.product(range(ns), repeat=n + k)
        )
        assert members == ns**n

    @pytest.mark.parametrize("ns", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_is_in_image_matches_enumerated_image(self, ns, k):
        for n in range(1, 8 - k):
            image = {
                tuple(transform_adaptive(seq(s, ns), k).symbols.tolist())
                for s in itertools.product(range(ns), repeat=n)
            }
            for y in itertools.product(range(ns), repeat=n + k):
                assert is_in_image(seq(y, ns), k) == (y in image)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            transform_adaptive(seq([0], 2), k=0)
        with pytest.raises(ValueError):
            inverse_adaptive(seq([0], 2), k=1)  # needs length > k
        with pytest.raises(ValueError):
            is_in_image(seq([0], 2), k=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            transform_adaptive(seq([], 3))

    @given(random_sequences(), st.integers(1, 3))
    def test_round_trip(self, data, k):
        ns, symbols = data
        s = seq(symbols, ns)
        shaped = transform_adaptive(s, k)
        assert len(shaped) == len(s) + k
        assert inverse_adaptive(shaped, k) == s
        assert is_in_image(shaped, k)

    @given(random_sequences(max_ns=6, max_len=12), st.integers(1, 2))
    def test_matches_reference(self, data, k):
        ns, symbols = data
        shaped = transform_adaptive(seq(symbols, ns), k)
        assert tuple(shaped.symbols.tolist()) == ref_transform_adaptive(symbols, ns, k)

    def test_long_round_trips(self):
        rng = np.random.default_rng(31337)
        for _ in range(8):
            ns = int(rng.integers(2, 65))
            length = int(rng.integers(1, 10_001))
            s = Sequence(symbols=rng.integers(0, ns, size=length), ns=ns)
            for k in (1, 2):
                assert inverse_adaptive(transform_adaptive(s, k), k) == s

    @pytest.mark.parametrize("ns,length", [(2, 7), (3, 7), (3, 5)])
    def test_injectivity_exhaustive(self, ns, length):
        images = {
            tuple(transform_adaptive(seq(s, ns)).symbols.tolist())
            for s in itertools.product(range(ns), repeat=length)
        }
        assert len(images) == ns**length


class TestSelfVerification:
    def test_no_silent_wrong_preimage(self):
        ns, n, k = 3, 5, 1
        image = {
            tuple(transform_adaptive(seq(s, ns), k).symbols.tolist())
            for s in itertools.product(range(ns), repeat=n)
        }
        rng = np.random.default_rng(99)
        for _ in range(2000):
            y_symbols = rng.integers(0, ns, size=n + k)
            y = Sequence(symbols=y_symbols, ns=ns)
            member = tuple(y_symbols.tolist()) in image
            assert is_in_image(y, k) == member
            if member:
                recovered = inverse_adaptive(y, k)
                assert transform_adaptive(recovered, k) == y
            else:
                with pytest.raises(NotInImageError):
                    inverse_adaptive(y, k)

    def test_reference_agrees_on_membership(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            y_symbols = rng.integers(0, 4, size=6).tolist()
            y = seq(y_symbols, 4)
            expected = ref_inverse_adaptive(tuple(y_symbols), 4, 2)
            if expected is None:
                assert not is_in_image(y, 2)
            else:
                assert tuple(inverse_adaptive(y, 2).symbols.tolist()) == expected


class TestExactSortedTransform:
    def test_rank_zero(self):
        assert transform_exact_sorted(seq([0, 0], 3)) == seq([0, 0, 0], 3)

    def test_rank_two(self):
        assert transform_exact_sorted(seq([2, 2], 3)) == seq([2, 2, 2], 3)

    def test_rank_three(self):
        assert transform_exact_sorted(seq([0, 1], 3)) == seq([0, 0, 1], 3)

    def test_inverse_examples(self):
        assert inverse_exact_sorted(seq([0, 0, 0], 3)) == seq([0, 0], 3)
        assert inverse_exact_sorted(seq([0, 0, 1], 3)) == seq([0, 1], 3)

    def test_not_in_image(self):
        with pytest.raises(NotInImageError, match="not in image"):
            inverse_exact_sorted(seq([0, 1, 2], 3))

    def test_space_too_large(self):
        with pytest.raises(SpaceTooLargeError):
            transform_exact_sorted(seq([0] * 40, 3))
        with pytest.raises(SpaceTooLargeError):
            transform_exact_sorted(seq([0, 0], 3), max_space=8)

    @pytest.mark.parametrize("ns,length", [(2, 5), (3, 4), (4, 3)])
    def test_round_trip_exhaustive(self, ns, length):
        for k in (1, 2):
            for s_tuple in itertools.product(range(ns), repeat=length):
                s = seq(s_tuple, ns)
                shaped = transform_exact_sorted(s, k)
                assert len(shaped) == length + k
                assert inverse_exact_sorted(shaped, k) == s

    @pytest.mark.parametrize("ns,length,k", [(3, 2, 1), (3, 3, 1), (4, 2, 1), (2, 4, 2)])
    def test_rank_map_matches_reference(self, ns, length, k):
        expected = ref_exact_sorted_map(ns, length, k)
        for s_tuple, y_tuple in expected.items():
            shaped = transform_exact_sorted(seq(s_tuple, ns), k)
            assert tuple(shaped.symbols.tolist()) == y_tuple


class TestOrderBuild:
    def test_memory_does_not_grow_with_alphabet(self):
        # the output is 90000 floats (0.7 MiB); a per-chunk (rows x ns)
        # count matrix would take hundreds of MiB here
        tracemalloc.start()
        try:
            shaping._info_by_lex_index(300, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    @pytest.mark.parametrize("ns,length,classes", [(3, 12, 19), (300, 2, 2)])
    def test_one_canonical_call_per_type_class(self, monkeypatch, ns, length, classes):
        # partitions of 12 into at most 3 parts; of 2 into at most 300
        calls = []

        def counting(counts):
            calls.append(counts)
            return info_from_sorted_counts(counts)

        monkeypatch.setattr(shaping, "info_from_sorted_counts", counting)
        shaping._info_by_lex_index(ns, length)
        assert len(calls) == classes
        assert len(set(calls)) == classes


class TestDispatchAndConfig:
    def test_strategy_dispatch(self):
        s = seq([2, 2], 3)
        assert transform(s, ShaperConfig(ns=3)) == transform_adaptive(s)
        assert transform(s, ShaperConfig(ns=3, strategy=EXACT_SORTED)) == transform_exact_sorted(s)
        shaped = transform(s, ShaperConfig(ns=3, strategy=EXACT_SORTED))
        assert inverse_transform(shaped, ShaperConfig(ns=3, strategy=EXACT_SORTED)) == s

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            transform(seq([0], 2), ShaperConfig(ns=3))
        with pytest.raises(ValueError):
            inverse_transform(seq([0, 0], 2), ShaperConfig(ns=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShaperConfig(ns=3, strategy="mystery")
        with pytest.raises(ValueError):
            ShaperConfig(ns=1)
        with pytest.raises(ValueError):
            ShaperConfig(ns=3, k=0)
        with pytest.raises(ValueError):
            ShaperConfig(ns=3, max_space=1)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: DigitStream(digits=[0.7, 1.9, 2.5], ns=3), "digits must be integers"),
            (lambda: DigitStream(digits=[True, False], ns=2), "digits must be integers"),
            (lambda: ShaperConfig(ns=2.5), "alphabet size"),
            (lambda: ShaperConfig(ns=3, k=1.5), "shaping order"),
            (lambda: SourceSpec(ns=3.5, n=4, pmax=0.5), "alphabet size"),
            (lambda: space_descriptor(2.5, 3), "alphabet size"),
            (lambda: oracle_report(3, 2, 1.5), "shaping order"),
            (lambda: transform_adaptive(seq([0, 1], 2), 1.5), "shaping order"),
            (lambda: is_in_image(seq([0, 0, 1], 2), 1.5), "shaping order"),
        ],
        ids=[
            "float-digits", "bool-digits", "config-ns", "config-k", "source-ns",
            "descriptor-ns", "oracle-k", "transform-k", "membership-k",
        ],
    )
    def test_non_integer_inputs_rejected(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()


class TestShapeAndMeasure:
    def test_constant_input_adaptive(self):
        outcome = shape_and_measure(seq([0, 0, 0], 3), ShaperConfig(ns=3))
        assert outcome.output == seq([0, 0, 0, 0], 3)
        assert outcome.input_info == 0.0
        assert outcome.output_info == 0.0
        assert outcome.gain_bits == 0.0
        assert outcome.success is False

    def test_shifted_constant_adaptive(self):
        outcome = shape_and_measure(seq([2, 2, 2], 3), ShaperConfig(ns=3))
        assert outcome.output == seq([0, 2, 0, 0], 3)
        assert outcome.input_info == 0.0
        assert outcome.output_info == pytest.approx(4 * 2 - 3 * math.log2(3), abs=1e-9)
        assert round(outcome.output_info, 6) == 3.245112
        assert outcome.gain_bits == pytest.approx(-3.245112, abs=1e-6)
        assert outcome.success is False

    def test_exact_sorted_pair(self):
        outcome = shape_and_measure(
            seq([0, 1], 3), ShaperConfig(ns=3, strategy=EXACT_SORTED)
        )
        assert outcome.output == seq([0, 0, 1], 3)
        assert outcome.input_info == 2.0
        assert round(outcome.output_info, 6) == 2.754888
        assert outcome.success is False

    @given(random_sequences(max_ns=16, max_len=64), st.integers(1, 2))
    def test_fields_are_consistent(self, data, k):
        ns, symbols = data
        outcome = shape_and_measure(seq(symbols, ns), ShaperConfig(ns=ns, k=k))
        assert len(outcome.output) == len(symbols) + k
        assert outcome.gain_bits == outcome.input_info - outcome.output_info
        assert outcome.success == (outcome.output_info < outcome.input_info)
