import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqshape import (
    DigitStream,
    RankState,
    Sequence,
    SourceSpec,
    from_digits,
    rank_of_symbol,
    sample,
    symbol_of_rank,
    to_digits,
)

from conftest import seq
from reference_impl import ref_bubble_comparisons, ref_from_digits, ref_to_digits


def stream(digits, ns):
    return DigitStream(digits=np.asarray(digits, dtype=np.int64), ns=ns)


def random_sequences(max_ns=64, max_len=200):
    return st.integers(2, max_ns).flatmap(
        lambda ns: st.tuples(
            st.just(ns), st.lists(st.integers(0, ns - 1), min_size=1, max_size=max_len)
        )
    )


@st.composite
def codec_inputs(draw, max_ns=64, max_len=500, min_len=1):
    """Uniform, skewed (one favored symbol) or cyclic-ramp symbol lists."""
    ns = draw(st.integers(2, max_ns))
    length = draw(st.integers(min_len, max_len))
    kind = draw(st.sampled_from(["uniform", "skewed", "ramp"]))
    if kind == "ramp":
        start = draw(st.integers(0, ns - 1))
        return ns, [(start + i) % ns for i in range(length)]
    seed = draw(st.integers(0, 2**32 - 1))
    pmax = 1.0 / ns if kind == "uniform" else draw(st.floats(0.3, 0.95))
    return ns, sample(SourceSpec(ns=ns, n=length, pmax=pmax), seed, 0).symbols.tolist()


def check_against_reference(symbols, ns):
    symbols = list(symbols)
    enc, dec = RankState(ns), RankState(ns)
    digits = to_digits(seq(symbols, ns), enc).digits.tolist()
    decoded = from_digits(stream(symbols, ns), dec).symbols.tolist()
    assert tuple(digits) == ref_to_digits(symbols, ns)
    assert tuple(decoded) == ref_from_digits(tuple(symbols), ns)
    assert enc.counts == [symbols.count(a) for a in range(ns)]
    assert enc.comparisons == ref_bubble_comparisons(symbols, ns)
    assert dec.comparisons == ref_bubble_comparisons(decoded, ns)


class TestRankQueries:
    def test_identity_order_at_start(self):
        state = RankState(3)
        assert rank_of_symbol(state, 2) == 2
        assert symbol_of_rank(state, 2) == 2

    def test_tie_goes_to_smaller_id(self):
        state = RankState.from_counts((1, 0, 1))
        assert rank_of_symbol(state, 0) == 0
        assert symbol_of_rank(state, 0) == 0

    def test_higher_count_outranks_smaller_id(self):
        state = RankState.from_counts((0, 1))
        assert rank_of_symbol(state, 0) == 1
        assert symbol_of_rank(state, 0) == 1

    def test_out_of_range(self):
        state = RankState(3)
        with pytest.raises(ValueError):
            rank_of_symbol(state, 3)
        with pytest.raises(ValueError):
            symbol_of_rank(state, -1)
        with pytest.raises(ValueError):
            RankState.from_counts((1, -1))

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=12))
    def test_queries_are_inverse_bijections(self, counts):
        state = RankState.from_counts(counts)
        ns = len(counts)
        ranks = [rank_of_symbol(state, a) for a in range(ns)]
        assert sorted(ranks) == list(range(ns))
        for a in range(ns):
            assert symbol_of_rank(state, ranks[a]) == a

    @given(st.lists(st.integers(0, 20), min_size=2, max_size=10))
    def test_order_key_is_count_desc_then_id(self, counts):
        state = RankState.from_counts(counts)
        order = [symbol_of_rank(state, d) for d in range(len(counts))]
        keys = [(-counts[a], a) for a in order]
        assert keys == sorted(keys)

    @given(st.lists(st.integers(0, 20), min_size=2, max_size=10),
           st.lists(st.integers(0, 9), min_size=1, max_size=50))
    def test_advance_preserves_order_invariant(self, counts, updates):
        state = RankState.from_counts(counts)
        ns = len(counts)
        for u in updates:
            state.advance(u % ns)
            order = [symbol_of_rank(state, d) for d in range(ns)]
            keys = [(-state.counts[a], a) for a in order]
            assert keys == sorted(keys)


class TestDigitCodec:
    def test_constant_zero_stays_zero(self):
        assert to_digits(seq([0, 0, 0], 3)) == stream([0, 0, 0], 3)

    def test_mode_drops_to_rank_zero(self):
        assert to_digits(seq([2, 2, 2], 3)) == stream([2, 0, 0], 3)

    def test_tie_resolution(self):
        assert to_digits(seq([0, 1, 1], 2)) == stream([0, 1, 1], 2)

    def test_decode_examples(self):
        assert from_digits(stream([0, 0, 0], 3)) == seq([0, 0, 0], 3)
        assert from_digits(stream([2, 0, 0], 3)) == seq([2, 2, 2], 3)
        assert from_digits(stream([0, 2, 0, 0], 3)) == seq([0, 2, 0, 0], 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            to_digits(seq([], 3))
        with pytest.raises(ValueError):
            from_digits(stream([], 3))

    def test_state_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            to_digits(seq([0], 3), RankState(2))
        with pytest.raises(ValueError):
            from_digits(stream([0], 3), RankState(2))

    def test_out_of_range_digit(self):
        with pytest.raises(ValueError):
            stream([0, 3], 3)

    @given(random_sequences())
    def test_round_trip_encode_decode(self, data):
        ns, symbols = data
        s = seq(symbols, ns)
        assert from_digits(to_digits(s)) == s

    @given(random_sequences())
    def test_round_trip_decode_encode(self, data):
        ns, digits = data
        d = stream(digits, ns)
        assert to_digits(from_digits(d)) == d

    @given(random_sequences(max_ns=8, max_len=40))
    def test_matches_reference_codec(self, data):
        ns, symbols = data
        assert tuple(to_digits(seq(symbols, ns)).digits.tolist()) == ref_to_digits(symbols, ns)
        assert tuple(from_digits(stream(symbols, ns)).symbols.tolist()) == ref_from_digits(
            tuple(symbols), ns
        )

    @pytest.mark.parametrize("ns,length", [(2, 7), (3, 7), (4, 6)])
    def test_exhaustive_bijection_onto_digit_space(self, ns, length):
        space = list(itertools.product(range(ns), repeat=length))
        encoded = {tuple(to_digits(seq(s, ns)).digits.tolist()) for s in space}
        assert len(encoded) == len(space)
        assert encoded == set(space)

    def test_long_random_round_trips(self):
        rng = np.random.default_rng(777)
        for _ in range(12):
            ns = int(rng.integers(2, 65))
            length = int(rng.integers(1, 10_001))
            from seqshape import Sequence

            s = Sequence(symbols=rng.integers(0, ns, size=length), ns=ns)
            assert from_digits(to_digits(s)) == s


class TestKeyListAgainstReference:
    @pytest.mark.parametrize("ns", [2, 3, 4])
    def test_exhaustive_up_to_length_6(self, ns):
        for length in range(1, 7):
            for symbols in itertools.product(range(ns), repeat=length):
                check_against_reference(symbols, ns)

    @given(codec_inputs())
    def test_long_uniform_skewed_and_ramp_inputs(self, data):
        check_against_reference(data[1], data[0])

    @given(codec_inputs(max_len=300, min_len=2), st.data())
    def test_state_consumed_in_place_across_two_calls(self, inputs, data):
        ns, symbols = inputs
        cut = data.draw(st.integers(1, len(symbols) - 1))
        whole, split = RankState(ns), RankState(ns)
        expected = to_digits(seq(symbols, ns), whole)
        head = to_digits(seq(symbols[:cut], ns), split)
        tail = to_digits(seq(symbols[cut:], ns), split)
        assert head.digits.tolist() + tail.digits.tolist() == expected.digits.tolist()
        assert (split.counts, split.comparisons) == (whole.counts, whole.comparisons)
        whole, split = RankState(ns), RankState(ns)
        from_digits(expected, whole)
        decoded = from_digits(head, split).symbols.tolist() + from_digits(tail, split).symbols.tolist()
        assert decoded == symbols
        assert (split.counts, split.comparisons) == (whole.counts, whole.comparisons)

    @given(codec_inputs(max_len=200))
    def test_from_counts_answers_like_an_advanced_state(self, data):
        ns, symbols = data
        advanced = RankState(ns)
        for symbol in symbols:
            advanced.advance(symbol)
        assert advanced.comparisons == ref_bubble_comparisons(symbols, ns)
        rebuilt = RankState.from_counts(advanced.counts)
        assert [rebuilt.rank_of(a) for a in range(ns)] == [advanced.rank_of(a) for a in range(ns)]
        assert [rebuilt.symbol_at(r) for r in range(ns)] == [advanced.symbol_at(r) for r in range(ns)]


def assert_as_if_checked(built, public, field):
    """``built`` equals ``public``, a publicly constructed twin, and stores the same kind of array."""
    assert type(built) is type(public) and built == public
    values = getattr(built, field)
    assert values.dtype == np.int64 and values.ndim == 1 and not values.flags.writeable


class TestUncheckedOutputs:
    """The codec's and the order's outputs skip the construction checks; nothing public does."""

    def test_public_construction_has_no_way_around_the_checks(self):
        assert list(inspect.signature(Sequence).parameters) == ["symbols", "ns"]
        assert list(inspect.signature(DigitStream).parameters) == ["digits", "ns"]
        with pytest.raises(ValueError, match=r"symbol out of range \[0, 3\)"):
            Sequence(symbols=[0, 3], ns=3)
        with pytest.raises(ValueError, match=r"digit out of range \[0, 3\)"):
            DigitStream(digits=[0, 3], ns=3)
        with pytest.raises(TypeError, match="digits must be integers"):
            DigitStream(digits=[0.5], ns=3)

    @given(codec_inputs())
    def test_codec_outputs_equal_checked_construction(self, data):
        ns, symbols = data
        digits = to_digits(seq(symbols, ns))
        assert_as_if_checked(digits, stream(digits.digits.tolist(), ns), "digits")
        decoded = from_digits(stream(symbols, ns))
        assert_as_if_checked(decoded, seq(decoded.symbols.tolist(), ns), "symbols")

    @pytest.mark.parametrize("ns,length", [(2, 6), (3, 4), (5, 2)])
    def test_sequences_from_lex_indices_equal_checked_construction(self, ns, length):
        from seqshape import shaping

        for lex, symbols in enumerate(itertools.product(range(ns), repeat=length)):
            assert_as_if_checked(shaping._seq_from_lex_index(lex, ns, length), seq(symbols, ns), "symbols")


class TestDigitConcentration:
    def test_digit_zero_dominates_on_skewed_source(self):
        spec = SourceSpec(ns=40, n=400, pmax=0.5)
        totals = np.zeros(40, dtype=np.int64)
        for trial in range(1000):
            digits = to_digits(sample(spec, 20250601, trial))
            totals += np.bincount(digits.digits, minlength=40)
        assert totals.argmax() == 0
        assert all(totals[0] > totals[d] for d in range(1, 40))


class TestComplexityContract:
    @pytest.mark.parametrize("ns,length", [(4, 500), (30, 2000), (64, 2000)])
    def test_bounded_order_evaluations_random(self, ns, length):
        rng = np.random.default_rng(ns * 1000 + length)
        from seqshape import Sequence

        s = Sequence(symbols=rng.integers(0, ns, size=length), ns=ns)
        state = RankState(ns)
        to_digits(s, state)
        assert state.comparisons <= 2 * length * ns + ns

    def test_bounded_order_evaluations_adversarial(self):
        # descending round-robin maximizes tie churn
        ns, reps = 16, 200
        pattern = list(range(ns - 1, -1, -1)) * reps
        state = RankState(ns)
        to_digits(seq(pattern, ns), state)
        assert state.comparisons <= 2 * len(pattern) * ns + ns

    def test_decoder_shares_the_bound(self):
        rng = np.random.default_rng(5)
        digits = stream(rng.integers(0, 12, size=3000), 12)
        state = RankState(12)
        from_digits(digits, state)
        assert state.comparisons <= 2 * 3000 * 12 + 12
