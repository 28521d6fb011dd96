import copy
import dataclasses
import inspect
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqshape import (
    DigitStream,
    RankState,
    Sequence,
    SourceSpec,
    from_digits,
    inverse_adaptive,
    rank_of_symbol,
    sample,
    symbol_of_rank,
    to_digits,
    transform_adaptive,
)
from seqshape import entropy, oracle, rankcodec, shaping
from seqshape.entropy import _trusted
from seqshape.oracle import validate_strategy
from seqshape.shaping import STRATEGIES, ShaperConfig

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


def assert_same_state(state, walked):
    assert (state.counts, state._keys, state.comparisons) == (
        walked.counts,
        walked._keys,
        walked.comparisons,
    )
    assert all(type(value) is int for value in state.counts + state._keys)


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
    # the decoder rebuilds its counts from its keys: it must end where
    # encoding its output ends, from a fresh state and from given counts
    counts = [(3 * a + len(symbols)) % 5 for a in range(ns)]
    for make_state in (lambda: RankState(ns), lambda: RankState.from_counts(counts)):
        dec, reenc = make_state(), make_state()
        decoded = from_digits(stream(symbols, ns), dec)
        assert to_digits(decoded, reenc).digits.tolist() == symbols
        assert_same_state(dec, reenc)


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

    def test_alphabet_too_large_for_memory(self):
        # a list of 2**63 - 1 entries fails its size check before allocating
        ns = 2**63 - 1
        message = f"alphabet size {ns}: the rank codec keeps a key per symbol"
        with pytest.raises(MemoryError, match=message):
            to_digits(seq([0, 1], ns))
        with pytest.raises(MemoryError, match=message):
            from_digits(stream([0, 1], ns))

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


MIN_LENGTH = rankcodec._VECTOR_MIN_LENGTH
MAX_NS = rankcodec._VECTOR_MAX_NS
BLOCK = rankcodec._VECTOR_BLOCK


def skewed(ns, length, seed):
    return sample(SourceSpec(ns=ns, n=length, pmax=0.5), seed, 0).symbols.tolist()


def encode_both(symbols, ns, make_state):
    """``to_digits`` and the scalar walk from equal start states: (digits, state) each."""
    fast, slow = make_state(), make_state()
    digits = to_digits(seq(symbols, ns), fast).digits.tolist()
    return (digits, fast), (slow._walk(list(symbols)), slow)


@pytest.fixture
def vector_calls(monkeypatch):
    """The lengths ``to_digits`` hands to the vector encoder, in call order."""
    calls = []
    encode = rankcodec._encode

    def spy(symbols, ns):
        calls.append(len(symbols))
        return encode(symbols, ns)

    monkeypatch.setattr(rankcodec, "_encode", spy)
    return calls


class TestVectorEncoder:
    """The numpy encoder against the reference and the scalar walk, around every threshold."""

    @pytest.mark.parametrize(
        "ns,length,vector",
        [
            (3, 9, False),
            (30, 400, True),
            (60, 401, True),
            (MAX_NS, MIN_LENGTH, True),
            (MAX_NS, MIN_LENGTH - 1, False),
            (MAX_NS + 1, 2 * BLOCK + 1, False),
        ],
    )
    def test_size_rule(self, vector_calls, ns, length, vector):
        to_digits(seq(skewed(ns, length, 1), ns))
        assert vector_calls == ([length] if vector else [])

    @pytest.mark.parametrize("ns", [2, 30, MAX_NS, MAX_NS + 1])
    @pytest.mark.parametrize(
        "length",
        [MIN_LENGTH - 1, MIN_LENGTH, MIN_LENGTH + 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1],
    )
    def test_matches_reference_and_walk(self, ns, length):
        # with no state the long inputs over small alphabets take the vector
        # encoder; a caller's state is walked at every size
        symbols = skewed(ns, length, ns * 10_000 + length)
        digits = to_digits(seq(symbols, ns)).digits.tolist()
        assert digits == RankState(ns)._walk(list(symbols))
        assert tuple(digits) == ref_to_digits(symbols, ns)
        state = RankState(ns)
        assert to_digits(seq(symbols, ns), state).digits.tolist() == digits
        assert_reference_state(state, symbols, ns)

    @pytest.mark.parametrize("ns", [2, 30, MAX_NS, MAX_NS + 1])
    def test_from_counts_start_states(self, ns):
        counts = np.random.default_rng(ns).integers(0, 40, size=ns).tolist()
        prefix = [a for a, c in enumerate(counts) for _ in range(c)]
        symbols = skewed(ns, BLOCK + 1, ns)
        (digits, state), (walked, walked_state) = encode_both(
            symbols, ns, lambda: RankState.from_counts(counts)
        )
        assert digits == walked
        assert tuple(digits) == ref_to_digits(prefix + symbols, ns)[len(prefix):]
        assert_same_state(state, walked_state)

    @pytest.mark.parametrize("ns", [30, MAX_NS + 1])
    @pytest.mark.parametrize("short_first", [True, False])
    def test_state_consumed_by_a_short_and_a_long_call(self, ns, short_first):
        short, long = 5, BLOCK + 1
        symbols = skewed(ns, short + long, ns)
        cut = short if short_first else long
        state, walked_state = RankState(ns), RankState(ns)
        digits = (
            to_digits(seq(symbols[:cut], ns), state).digits.tolist()
            + to_digits(seq(symbols[cut:], ns), state).digits.tolist()
        )
        assert digits == walked_state._walk(list(symbols))
        assert tuple(digits) == ref_to_digits(symbols, ns)
        assert state.comparisons == ref_bubble_comparisons(symbols, ns)
        assert_same_state(state, walked_state)

    @pytest.mark.parametrize("ns", [2, 3])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_int32_key_boundary(self, monkeypatch, vector_calls, ns, past):
        # a stateless pass's keys lie in (-ns * (length + 1), ns), so int32
        # keys hold them while ns * (length + 1) is below the limit; with the
        # limit one above that product (past=-1), equal to it (0) or one
        # below it (1), only the first sends the input to the vector encoder,
        # and the digits are the same
        assert rankcodec._VECTOR_KEY_LIMIT == 2**31
        length = MIN_LENGTH
        monkeypatch.setattr(rankcodec, "_VECTOR_KEY_LIMIT", ns * (length + 1) - past)
        symbols = skewed(ns, length, ns)
        digits = to_digits(seq(symbols, ns)).digits.tolist()
        assert vector_calls == ([length] if past < 0 else [])
        assert tuple(digits) == ref_to_digits(symbols, ns)

    def test_a_callers_state_always_walks(self, vector_calls):
        symbols = skewed(30, 2 * MIN_LENGTH, 3)
        state = RankState(30)
        digits = to_digits(seq(symbols, 30), state)
        assert vector_calls == []
        assert_reference_state(state, symbols, 30)
        assert to_digits(seq(symbols, 30)) == digits
        assert vector_calls == [2 * MIN_LENGTH]
        # counts beyond int64 keys are walked too, and the decoder's recorded
        # keys are beyond int64 as well
        counts = (2**70, 0, 0)
        symbols = skewed(3, 2 * MIN_LENGTH, 3)
        (digits, state), (walked, walked_state) = encode_both(
            symbols, 3, lambda: RankState.from_counts(counts)
        )
        assert digits == walked
        assert_same_state(state, walked_state)
        assert state.counts[0] == 2**70 + symbols.count(0)
        dec = RankState.from_counts(counts)
        assert from_digits(stream(digits, 3), dec).symbols.tolist() == symbols
        assert_same_state(dec, state)
        assert vector_calls == [2 * MIN_LENGTH]


NUMPY_SYMBOLS = rankcodec._NUMPY_SYMBOLS_MIN


def assert_reference_state(state, symbols, ns):
    """``state`` is a fresh state stepped past ``symbols``, as the reference counts it."""
    counts = [symbols.count(a) for a in range(ns)]
    keys = sorted(a - c * ns for a, c in enumerate(counts))
    assert (state.counts, state._keys, state.comparisons) == (counts, keys, ref_bubble_comparisons(symbols, ns))


def assert_stateless_passes_match(values, ns, k=1):
    """Every pass with no state gives what it gives from a fresh ``RankState``.

    ``values`` serve as the symbols to encode and shape and as the digits to
    decode; the states passed in end where the reference says.
    """
    values = list(values)
    s, d = seq(values, ns), stream(values, ns)
    state = RankState(ns)
    digits = to_digits(s, state)
    assert to_digits(s) == digits
    assert_reference_state(state, values, ns)
    state = RankState(ns)
    decoded = from_digits(d, state)
    assert from_digits(d) == decoded
    assert_reference_state(state, decoded.symbols.tolist(), ns)
    padded = np.concatenate([np.zeros(k, dtype=np.int64), digits.digits])
    shaped = transform_adaptive(s, k)
    assert shaped == from_digits(stream(padded, ns), RankState(ns))
    assert inverse_adaptive(shaped, k) == s
    assert from_digits(stream(to_digits(shaped, RankState(ns)).digits[k:], ns), RankState(ns)) == s


@pytest.fixture
def states_made(monkeypatch):
    """Every ``RankState`` built while the test runs, in order."""
    made = []
    init = RankState.__init__

    def record(state, ns):
        init(state, ns)
        made.append(state)

    monkeypatch.setattr(RankState, "__init__", record)
    return made


class TestStatelessPasses:
    """A pass given no state skips the bookkeeping, and nothing it returns changes."""

    @pytest.mark.parametrize("ns,max_length", [(2, 10), (3, 7), (4, 6)])
    def test_exhaustive_small_spaces(self, ns, max_length):
        for length in range(1, max_length + 1):
            for values in itertools.product(range(ns), repeat=length):
                assert_stateless_passes_match(values, ns, k=1 + length % 2)

    @pytest.mark.parametrize("ns", [2, MAX_NS, MAX_NS + 1])
    @pytest.mark.parametrize(
        "length",
        [NUMPY_SYMBOLS - 2, NUMPY_SYMBOLS - 1, NUMPY_SYMBOLS, MIN_LENGTH - 1, MIN_LENGTH, BLOCK, BLOCK + 1],
    )
    def test_both_sides_of_every_size_rule(self, ns, length):
        # the shaped stream is one digit longer than the sequence, so the
        # decoder's numpy rule is met from both sides by length and length + 1
        assert_stateless_passes_match(skewed(ns, length, ns * 10_000 + length), ns)

    @settings(max_examples=40)
    @given(codec_inputs(max_ns=MAX_NS + 16, max_len=BLOCK + 64), st.integers(1, 3))
    def test_random_sizes(self, data, k):
        assert_stateless_passes_match(data[1], data[0], k)

    def test_no_bookkeeping_without_a_state(self, states_made):
        # the vector encoder and the decoder start from the identity keys:
        # a stateless round trip at a Table-1 size builds no RankState
        symbols = seq(skewed(40, 400, 1), 40)
        assert from_digits(to_digits(symbols)) == symbols
        assert states_made == []

    @pytest.mark.parametrize("ns,length", [(3, 9), (100, 9)])
    def test_no_bookkeeping_at_short_lengths(self, states_made, ns, length):
        # below the vector encoder's size rule a stateless encode walks the
        # identity keys alone: a short round trip, or a shaping and its
        # inverse, builds no RankState
        symbols = seq(skewed(ns, length, 1), ns)
        assert from_digits(to_digits(symbols)) == symbols
        assert inverse_adaptive(transform_adaptive(symbols)) == symbols
        assert states_made == []

    @pytest.mark.parametrize("ns,max_length", [(2, 10), (3, 7), (4, 6)])
    def test_short_encode_is_the_walk_exhaustively(self, ns, max_length):
        for length in range(1, max_length + 1):
            for values in itertools.product(range(ns), repeat=length):
                ranks = rankcodec._ranks(list(values), ns)
                assert ranks == RankState(ns)._walk(list(values))
                assert tuple(ranks) == ref_to_digits(values, ns)

    @pytest.mark.parametrize("ns", [2, MAX_NS, MAX_NS + 1])
    @pytest.mark.parametrize("length", [MIN_LENGTH - 1, MIN_LENGTH])
    def test_short_encode_around_the_size_rule(self, monkeypatch, vector_calls, ns, length):
        # to_digits with no state takes exactly one of the vector encoder
        # and the short encode, and both give the walk's digits
        short_calls = []
        ranks = rankcodec._ranks

        def spy(symbols, ns):
            short_calls.append(len(symbols))
            return ranks(symbols, ns)

        monkeypatch.setattr(rankcodec, "_ranks", spy)
        symbols = skewed(ns, length, ns * 10_000 + length)
        digits = to_digits(seq(symbols, ns)).digits.tolist()
        vector = length >= MIN_LENGTH and ns <= MAX_NS
        assert (vector_calls, short_calls) == (([length], []) if vector else ([], [length]))
        assert digits == ranks(symbols, ns) == RankState(ns)._walk(list(symbols))
        assert tuple(digits) == ref_to_digits(symbols, ns)


def assert_as_if_checked(built, public, field):
    """``built`` equals ``public``, a publicly constructed twin, and stores the same kind of array."""
    assert type(built) is type(public) and built == public
    values = getattr(built, field)
    assert values.dtype == np.int64 and values.ndim == 1 and not values.flags.writeable


def assert_behaves_as_public(built, public, field):
    """``built`` is as :func:`assert_as_if_checked` says, and behaves as ``public`` in every protocol."""
    assert_as_if_checked(built, public, field)
    for again in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert type(again) is type(built) and again == built == public
        assert not getattr(again, field).flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.ns = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, field, public)
    with pytest.raises(TypeError):
        hash(built)
    assert repr(built) == repr(public)
    size = built.__len__()
    assert type(size) is int and size == getattr(built, field).size == len(public)


def capture_from_digits(monkeypatch):
    """The streams ``shaping`` hands to ``from_digits``, collected in a list as its calls run."""
    streams = []

    def spy(stream, state=None):
        streams.append(stream)
        return from_digits(stream, state)

    monkeypatch.setattr(shaping, "from_digits", spy)
    return streams


class TestUncheckedOutputs:
    """Every value the package builds itself skips the construction checks and behaves as a public one.

    The codec's outputs, the streams the adaptive strategy passes between
    them, the order tables' unranked sequences and the oracle's source
    sequences are made by ``entropy._trusted`` or ``entropy._wrap``.  Each
    must equal, pickle, copy, refuse assignment and hashing, print and
    measure its length exactly as its publicly constructed twin; nothing
    public takes the unchecked way.
    """

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

    @pytest.mark.parametrize("ns,length", [(3, 9), (40, MIN_LENGTH - 1), (40, MIN_LENGTH), (MAX_NS + 1, MIN_LENGTH)])
    def test_encoded_streams_behave_as_public(self, vector_calls, ns, length):
        # the short encode, the vector encoder, and the short encode again
        # above the vector rule's alphabet bound
        symbols = skewed(ns, length, ns + length)
        digits = to_digits(seq(symbols, ns))
        assert vector_calls == ([length] if length >= MIN_LENGTH and ns <= MAX_NS else [])
        assert_behaves_as_public(digits, stream(ref_to_digits(symbols, ns), ns), "digits")

    @pytest.mark.parametrize("length", [1, NUMPY_SYMBOLS - 1, NUMPY_SYMBOLS, 500])
    def test_decoded_sequences_behave_as_public(self, length):
        # symbols from a list comprehension below _NUMPY_SYMBOLS_MIN digits,
        # from one numpy `%` from there on
        ns = 5
        digits = [(3 * i) % ns for i in range(length)]
        decoded = from_digits(stream(digits, ns))
        assert_behaves_as_public(decoded, seq(ref_from_digits(digits, ns), ns), "symbols")

    @pytest.mark.parametrize("ns,length", [(3, 9), (40, 400)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_adaptive_strategy_streams_behave_as_public(self, monkeypatch, ns, length, k):
        # the padded stream of transform_adaptive and the sliced stream of
        # inverse_adaptive, with the sequences each decodes to
        streams = capture_from_digits(monkeypatch)
        source = seq(skewed(ns, length, 7 * ns + length), ns)
        shaped = transform_adaptive(source, k)
        assert inverse_adaptive(shaped, k) == source
        padded, sliced = streams
        digits = list(ref_to_digits(source.symbols.tolist(), ns))
        assert_behaves_as_public(padded, stream([0] * k + digits, ns), "digits")
        assert_behaves_as_public(sliced, stream(digits, ns), "digits")
        assert_behaves_as_public(shaped, seq(ref_from_digits([0] * k + digits, ns), ns), "symbols")

    @pytest.mark.parametrize("ns,length", [(2, 6), (3, 4), (5, 2)])
    def test_sequences_from_lex_indices_equal_checked_construction(self, ns, length):
        for symbols in itertools.product(range(ns), repeat=length):
            assert_behaves_as_public(_trusted(Sequence, symbols, ns), seq(symbols, ns), "symbols")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_validated_sources_behave_as_public(self, monkeypatch, strategy):
        # validate_strategy builds each source from an itertools.product tuple
        sources = []

        def spy(source, cfg):
            sources.append(source)
            return shaping.transform(source, cfg)

        monkeypatch.setattr(oracle, "transform", spy)
        assert validate_strategy(ShaperConfig(ns=3, strategy=strategy), 3, 3).ok
        assert [tuple(source) for source in sources] == list(itertools.product(range(3), repeat=3))
        for source in sources:
            assert_behaves_as_public(source, seq(tuple(source), 3), "symbols")

    @pytest.mark.parametrize("ns,length", [(2, 6), (3, 4), (5, 2), (7, 1)])
    def test_unranked_sequences_equal_checked_construction(self, ns, length):
        tables = shaping._space_order(ns, length)
        for r in range(ns**length):
            unranked = tables.unrank(r)
            assert_behaves_as_public(unranked, seq(unranked.symbols.tolist(), ns), "symbols")


class TestShapingRunsNoPublicCheck:
    """Shaping passes build every value unchecked: no call reaches the public construction check.

    A deterministic guard for the fast path.  Inputs are built before the
    count starts.
    """

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = entropy._check_symbols

        def counted(values, ns, noun):
            calls.append(noun)
            return check(values, ns, noun)

        monkeypatch.setattr(entropy, "_check_symbols", counted)
        return calls

    def test_the_count_sees_public_construction(self, checks):
        Sequence([0, 1], 2)
        DigitStream([0, 1], 2)
        assert checks == ["symbol", "digit"]

    @pytest.mark.parametrize("ns,length", [(3, 9), (40, 400)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_adaptive_passes(self, checks, ns, length, k):
        cfg = ShaperConfig(ns=ns, k=k)
        source = seq(skewed(ns, length, ns * length + k), ns)
        off_image = seq([1] + source.symbols.tolist(), ns)
        checks.clear()
        shaped = shaping.transform(source, cfg)
        assert shaping.inverse_transform(shaped, cfg) == source
        with pytest.raises(shaping.NotInImageError):
            shaping.inverse_transform(off_image, cfg)
        assert checks == []

    @pytest.mark.parametrize("ns,n", [(4, 5), (2, 9)])
    def test_warm_exact_sorted_round_trips(self, checks, ns, n):
        cfg = ShaperConfig(ns=ns, strategy=shaping.EXACT_SORTED)
        sources = [seq(skewed(ns, n, seed), ns) for seed in range(20)]
        shaping.transform(sources[0], cfg)  # the order builds
        checks.clear()
        for source in sources:
            assert shaping.inverse_transform(shaping.transform(source, cfg), cfg) == source
        assert checks == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_validate_strategy(self, checks, strategy):
        assert validate_strategy(ShaperConfig(ns=3, strategy=strategy), 3, 4).ok
        assert checks == []


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
