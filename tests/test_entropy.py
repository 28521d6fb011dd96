import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqshape import (
    DigitStream,
    Histogram,
    Sequence,
    ShaperConfig,
    SourceSpec,
    entropy_length_product,
    entropy_length_product_from_counts,
    from_digits,
    histogram,
    info_from_sorted_counts,
    run_experiment,
    shaping,
    space_descriptor,
    to_digits,
    transform_adaptive,
)
from seqshape.entropy import _trusted
from seqshape.sources import trial_rng

from conftest import seq
from reference_impl import ref_info_positional


def random_sequences(max_ns=64, max_len=200):
    return st.integers(2, max_ns).flatmap(
        lambda ns: st.tuples(
            st.just(ns), st.lists(st.integers(0, ns - 1), min_size=1, max_size=max_len)
        )
    )


class TestHistogram:
    def test_constant_sequence(self):
        h = histogram(seq([0, 0, 0, 0], 3))
        assert h.counts.tolist() == [4, 0, 0]
        assert h.total == 4

    def test_symmetric_pair(self):
        h = histogram(seq([0, 1], 2))
        assert h.counts.tolist() == [1, 1]
        assert h.total == 2

    def test_direct_count(self):
        h = histogram(seq([0, 0, 1], 2))
        assert h.counts.tolist() == [2, 1]
        assert h.total == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram(seq([], 2))

    @given(random_sequences())
    def test_counts_sum_to_length(self, data):
        ns, symbols = data
        h = histogram(seq(symbols, ns))
        assert h.counts.sum() == h.total == len(symbols)
        assert all(h.counts[a] == symbols.count(a) for a in range(ns))


class TestSequenceValidation:
    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            seq([0, 3], 3)
        with pytest.raises(ValueError):
            seq([-1], 2)

    @pytest.mark.parametrize("make,noun", [(Sequence, "symbol"), (DigitStream, "digit")])
    @pytest.mark.parametrize(
        "values,ns",
        [
            ([0, -1], 3),
            (np.array([-(2**63)], dtype=np.int64), 3),
            ([2, 3], 3),
            (np.array([2**63], dtype=np.uint64), 3),
            (np.array([1, 2**64 - 1], dtype=np.uint64), 3),
            (np.array([2**63 - 1], dtype=np.int64), 2**63 - 1),
            (np.array([2**63], dtype=np.uint64), 2**63 - 1),
        ],
    )
    def test_range_check_at_both_ends(self, make, noun, values, ns):
        # one uint64 reduction checks both ends: negative int64 values, and
        # uint64 values of 2**63 and more, lie above every ns
        with pytest.raises(ValueError, match=rf"^{noun} out of range \[0, {ns}\)$"):
            make(values, ns)

    @pytest.mark.parametrize("make,noun", [(Sequence, "symbol"), (DigitStream, "digit")])
    @pytest.mark.parametrize("values", [[2**64], [-(2**63) - 1], [1, 2**64], [[2**64]]])
    def test_integers_beyond_int64_are_out_of_range(self, make, noun, values):
        # numpy keeps them as Python ints in an object array; an integer is
        # never a type error, whatever its size
        with pytest.raises(ValueError, match=rf"^{noun} out of range \[0, 3\)$"):
            make(values, 3)

    @pytest.mark.parametrize("make,field", [(Sequence, "symbols"), (DigitStream, "digits")])
    def test_object_arrays_are_checked_by_their_values(self, make, field):
        assert getattr(make(np.array([0, 2], dtype=object), 3), field).tolist() == [0, 2]
        for values in ([0.5, 2**64], [True, 2**64], ["a", 2**64], np.array([0, 1.0], dtype=object)):
            with pytest.raises(TypeError, match=rf"^{field} must be integers$"):
                make(values, 3)

    @pytest.mark.parametrize("make,field", [(Sequence, "symbols"), (DigitStream, "digits")])
    def test_range_check_accepts_the_edges(self, make, field):
        for values, ns in (([0, 2], 3), (np.array([0, 2**63 - 2], dtype=np.uint64), 2**63 - 1)):
            assert getattr(make(values, ns), field).tolist() == [int(v) for v in values]
        # an empty array has no value to check, as before
        for values in ([], np.array([], dtype=np.uint64), np.array([], dtype=np.float64)):
            assert len(make(values, 3)) == 0

    @pytest.mark.parametrize("make,noun", [(Sequence, "symbol"), (DigitStream, "digit")])
    @pytest.mark.parametrize("values", [[1, 2**63], [0, 2**64 - 1], [-1, 2**63], [2**63, 0, 1]])
    def test_lists_mixing_int64_and_larger_ints_are_out_of_range(self, make, noun, values):
        # numpy reads these lists as float64, not as an object array: they
        # are read again as objects, and each is an integer out of range
        assert np.asarray(values).dtype == np.float64
        with pytest.raises(ValueError, match=rf"^{noun} out of range \[0, 3\)$"):
            make(values, 3)

    @pytest.mark.parametrize("make,field", [(Sequence, "symbols"), (DigitStream, "digits")])
    def test_values_must_be_one_dimensional(self, make, field):
        with pytest.raises(ValueError, match=rf"^{field} must be one-dimensional, got shape \(1, 2\)$"):
            make([[0, 1]], 3)
        with pytest.raises(ValueError, match=rf"^{field} must be one-dimensional, got shape \(\)$"):
            make(np.int64(1), 3)

    def test_ns_too_small(self):
        with pytest.raises(ValueError):
            seq([0], 1)

    def test_non_integer_symbols(self):
        with pytest.raises(TypeError):
            Sequence(symbols=np.array([0.5, 1.0]), ns=2)

    def test_immutable(self):
        s = seq([0, 1], 2)
        with pytest.raises(ValueError):
            s.symbols[0] = 1

    def test_equality(self):
        assert seq([0, 1], 2) == seq([0, 1], 2)
        assert seq([0, 1], 2) != seq([0, 1], 3)
        assert seq([0, 1], 2) != seq([1, 0], 2)


def digit_stream(values, ns):
    return DigitStream(digits=values, ns=ns)


def histogram_of(values, total):
    return Histogram(counts=values, total=total)


# the three int64-backed value types; the second argument is ns, or a histogram's total
VALUE_TYPES = [seq, digit_stream, histogram_of]


class TestValueEquality:
    @pytest.mark.parametrize("make", VALUE_TYPES)
    @pytest.mark.parametrize("length", [1, 9, 4096, 4097, 40000])
    def test_equal_contents_compare_equal(self, make, length):
        values = np.arange(length) % 3
        assert make(values, 3) == make(values.tolist(), 3)
        changed = values.copy()
        changed[-1] = (changed[-1] + 1) % 3
        assert make(values, 3) != make(changed, 3)

    @pytest.mark.parametrize("make", VALUE_TYPES)
    def test_differing_ns_or_total_compare_unequal(self, make):
        assert make([0, 1], 2) != make([0, 1], 3)

    @pytest.mark.parametrize("make", VALUE_TYPES)
    @pytest.mark.parametrize("length", [2, 4096])
    def test_differing_lengths_compare_unequal(self, make, length):
        values = [0] * length
        assert make(values, 2) != make(values + [0], 2)
        assert make(values + [0], 2) != make(values, 2)

    @pytest.mark.parametrize("make", VALUE_TYPES)
    def test_other_types_are_not_implemented(self, make):
        value = make([0, 1], 2)
        others = [[0, 1], (0, 1), *(m([0, 1], 2) for m in VALUE_TYPES if m is not make)]
        for other in others:
            assert value.__eq__(other) is NotImplemented
            assert value != other
        assert value.__eq__(np.array([0, 1])) is NotImplemented


# each value type with the field that holds its int64 array
VALUE_FIELDS = [(seq, "symbols"), (digit_stream, "digits"), (histogram_of, "counts")]


def pickled_and_copied(value):
    """``value`` through pickle at every protocol, ``copy.copy`` and ``copy.deepcopy``."""
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    return [*(pickle.loads(pickle.dumps(value, p)) for p in protocols), copy.copy(value), copy.deepcopy(value)]


def assert_rebuilt_read_only(value, field):
    """Every pickle and copy of ``value`` equals it and holds a read-only int64 array."""
    for again in pickled_and_copied(value):
        assert type(again) is type(value) and again == value
        values = getattr(again, field)
        assert values.dtype == np.int64 and values.ndim == 1 and not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 7


class TestPickleAndCopy:
    """Pickle and copy rebuild every value through its public constructor, checks included."""

    @pytest.mark.parametrize("make,field", VALUE_FIELDS)
    @pytest.mark.parametrize("length", [1, 9, 5000])
    def test_public_values(self, make, field, length):
        assert_rebuilt_read_only(make(np.arange(length) % 3, 3), field)

    def test_package_built_values(self):
        source = seq([2, 0, 1, 1, 0, 2, 2, 2, 1], 3)
        digits = to_digits(source)
        built = [
            (digits, "digits"),
            (from_digits(digits), "symbols"),
            (transform_adaptive(source, 2), "symbols"),
            (shaping._space_order(3, 4).unrank(40), "symbols"),
            (_trusted(Sequence, (0, 2, 1), 3), "symbols"),
            (_trusted(DigitStream, [1, 0], 3), "digits"),
            (histogram(source), "counts"),
        ]
        for value, field in built:
            assert not getattr(value, field).flags.writeable
            assert_rebuilt_read_only(value, field)

    @pytest.mark.parametrize("cls,noun", [(Sequence, "symbol"), (DigitStream, "digit")])
    def test_an_unchecked_value_is_refused_when_rebuilt(self, cls, noun):
        # _trusted skips the checks: what a tampered pickle would hold
        bad = _trusted(cls, [0, 7], 3)
        data = pickle.dumps(bad)
        with pytest.raises(ValueError, match=rf"^{noun} out of range \[0, 3\)$"):
            pickle.loads(data)
        for rebuild in (copy.copy, copy.deepcopy):
            with pytest.raises(ValueError, match=rf"^{noun} out of range \[0, 3\)$"):
                rebuild(bad)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_an_edited_pickle_is_refused_on_load(self, protocol):
        # from protocol 2 on the pickle holds the array's raw bytes: set its
        # 2 to a 7 there
        data = pickle.dumps(seq([0, 2], 3), protocol)
        values = np.array([0, 2], dtype=np.int64).tobytes()
        assert data.count(values) == 1
        edited = data.replace(values, np.array([0, 7], dtype=np.int64).tobytes())
        with pytest.raises(ValueError, match=r"^symbol out of range \[0, 3\)$"):
            pickle.loads(edited)


class TestLowerBounds:
    """The seven integer lower bounds share one rule and its message."""

    # a call refusing ``value``, and the least value it accepts
    CASES = {
        "alphabet size": (lambda v: Sequence([0], v), 2),
        "shaping order": (lambda v: ShaperConfig(ns=3, k=v), 1),
        "trials": (lambda v: run_experiment(SourceSpec(3, 4, 0.5), ShaperConfig(ns=3), v, 1), 1),
        "workers": (lambda v: run_experiment(SourceSpec(3, 4, 0.5), ShaperConfig(ns=3), 1, 1, v), 1),
        "sequence length": (lambda v: SourceSpec(ns=3, n=v, pmax=0.5), 1),
        "length": (lambda v: space_descriptor(3, v), 1),
        "trial index": (lambda v: trial_rng(1, v), 0),
    }

    @pytest.mark.parametrize("what", CASES)
    def test_refusal_message(self, what):
        call, least = self.CASES[what]
        for below in (least - 1, np.int64(least - 1), least - 2**70):
            with pytest.raises(ValueError, match=rf"^{what} must be >= {least}, got {int(below)}$"):
                call(below)
        with pytest.raises(TypeError, match=rf"^{what} must be an integer, got True$"):
            call(True)
        call(least)
        call(np.int32(least))


class TestEntropyLengthProduct:
    def test_constant_is_zero(self):
        value = entropy_length_product(seq([0, 0, 0, 0], 3))
        assert value == 0.0

    def test_fifty_fifty_pair(self):
        assert entropy_length_product(seq([0, 1], 2)) == 2.0

    def test_two_one_split(self):
        value = entropy_length_product(seq([0, 0, 1], 2))
        assert value == pytest.approx(3 * math.log2(3) - 2, abs=1e-12)
        assert round(value, 6) == 2.754888

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy_length_product(seq([], 2))

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError, match=r"^information content of an empty histogram is undefined$"):
            entropy_length_product_from_counts(Histogram(counts=[0, 0], total=0))

    def test_cost_follows_the_sequence_not_the_alphabet(self):
        # a bincount the length of the declared alphabet would be 2^62 entries
        value = entropy_length_product(seq([0, 1, 1], 2**62))
        assert value.hex() == entropy_length_product(seq([0, 1, 1], 2)).hex() == "0x1.60a02756f9c1ep+1"

    @given(random_sequences())
    def test_matches_reference(self, data):
        ns, symbols = data
        value = entropy_length_product(seq(symbols, ns))
        assert value == pytest.approx(ref_info_positional(symbols), rel=1e-9, abs=1e-12)

    @given(random_sequences())
    def test_two_forms_agree(self, data):
        ns, symbols = data
        s = seq(symbols, ns)
        positional = entropy_length_product(s)
        closed = entropy_length_product_from_counts(histogram(s))
        assert math.isclose(positional, closed, rel_tol=1e-9, abs_tol=1e-12)

    @given(random_sequences(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, data, rnd):
        ns, symbols = data
        shuffled = list(symbols)
        rnd.shuffle(shuffled)
        assert entropy_length_product(seq(shuffled, ns)) == pytest.approx(
            entropy_length_product(seq(symbols, ns)), rel=1e-12
        )

    @given(random_sequences(max_ns=16), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, data, rnd):
        ns, symbols = data
        relabel = list(range(ns))
        rnd.shuffle(relabel)
        renamed = [relabel[s] for s in symbols]
        assert entropy_length_product(seq(renamed, ns)) == pytest.approx(
            entropy_length_product(seq(symbols, ns)), rel=1e-12
        )

    @given(random_sequences())
    def test_bounds(self, data):
        ns, symbols = data
        value = entropy_length_product(seq(symbols, ns))
        assert 0.0 <= value <= len(symbols) * math.log2(ns) + 1e-9
        if len(set(symbols)) == 1:
            assert value == 0.0
        else:
            assert value > 0.0

    def test_large_random_sweep(self):
        rng = np.random.default_rng(424242)
        for _ in range(30):
            ns = int(rng.integers(2, 65))
            length = int(rng.integers(1, 10_001))
            s = Sequence(symbols=rng.integers(0, ns, size=length), ns=ns)
            positional = entropy_length_product(s)
            closed = entropy_length_product_from_counts(histogram(s))
            assert math.isclose(positional, closed, rel_tol=1e-9, abs_tol=1e-12)
            assert 0.0 <= positional <= length * math.log2(ns) + 1e-6


class TestInfoFromSortedCounts:
    def test_matches_closed_form(self):
        h = Histogram(counts=[2, 1, 0], total=3)
        assert info_from_sorted_counts((0, 1, 2)) == pytest.approx(
            entropy_length_product_from_counts(h), rel=1e-12
        )

    def test_type_class_members_identical(self):
        # permuted count vectors must yield bit-identical canonical values
        assert info_from_sorted_counts((0, 1, 2)) == info_from_sorted_counts((0, 1, 2))
        a = entropy_length_product(seq([0, 0, 1], 3))
        b = entropy_length_product(seq([2, 1, 2], 3))
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            info_from_sorted_counts((0, 0))

    def test_bits_do_not_depend_on_python_version(self):
        # a compensated sum (builtin sum() from Python 3.12) gives ...01p+4
        assert info_from_sorted_counts((4, 5, 5)).hex() == "0x1.6156c92fafb02p+4"
