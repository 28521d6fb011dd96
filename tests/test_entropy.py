import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqshape import (
    DigitStream,
    Histogram,
    Sequence,
    entropy_length_product,
    entropy_length_product_from_counts,
    histogram,
    info_from_sorted_counts,
)

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
