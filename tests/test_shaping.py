import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import built_info, materialised, seq
from reference_impl import ref_exact_sorted_map, ref_inverse_adaptive, ref_transform_adaptive


def random_sequences(max_ns=64, max_len=200):
    return st.integers(2, max_ns).flatmap(
        lambda ns: st.tuples(
            st.just(ns), st.lists(st.integers(0, ns - 1), min_size=1, max_size=max_len)
        )
    )


# sha256 of the little-endian int64 bytes of the (order, rank) arrays of the
# exact-sorted order, taken from the parent commit of the per-multiset order
# build (which built them whole); now materialised from the order's tables
SPACE_ORDER_SHA256 = {
    (4, 9): (
        "96db0293a731d1e5a90ba1166e3d3edac595c84db5a21549514812953074553d",
        "730bc1693852ce195dd644b8f147ce576f52d182027a6bba8dc372e2a12a1173",
    ),
    (4, 10): (
        "c63940b7abdefc979cc803d1d4d3a64db73640c50c87fae770dc3eff4e48a5ad",
        "743cdd9dfe098474d68962d48d4eccee7011d324ef737f9d90a85c62b6d3c90e",
    ),
    (2, 19): (
        "4cba1d8664062a17dd28ee6a5c23ad31957c2b1bccf64ebc3fdbab6de0a04d6a",
        "f1a39faac449f58b75586754c7d464d1f874a7ecb634803d3f166206eb362f32",
    ),
    (2, 20): (
        "c7447aed6e9a7a7daad3c4b685fb35eebe5cd812db101cfc2a82a9ff5c9df027",
        "bbfbd3bc6eedb203c596723ec0c079596c494fad8d6898bb35736d249dd11cbb",
    ),
    (3, 8): (
        "2821d3b4ae14944347457b59db4f62e053133143dfa1b7dbd3c7ab062051f82f",
        "6d39b9b03cfe5ccf194157376a9352174f693d4eefb5ddaead9685bd653753d0",
    ),
    (3, 9): (
        "b51f99049fa87ff6f28867c919c26110e61b373e12e44ad609d4b921ea0de79b",
        "74a3ba64592f577b0f1c484bfdc36c0ebe77c902d46479bb734675642ca1e04e",
    ),
}


def counted_info(ns, length):
    """``info_from_sorted_counts`` of every sequence's symbol counts, in lex order.

    Independent of the order build: rows come from ``np.unravel_index``, and
    a row's counts from comparing every pair of its positions.  Sorted, the
    per-position counts hold a symbol's count c exactly c times; rows are
    grouped by those bytes and ``class_counts`` reads each group's counts.
    """
    size = ns**length
    info = np.empty(size)
    for start in range(0, size, 1 << 16):
        lex = np.arange(start, min(size, start + (1 << 16)))
        rows = np.stack(np.unravel_index(lex, (ns,) * length), axis=1)
        same = rows[:, :, None] == rows[:, None, :]
        per_position = np.sort(same.sum(axis=2, dtype=np.uint8), axis=1)
        keys = per_position.view(f"V{length}").ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        values = np.array([info_from_sorted_counts(class_counts(per_position[i].tolist())) for i in first])
        info[start : start + lex.size] = values[inverse]
    return info


def assert_order_matches_counts(ns, length):
    """The order's tables rank and unrank as a stable argsort of ``counted_info`` orders the space.

    Every lex index and rank through the tables' formulas (``materialised``),
    and the scalar lookups a transform makes on up to 64 ranks spread over
    the space, first and last among them.
    """
    tables = shaping._space_order(ns, length)
    size = ns**length
    expected = np.argsort(counted_info(ns, length), kind="stable")
    order, rank = materialised(tables, size)
    assert np.array_equal(order, expected), (ns, length)
    assert np.array_equal(rank[expected], np.arange(size)), (ns, length)
    ranks = np.unique(np.linspace(0, size - 1, 64).astype(np.int64))
    rows = np.stack(np.unravel_index(expected[ranks], (ns,) * length), axis=1)
    for r, lex, row in zip(ranks.tolist(), expected[ranks].tolist(), rows.tolist()):
        assert tables.rank(lex) == r, (ns, length, r)
        symbols = tables.unrank(r)
        assert symbols.dtype == np.int64 and not symbols.flags.writeable, (ns, length, r)
        assert symbols.tolist() == row, (ns, length, r)


def class_counts(per_position):
    counts, i = [], 0
    while i < len(per_position):
        counts.append(per_position[i])
        i += per_position[i]
    return tuple(counts)


def largest_ns(bound, length):
    """The largest alphabet with ns**length <= bound."""
    ns = round(bound ** (1 / length))
    while ns**length > bound:
        ns -= 1
    while (ns + 1) ** length <= bound:
        ns += 1
    return ns


def shapes_within(bound):
    """Every (ns, length) with ns >= 2, length >= 1 and ns**length <= bound."""
    return [(ns, length) for length in range(1, bound.bit_length()) for ns in range(2, largest_ns(bound, length) + 1)]


def shape_within(bound):
    """A length, then an alphabet with ns**length <= bound."""
    return st.integers(1, bound.bit_length() - 1).flatmap(
        lambda length: st.tuples(st.integers(2, largest_ns(bound, length)), st.just(length))
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
        # `is` also pins the type: a Python bool, not a numpy one
        assert is_in_image(seq([0, 0, 0, 0], 3)) is True
        assert is_in_image(seq([2, 0, 0], 3)) is False
        assert is_in_image(seq([0, 0, 2], 3), 2) is True
        assert is_in_image(seq([0, 2, 0], 3), 2) is False
        assert type(is_in_image(seq([1, 0], 2))) is bool

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

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_a_lookup_by_hand_up_to_2_16_sequences(self, data):
        ns, length = data.draw(shape_within(1 << 16).filter(lambda shape: shape[1] >= 2))
        k = data.draw(st.integers(1, length - 1))
        symbols = data.draw(st.lists(st.integers(0, ns - 1), min_size=length - k, max_size=length - k))
        lex = 0
        for symbol in symbols:
            lex = lex * ns + symbol
        # both orders by hand: stable argsorts of every sequence's counted value
        source_order = np.argsort(counted_info(ns, length - k), kind="stable")
        target_order = np.argsort(counted_info(ns, length), kind="stable")
        target, expected = int(target_order[int(np.flatnonzero(source_order == lex)[0])]), []
        for _ in range(length):
            target, symbol = divmod(target, ns)
            expected.insert(0, symbol)
        shaped = transform_exact_sorted(seq(symbols, ns), k)
        assert shaped == seq(expected, ns)
        assert inverse_exact_sorted(shaped, k) == seq(symbols, ns)


class TestOrderBuild:
    def test_memory_does_not_grow_with_alphabet(self):
        # the tables hold 300 x 300 class ranks and places; a per-chunk
        # (rows x ns) count matrix would take hundreds of MiB here
        tracemalloc.start()
        try:
            shaping._space_order.__wrapped__(300, 2)
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
        shaping._space_order.__wrapped__(ns, length)
        assert len(calls) == classes
        assert len(set(calls)) == classes

    def test_matches_counts_for_every_space_up_to_4096_sequences(self):
        shapes = shapes_within(1 << 12)
        assert len(shapes) == 4194
        for ns, length in shapes:
            assert built_info(ns, length).tobytes() == counted_info(ns, length).tobytes(), (ns, length)

    # both sides of the earlier chunk rule (ns**tail <= 2**16 < ns**(tail + 1)):
    # (2, 16) to (300, 2); then both sides of a change of the tables' head
    # width (see shaping._split): 0 -> 1, 1 -> 2 -> 3, 5 -> 6, 1 -> 2, 0 -> 1
    @pytest.mark.parametrize(
        "ns,length",
        [
            (2, 16), (2, 17), (2, 18), (2, 19), (4, 8), (4, 9), (3, 12), (7, 7), (16, 4), (16, 5), (256, 2), (300, 2),
            (2, 2), (2, 3), (4, 3), (4, 4), (4, 5), (3, 10), (3, 11), (16, 2), (16, 3), (256, 1),
        ],
    )
    def test_matches_counts_on_both_sides_of_the_chunk_boundary(self, ns, length):
        assert built_info(ns, length).tobytes() == counted_info(ns, length).tobytes()

    @settings(max_examples=25)
    @given(shape_within(1 << 18))
    def test_matches_counts_up_to_2_18_sequences(self, shape):
        ns, length = shape
        assert built_info(ns, length).tobytes() == counted_info(ns, length).tobytes()

    @pytest.mark.parametrize("ns,length", [(4, 10), (2, 20), (300, 2)])
    def test_class_ranks_are_one_byte(self, ns, length):
        tables = shaping._space_order(ns, length)
        assert tables.cls.format == "B"
        codes = tables.class_ranks()
        assert codes.dtype == np.uint8
        assert codes.size == ns**length

    def test_class_list_is_the_partitions(self):
        # partitions of 12 into at most 3 parts, counts ascending; values ranked
        class_rank, values, sizes = shaping._type_classes(3, 12)
        assert len(class_rank) == 19
        assert all(sum(c) == 12 and list(c) == sorted(c) and len(c) <= 3 for c in class_rank)
        assert np.all(np.diff(values) > 0)
        for counts, r in class_rank.items():
            assert values[r] == info_from_sorted_counts(counts)
        assert len(sizes) == len(values)
        assert sum(sizes) == 3**12

    def test_class_sizes_count_the_order_for_every_space_up_to_4096_sequences(self):
        shapes = shapes_within(1 << 12)
        assert len(shapes) == 4194
        for ns, length in shapes:
            _, values, sizes = shaping._type_classes(ns, length)
            counted = np.bincount(shaping._space_order(ns, length).class_ranks(), minlength=len(values))
            assert sizes == counted.tolist(), (ns, length)

    def test_order_matches_counts_for_every_space_up_to_4096_sequences(self):
        shapes = shapes_within(1 << 12)
        assert len(shapes) == 4194
        for ns, length in shapes:
            assert_order_matches_counts(ns, length)

    @settings(max_examples=25)
    @given(shape_within(1 << 18))
    def test_order_matches_counts_up_to_2_18_sequences(self, shape):
        assert_order_matches_counts(*shape)

    @pytest.mark.parametrize("shape", sorted(SPACE_ORDER_SHA256))
    def test_space_order_bytes_pinned(self, shape):
        order, rank = materialised(shaping._space_order(*shape), shape[0] ** shape[1])
        digests = tuple(hashlib.sha256(a.astype("<i8").tobytes()).hexdigest() for a in (order, rank))
        assert digests == SPACE_ORDER_SHA256[shape]

    # (4, 9) -> (4, 10) and (2, 19) -> (2, 20): an int32 order and rank of the
    # target space alone would be 8 MiB; a build through whole-space arrays
    # peaks at 12.6 and 14.5 MiB in this test
    @pytest.mark.parametrize("ns,n", [(4, 9), (2, 19)])
    def test_memory_of_a_first_exact_sorted_call(self, ns, n):
        source = seq(np.arange(n) % ns, ns)
        shaping._space_order.cache_clear()
        tracemalloc.start()
        try:
            transform_exact_sorted(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            shaping._space_order.cache_clear()
        assert peak < 4 << 20

    @pytest.mark.parametrize("ns,length", [(4, 12), (2, 24), (256, 3), (4096, 2)])
    def test_default_bound_fits_in_one_gib(self, monkeypatch, ns, length):
        # the largest spaces of the default bound; each build's estimate is a
        # few to a few hundred MiB
        monkeypatch.setattr(shaping.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}.get)
        shaping._split(ns, length, len(shaping._type_classes(ns, length)[1]))

    # two even splits and two with a one- or two-symbol head; the estimate is
    # what the build holds plus its largest passing peak, so one byte less
    # than the traced peak must refuse the build (the (4096, 2) build, 153 MB
    # traced, is left out for its memory)
    @pytest.mark.parametrize("ns,length", [(4, 12), (2, 24), (256, 3), (1000, 2)])
    def test_estimate_covers_the_traced_peak(self, monkeypatch, ns, length):
        shaping._space_order.cache_clear()
        tracemalloc.start()
        try:
            shaping._space_order(ns, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            shaping._space_order.cache_clear()
        monkeypatch.setattr(shaping.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak - 1}.get)
        with pytest.raises(MemoryError):
            shaping._split(ns, length, len(shaping._type_classes(ns, length)[1]))

    def test_space_check_cached_only_for_an_integer_bound(self):
        assert shaping._check_space(4, 10, 1 << 24) == 4**10
        # equal to the cached bound, and still not an integer
        with pytest.raises(TypeError, match="enumeration bound must be an integer"):
            shaping._check_space(4, 10, float(1 << 24))
        for _ in range(2):
            with pytest.raises(SpaceTooLargeError, match=r"^4\^13 = 67108864 sequences exceed the enumeration bound"):
                shaping._check_space(4, 13, 1 << 24)

    def test_order_too_large_for_memory_raises_before_building(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("order build started")

        monkeypatch.setattr(shaping, "_multisets", no_build)
        monkeypatch.setattr(shaping, "_digit_rows", no_build)
        with pytest.raises(MemoryError, match=r"order of 2\^63 sequences needs about .* bytes of physical memory"):
            inverse_exact_sorted(seq([0] * 63, 2), max_space=2**80)

    @pytest.mark.parametrize("shape", [(3, 9), (2, 20), (256, 2)])
    def test_tables_are_read_only(self, shape):
        tables = shaping._space_order(*shape)
        assert all(view.readonly for view in (tables.cls, tables.tails, tables.pos, tables.base, tables.start))

    @pytest.mark.parametrize(
        "size,dtype",
        [(1, np.int32), (2**31 - 1, np.int32), (2**31, np.int32), (2**31 + 1, np.int64), (4**24, np.int64)],
    )
    def test_index_dtype_holds_every_lex_index(self, size, dtype):
        # the largest lex index is size - 1; int32 holds up to 2**31 - 1
        assert shaping._index_dtype(size) is dtype


class TestLexPlaces:
    def test_cached_per_space(self):
        assert shaping._lex_places(4, 9) is shaping._lex_places(4, 9)

    def test_read_only(self):
        places = shaping._lex_places(3, 5)
        with pytest.raises(ValueError, match="read-only"):
            places[0] = 1
        assert places.tolist() == [81, 27, 9, 3, 1]

    def test_matches_fresh_powers_for_every_space_up_to_4096_sequences(self):
        for ns, length in shapes_within(1 << 12):
            places = shaping._lex_places(ns, length)
            assert places.dtype == np.int64, (ns, length)
            assert np.array_equal(places, ns ** np.arange(length - 1, -1, -1, dtype=np.int64)), (ns, length)


def brute_multisets(ns, width):
    """Every sequence's sorted symbols, in lex order, told apart by ``np.unique``.

    A sorted row is named by the base-``ns`` number it spells, so ascending
    names are the rows in lex order.
    """
    rows = np.sort(np.indices((ns,) * width).reshape(width, -1).T, axis=1)
    names = rows @ ns ** np.arange(width - 1, -1, -1)
    _, first, ids = np.unique(names, return_index=True, return_inverse=True)
    return rows[first], ids


def assert_multisets_match(ns, width):
    rows, ids = shaping._multisets(ns, width)
    expected_rows, expected_ids = brute_multisets(ns, width)
    assert rows.dtype == ids.dtype == np.int64, (ns, width)
    assert rows.shape == expected_rows.shape and np.array_equal(rows, expected_rows), (ns, width)
    assert np.array_equal(ids, expected_ids), (ns, width)


# (ns, width) with 2**12 < ns**width <= 2**16: the widths of the order
# build's tails, beyond the exhaustive test
MULTISET_SHAPES_BEYOND = [(ns, w) for ns in range(2, 257) for w in range(1, 17) if 1 << 12 < ns**w <= 1 << 16]


class TestMultisets:
    def test_matches_brute_force_up_to_4096_sequences(self):
        shapes = shapes_within(1 << 12)
        assert len(shapes) == 4194
        for ns, width in shapes:
            assert_multisets_match(ns, width)

    @settings(max_examples=20)
    @given(st.sampled_from(MULTISET_SHAPES_BEYOND))
    def test_matches_brute_force_up_to_2_16_sequences(self, shape):
        assert_multisets_match(*shape)

    @pytest.mark.parametrize("ns", [2, 3, 300])
    def test_width_zero_is_one_empty_multiset(self, ns):
        rows, ids = shaping._multisets(ns, 0)
        assert rows.shape == (1, 0) and rows.dtype == np.int64
        assert ids.tolist() == [0]


class TestDigitRows:
    @pytest.mark.parametrize("ns,width", [(ns, width) for ns in range(2, 6) for width in range(4)] + [(4096, 1)])
    def test_each_row_is_its_sequences_int64_bytes(self, ns, width):
        expected = [np.array(row, dtype=np.int64).tobytes() for row in itertools.product(range(ns), repeat=width)]
        rows = shaping._digit_rows(ns, width)
        assert all(type(row) is bytes for row in rows)
        assert rows == expected

    def test_lex_digits_match_the_division_for_every_space_up_to_4096_sequences(self):
        for ns, width in [(2, 0), (300, 0), *shapes_within(1 << 12)]:
            digits = shaping._lex_digits(ns, width)
            expected = shaping._digits_from_lex(np.arange(ns**width)[:, None], ns, width)
            assert digits.dtype == np.int64 and digits.shape == expected.shape, (ns, width)
            assert np.array_equal(digits, expected), (ns, width)


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
            (lambda: space_descriptor(3, 2.5), "length"),
            (lambda: SourceSpec(ns=3, n=2.5, pmax=0.5), "sequence length"),
            (lambda: oracle_report(3, 2.5, 1), "length"),
            (lambda: ShaperConfig(ns=3, max_space=2.5), "enumeration bound"),
            (lambda: ShaperConfig(ns=3, max_space="x"), "enumeration bound"),
            (lambda: transform_exact_sorted(seq([0, 1], 2), 1, True), "enumeration bound"),
            (lambda: inverse_exact_sorted(seq([0, 1, 0], 2), 1, 64.0), "enumeration bound"),
            (lambda: space_descriptor(3, 2, max_space=1e6), "enumeration bound"),
            (lambda: oracle_report(3, 2, 1, max_space=np.float64(100)), "enumeration bound"),
        ],
        ids=[
            "float-digits", "bool-digits", "config-ns", "config-k", "source-ns",
            "descriptor-ns", "oracle-k", "transform-k", "membership-k",
            "descriptor-length", "source-length", "oracle-length",
            "config-bound-float", "config-bound-str", "transform-bound-bool",
            "inverse-bound-float", "descriptor-bound", "oracle-bound",
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
