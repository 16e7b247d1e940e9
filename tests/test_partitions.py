"""Partition enumeration, conjugation and the staircase column transforms."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import tally_per_n
from rrweights.combinatorics import get_statement, series_counts
from rrweights.partitions import (
    ALL_PARTITIONS,
    DIFF2,
    DIFF2_STAR,
    MOD5_14,
    MOD5_23,
    NAMED_CLASSES,
    ClassMembershipError,
    Partition,
    PartitionClass,
    class_size,
    col,
    col_star,
    conjugate,
    enumerate_class,
    partition_counts,
    partition_number,
    signature,
)
from rrweights.partitions import _least_largest_parts, _totals_toward


def P(*parts):
    return Partition(tuple(parts))


# Reference implementations: the earlier recursive generators and the
# column-by-column conjugate, kept as independent oracles.

def _ref_gen_congruence(n, max_part, sizes):
    if n == 0:
        yield ()
        return
    for s in sizes:
        if s > min(n, max_part):
            continue
        for rest in _ref_gen_congruence(n - s, s, sizes):
            yield (s,) + rest


def _ref_gen_diff2(n, max_part, min_part):
    if n == 0:
        yield ()
        return
    for s in range(min(n, max_part), min_part - 1, -1):
        for rest in _ref_gen_diff2(n - s, s - 2, min_part):
            yield (s,) + rest


def ref_enumerate(pclass, n):
    if pclass.kind == "congruence":
        sizes = tuple(s for s in range(n, 0, -1) if pclass.allows_part(s))
        gen = _ref_gen_congruence(n, n, sizes)
    else:
        min_part = 2 if pclass.kind == "diff2_star" else 1
        gen = _ref_gen_diff2(n, n, min_part)
    return [Partition(parts) for parts in gen]


def ref_conjugate(p):
    if not p.parts:
        return Partition()
    return Partition(tuple(
        sum(1 for part in p.parts if part >= j)
        for j in range(1, p.parts[0] + 1)
    ))


CUSTOM_CLASSES = [
    PartitionClass.congruence(5, (2, 3), forbidden=(3,), extra_allowed=(5,)),
    PartitionClass.congruence(5, (1, 4), forbidden=(1, 4, 6, 9)),
    PartitionClass.congruence(5, (2, 4)),
    PartitionClass.congruence(7, (0, 3)),
    PartitionClass.congruence(3, ()),
    PartitionClass.congruence(4, (2,), extra_allowed=(6,)),
    PartitionClass.congruence(4, (2,), extra_allowed=(3,)),
    # odd remainders that only the one odd size can make
    PartitionClass.congruence(2, (0,), extra_allowed=(9,)),
    PartitionClass.congruence(6, (4,), extra_allowed=(9, 13)),
]


class TestPartitionBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_size_and_counts(self):
        p = P(12, 3, 3, 2, 2)
        assert p.size == 22
        assert len(p) == 5
        assert p.multiplicity(3) == 2
        assert p.multiplicity(7) == 0

    def test_exp_str(self):
        assert P(3, 3, 2, 2).exp_str() == "3^2,2^2"
        assert P(22).exp_str() == "22"
        assert Partition().exp_str() == ""
        assert str(Partition()) == "()"

    def test_equality_and_hashing_by_value(self):
        a, b = P(3, 1), Partition((3, 1))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(((3, 1),))
        assert a != P(3) and a != (3, 1) and (3, 1) != a
        assert len({a, b, P(2, 2)}) == 2
        mod5 = PartitionClass.congruence(5, (4, 1))
        assert mod5 == MOD5_14 and mod5 is not MOD5_14
        assert hash(mod5) == hash(
            ("congruence", 5, frozenset({1, 4}), frozenset(), frozenset())
        )
        assert mod5 != MOD5_23 and mod5 != PartitionClass.congruence(
            5, (1, 4), extra_allowed=(2,)
        )
        assert DIFF2 == PartitionClass("diff2") and DIFF2 != DIFF2_STAR
        # lru_cache keys: an equal key made apart finds the cached entry
        assert enumerate_class(mod5, 12) is enumerate_class(MOD5_14, 12)
        assert col(P(9, 4, 1)) is col(Partition((9, 4, 1)))
        with pytest.raises(AttributeError):
            a.parts = (4,)
        with pytest.raises(AttributeError):
            mod5.modulus = 7

    def test_copies_pickles_and_no_deletion(self):
        keys = [
            P(4, 2, 2), Partition(), MOD5_14, DIFF2_STAR,
            PartitionClass.congruence(6, (4,), forbidden=(4,), extra_allowed=(9,)),
        ]
        for key in keys:
            for twin in (
                copy.copy(key), copy.deepcopy(key),
                pickle.loads(pickle.dumps(key)),
            ):
                assert twin == key and hash(twin) == hash(key)
                assert type(twin) is type(key)
        with pytest.raises(AttributeError):
            del keys[0].parts
        with pytest.raises(AttributeError):
            del keys[2].residues
        assert keys[0].parts == (4, 2, 2) and keys[2].residues == {1, 4}

    def test_trusted_producers_pass_validation(self):
        # enumerate_class, conjugate and col/col_star skip the check
        def valid(p):
            assert type(p.parts) is tuple
            assert Partition(p.parts) == p   # raises if p is invalid

        for pclass in [*NAMED_CLASSES.values(), *CUSTOM_CLASSES]:
            for n in range(26):
                for p in enumerate_class(pclass, n):
                    valid(p)
                    valid(conjugate(p))
                    if pclass.kind == "diff2":
                        valid(col(p))
                    elif pclass.kind == "diff2_star":
                        valid(col_star(p))


class TestEnumerate:
    def test_diff2_star_22(self):
        parts = enumerate_class(DIFF2_STAR, 22)
        assert len(parts) == 26
        for member in [(16, 6), (15, 7), (12, 6, 4), (11, 7, 4), (10, 8, 4), (22,)]:
            assert Partition(member) in parts

    def test_congruence_14_23(self):
        parts = enumerate_class(MOD5_14, 23)
        for member in [
            (11, 4, 4, 4),
            (9, 4, 4, 4, 1, 1),
            (6, 4, 4, 4, 1, 1, 1, 1, 1),
            (4, 4, 4) + (1,) * 11,
        ]:
            assert Partition(member) in parts

    def test_n_zero(self):
        assert enumerate_class(DIFF2, 0) == (Partition(),)
        assert enumerate_class(MOD5_23, 0) == (Partition(),)

    def test_decreasing_lex_order(self):
        for pclass in (DIFF2, DIFF2_STAR, MOD5_14, MOD5_23):
            parts = enumerate_class(pclass, 18)
            keys = [p.parts for p in parts]
            assert keys == sorted(keys, reverse=True)

    def test_membership_matches_contains(self):
        for pclass in (DIFF2, DIFF2_STAR, MOD5_14, MOD5_23):
            for p in enumerate_class(pclass, 15):
                assert pclass.contains(p)

    @pytest.mark.parametrize("n", range(0, 41))
    def test_macmahon_counts(self, n):
        assert len(enumerate_class(MOD5_14, n)) == len(enumerate_class(DIFF2, n))
        assert len(enumerate_class(MOD5_23, n)) == len(
            enumerate_class(DIFF2_STAR, n)
        )

    def test_forbidden_and_extra_sizes(self):
        melded = PartitionClass.congruence(
            5, (2, 3), forbidden=(3,), extra_allowed=(5,)
        )
        parts = enumerate_class(melded, 10)
        assert Partition((5, 5)) in parts
        assert all(p.multiplicity(3) == 0 for p in parts)

    @pytest.mark.parametrize("name", sorted(NAMED_CLASSES))
    def test_matches_reference_generator(self, name):
        pclass = NAMED_CLASSES[name]
        for n in range(0, 31):
            assert list(enumerate_class(pclass, n)) == ref_enumerate(pclass, n)

    def test_custom_classes_match_reference_generator(self):
        for pclass in CUSTOM_CLASSES:
            for n in range(0, 26):
                assert list(enumerate_class(pclass, n)) == ref_enumerate(
                    pclass, n
                )

    def test_unreachable_remainders_are_not_walked(self):
        # after the one odd part every remainder is odd, and no even parts
        # make it: listing (99999) must not try the even partitions of each
        odd_once = PartitionClass.congruence(2, (0,), extra_allowed=(99999,))
        assert enumerate_class(odd_once, 99999) == (Partition((99999,)),)
        assert enumerate_class(odd_once, 99997) == ()
        assert class_size(odd_once, 99999, 10**6) == 1
        assert class_size(odd_once, 99997, 10**6) == 0
        just_past = PartitionClass.congruence(2, (0,), extra_allowed=(999,))
        assert enumerate_class(just_past, 1003) == (
            Partition((999, 4)), Partition((999, 2, 2)),
        )

    def test_class_validation(self):
        with pytest.raises(ValueError):
            PartitionClass.congruence(5, (7,))
        with pytest.raises(ValueError):
            PartitionClass.congruence(5, (2,), forbidden=(5,), extra_allowed=(5,))

    @pytest.mark.parametrize(
        "forbidden,extra_allowed,bad",
        [((0,), (), "[0]"), ((), (-2,), "[-2]"), ((3, -1), (0,), "[-1, 0]")],
    )
    def test_non_positive_sizes_rejected(self, forbidden, extra_allowed, bad):
        with pytest.raises(ValueError) as info:
            PartitionClass.congruence(5, (1, 4), forbidden, extra_allowed)
        assert str(info.value) == (
            f"forbidden and extra-allowed sizes must be positive, got {bad}"
        )


class TestConjugate:
    def test_example(self):
        assert conjugate(P(7, 5, 2, 1)) == P(4, 3, 2, 2, 2, 1, 1)

    def test_second_example(self):
        assert conjugate(P(5, 4, 2, 2)) == P(4, 4, 2, 2, 1)

    def test_empty(self):
        assert conjugate(Partition()) == Partition()

    def test_matches_reference_exhaustive(self):
        for n in range(0, 21):
            for p in enumerate_class(ALL_PARTITIONS, n):
                assert conjugate(p) == ref_conjugate(p)

    def test_involution_exhaustive(self):
        for n in range(0, 26):
            for p in enumerate_class(ALL_PARTITIONS, n):
                assert conjugate(conjugate(p)) == p


class TestColTransforms:
    def test_col_example(self):
        assert col(P(16, 12, 7, 4, 1)) == P(4, 3, 2, 2, 2, 1, 1)

    def test_col_single_part(self):
        assert col(P(9)) == Partition((1,) * 8)
        assert col(P(1)) == Partition()

    def test_col_four_parts(self):
        assert col(P(8, 6, 4, 1)) == P(3)

    def test_col_star_example(self):
        assert col_star(P(13, 10, 6, 4)) == P(4, 4, 2, 2, 1)

    def test_col_star_two_parts(self):
        assert col_star(P(16, 6)) == Partition((2,) * 4 + (1,) * 8)

    def test_col_star_single(self):
        assert col_star(P(2)) == Partition()

    def test_domain_checks(self):
        with pytest.raises(ClassMembershipError):
            col(P(5, 4))
        with pytest.raises(ClassMembershipError):
            col_star(P(5, 1))

    def _reconstruct(self, image, m, starred):
        heights = conjugate(image).parts
        padded = list(heights) + [0] * (m - len(heights))
        first = 2 * m if starred else 2 * m - 1
        return Partition(
            tuple(padded[i] + first - 2 * i for i in range(m))
        )

    @pytest.mark.parametrize("n", range(0, 41))
    def test_col_size_drop_roundtrip_injectivity(self, n):
        seen = {}
        for p in enumerate_class(DIFF2, n):
            m = len(p)
            image = col(p)
            assert image.size == p.size - m * m
            assert (not image.parts) or image.parts[0] <= m
            assert self._reconstruct(image, m, starred=False) == p
            key = (m, image)
            assert key not in seen
            seen[key] = p

    @pytest.mark.parametrize("n", range(0, 41))
    def test_col_star_size_drop_roundtrip_injectivity(self, n):
        seen = {}
        for p in enumerate_class(DIFF2_STAR, n):
            m = len(p)
            image = col_star(p)
            assert image.size == p.size - m * (m + 1)
            assert (not image.parts) or image.parts[0] <= m
            assert self._reconstruct(image, m, starred=True) == p
            key = (m, image)
            assert key not in seen
            seen[key] = p


class TestSignature:
    def test_watched_counts(self):
        assert signature(P(12, 3, 3, 2, 2), {3}) == {3: 2}

    def test_empty_partition(self):
        assert signature(Partition(), {2, 5}) == {2: 0, 5: 0}

    def test_absent_sizes_count_zero(self):
        p = Partition((3,) * 6 + (2,) * 2)
        assert signature(p, {2, 3, 7}) == {2: 2, 3: 6, 7: 0}


class TestCounting:
    @pytest.mark.parametrize(
        "pclass", [MOD5_14, MOD5_23, ALL_PARTITIONS] + CUSTOM_CLASSES
    )
    def test_signature_counts_match_enumeration(self, pclass):
        # the product leg of a statement over the class, watching 1, 2 and
        # 5 in the fields of w, t and v, the variables of its sum side
        watched, units = (1, 2, 5), (1 << 32, 1 << 48, 1 << 16)
        stmt = get_statement("firstbigcomb").instantiate(None).replace(
            product_class=pclass, watched={1: "w", 2: "t", 5: "v"},
        )
        _, _, products = series_counts(stmt, 30)
        per_n = tally_per_n(products.digits, products.width, 30)
        for n in range(0, 31):
            want = {}
            for p in enumerate_class(pclass, n):
                key = sum(p.multiplicity(s) * u for s, u in zip(watched, units))
                want[key] = want.get(key, 0) + 1
            assert per_n[n] == want

    @pytest.mark.parametrize(
        "sizes", [(), (1,), (3,), (2, 5), (4, 1, 3), tuple(range(1, 31))]
    )
    def test_partition_counts_match_enumeration(self, sizes):
        pclass = PartitionClass.congruence(31, sizes) if sizes else None
        counts = partition_counts(sizes, 30)
        for n in range(0, 31):
            want = len(enumerate_class(pclass, n)) if pclass else int(n == 0)
            assert counts[n] == want

    def test_partition_number_matches_coin_change(self):
        counts = partition_counts(range(1, 301), 300)
        assert [partition_number(n) for n in range(301)] == counts
        assert partition_number(100) == 190569292

    @pytest.mark.parametrize(
        "pclass", list(NAMED_CLASSES.values()) + CUSTOM_CLASSES
    )
    def test_class_size_exact_below_limit(self, pclass):
        for n in range(0, 36):
            assert class_size(pclass, n, 10**6) == len(enumerate_class(pclass, n))

    def test_class_size_exact_past_first_bound(self):
        for pclass, n in ((DIFF2, 70), (CUSTOM_CLASSES[3], 100)):
            assert class_size(pclass, n, 10**6) == len(enumerate_class(pclass, n))

    def test_class_size_stops_early_above_limit(self):
        assert class_size(DIFF2, 100000, 1000) > 1000
        assert class_size(ALL_PARTITIONS, 10**9, 10**6) > 10**6
        exact = partition_number(70)
        assert 10**5 < class_size(ALL_PARTITIONS, 70, 10**5) <= exact

    def test_class_size_when_only_one_size_reaches_n(self):
        odd_once = PartitionClass.congruence(2, (0,), extra_allowed=(99999,))
        assert class_size(odd_once, 99998, 10**6) > 10**6
        assert class_size(PartitionClass.congruence(3, ()), 10**5, 10) == 0

    def test_class_size_bounds_only_from_reachable_totals(self):
        # even totals have many partitions into even parts, odd ones none
        evens = PartitionClass.congruence(2, (0,))
        assert class_size(evens, 101, 10) == 0


def _sums(sizes, n):
    """sums[x]: some parts from `sizes` sum to x (plain coin change)."""
    sums = [True] + [False] * n
    for s in sizes:
        for x in range(s, n + 1):
            sums[x] = sums[x] or sums[x - s]
    return sums


_size_sets = st.sets(st.integers(1, 30), max_size=6).map(sorted)


@settings(max_examples=150, deadline=None)
@given(_size_sets, st.integers(0, 80))
def test_least_largest_parts_against_brute_force(sizes, n):
    by_bound = {b: _sums([s for s in sizes if s <= b], n) for b in [0] + sizes}
    least = _least_largest_parts(sizes, n)
    for x in range(n + 1):
        want = next((b for b, sums in by_bound.items() if sums[x]), n + 1)
        assert least[x] == want, x


@settings(max_examples=150, deadline=None)
@given(_size_sets, st.integers(0, 120), st.integers(0, 120))
def test_totals_toward_against_brute_force(sizes, n, top):
    top = min(top, n)
    sums = _sums(sizes, n)
    assert _totals_toward(sizes, n, top) == [
        t for t in range(top + 1) if sums[t] and sums[n - t]
    ]
