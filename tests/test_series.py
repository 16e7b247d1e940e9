"""Exact-arithmetic layer: weight polynomials, series, rational terms."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collections import Counter

from reference import (
    DenseSeries,
    dense,
    divide_dense,
    expand_inverse_factor,
    multiply_dense,
)
from rrweights import series
from rrweights.series import (
    FIELD_MASK,
    MONO_ONE,
    MONO_T,
    MONO_V,
    MONO_W,
    MONO_X,
    FactorError,
    FieldOverflowError,
    SubstitutionError,
    WeightPolynomial,
    expand_packed,
    expand_terms,
    normalize_substitution,
    over_one_denominator,
    pack_monomial,
    parse_exponents,
    parse_monomial,
    qpoly_mul,
    qpoly_str,
    rational_term,
    series_equal,
    unpack_monomial,
)

T = WeightPolynomial.variable("t")
W = WeightPolynomial.variable("w")
V = WeightPolynomial.variable("v")
X = WeightPolynomial.variable("x")
ONE = WeightPolynomial.const(1)


class TestMonomials:
    def test_pack_unpack_roundtrip(self):
        assert unpack_monomial(pack_monomial(3, 0, 2, 7)) == (3, 0, 2, 7)
        assert pack_monomial() == MONO_ONE

    def test_product_is_addition(self):
        tw = pack_monomial(1, 1)
        assert MONO_T + MONO_W == tw

    def test_parse(self):
        assert parse_monomial("1") == MONO_ONE
        assert parse_monomial("t") == MONO_T
        assert parse_monomial("v^2") == pack_monomial(v=2)
        assert parse_monomial("t*w^3") == pack_monomial(1, 3)
        assert parse_monomial("t^10*t^02") == pack_monomial(12)
        with pytest.raises(ValueError):
            parse_monomial("z^2")

    @pytest.mark.parametrize(
        "text,power",
        [("t^", ""), ("t^+2", "+2"), ("t^ 2", " 2"), ("w^\u0663", "\u0663"),
         ("t^1.5", "1.5"), ("t*v^-1", "-1"), ("x^2^3", "2^3")],
    )
    def test_parse_refuses_malformed_power(self, text, power):
        # only ASCII decimal digits follow a caret: "t^" is not t, nor is
        # an Arabic-Indic three a cube
        with pytest.raises(
            ValueError,
            match=rf"^power {re.escape(repr(power))} in "
            rf"{re.escape(repr(text))} is not ASCII decimal digits$",
        ):
            parse_monomial(text)

    def test_power_past_the_field_is_refused_before_int(self):
        # a power longer than FIELD_MASK's digits is refused by its digit
        # count: int() refuses decimal text of thousands of digits itself
        for text, digits in (("t^" + "9" * 5000, 5000), ("w^100000*w", 6)):
            with pytest.raises(
                FieldOverflowError,
                match=rf"^a power of [tw] has {digits} digits, above "
                rf"{FIELD_MASK}$",
            ):
                parse_exponents(text)
        assert parse_exponents("v^" + "0" * 5000 + "7") == [0, 0, 7, 0]
        assert parse_exponents("x^70000") == [0, 0, 0, 70000]
        with pytest.raises(
            ValueError, match=r"^weight exponent out of range: 70000$"
        ):
            parse_monomial("t^70000")
        assert parse_monomial("t^65535") == pack_monomial(t=FIELD_MASK)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            pack_monomial(t=1 << 16)


class TestPolyOps:
    def test_additive_inverse(self):
        assert T + (-T) == 0
        assert not (T - T)

    def test_disjoint_monomials(self):
        assert W * W + ONE == WeightPolynomial(
            {pack_monomial(w=2): 1, MONO_ONE: 1}
        )

    def test_like_term_merge(self):
        assert (T + W) + T == 2 * T + W

    def test_products(self):
        assert T * W == WeightPolynomial({pack_monomial(1, 1): 1})
        assert (ONE + T) * (ONE - T) == ONE - T * T
        assert (W - 1) * ONE == W - ONE

    def test_int_coercion(self):
        assert T + 0 == T
        assert T * 0 == 0
        assert 2 - T == WeightPolynomial({MONO_ONE: 2, MONO_T: -1})

    def test_str_canonical(self):
        assert str(T + W) == "t + w"
        assert str(W - 1) == "-1 + w"
        assert str(WeightPolynomial()) == "0"
        assert str(3 * T * W - 2 * ONE) == "-2 + 3*t*w"


class TestSeriesOps:
    def test_add_identity(self):
        g = expand_inverse_factor((MONO_ONE, 1), 6)
        assert g + DenseSeries.zero(6) == g

    def test_add_simple(self):
        a = DenseSeries.from_terms(1, {0: 1, 1: 1})
        b = DenseSeries.from_terms(1, {1: 1})
        assert a + b == DenseSeries.from_terms(1, {0: 1, 1: 2})

    def test_geometric_plus_alternating(self):
        # hand expansion of 1/(1-q) plus its sign-alternating counterpart
        geom = expand_inverse_factor((MONO_ONE, 1), 4)
        alt = DenseSeries(
            4, [WeightPolynomial.const((-1) ** n) for n in range(5)]
        )
        assert geom + alt == DenseSeries.from_terms(4, {0: 2, 2: 2, 4: 2})

    def test_mul_identity(self):
        g = expand_inverse_factor((MONO_T, 2), 8)
        assert g * DenseSeries.one(8) == g

    def test_telescoping(self):
        one_minus_q = DenseSeries.from_terms(10, {0: 1, 1: -1})
        full = DenseSeries.from_terms(10, {n: 1 for n in range(11)})
        assert one_minus_q * full == DenseSeries.one(10)

    def test_geometric_inverse(self):
        factor = DenseSeries.from_terms(10, {0: 1, 2: -T})
        assert factor * expand_inverse_factor((MONO_T, 2), 10) == (
            DenseSeries.one(10)
        )

    def test_min_order_semantics(self):
        a = DenseSeries.one(10)
        b = DenseSeries.one(4)
        assert (a + b).order == 4
        assert (a * b).order == 4


class TestInverseFactor:
    def test_single_weight(self):
        got = expand_inverse_factor((MONO_T, 2), 7)
        want = DenseSeries.from_terms(
            7, {0: 1, 2: T, 4: T * T, 6: T * T * T}
        )
        assert got == want

    def test_plain(self):
        assert expand_inverse_factor((MONO_ONE, 1), 3) == (
            DenseSeries.from_terms(3, {0: 1, 1: 1, 2: 1, 3: 1})
        )

    def test_large_step(self):
        got = expand_inverse_factor((MONO_V, 7), 20)
        want = DenseSeries.from_terms(20, {0: 1, 7: V, 14: V * V})
        assert got == want

    def test_rejects_constant_factor(self):
        with pytest.raises(FactorError):
            expand_inverse_factor((MONO_T, 0), 5)

    @pytest.mark.parametrize(
        "factor",
        [(MONO_ONE, 1), (MONO_T, 1), (MONO_T, 2), (MONO_V, 7),
         (pack_monomial(1, 1), 3), (MONO_X, 13)],
    )
    def test_inverse_law_to_order_200(self, factor):
        mono, e = factor
        inv = expand_inverse_factor(factor, 200)
        lhs = DenseSeries.from_terms(
            200, {0: 1, e: WeightPolynomial.monomial(mono, -1)}
        )
        assert lhs * inv == DenseSeries.one(200)
        # truncation consistency extends the law to every smaller order
        for k in (0, 1, 5, 63, 199):
            assert inv.truncated(k) == expand_inverse_factor(factor, k)


class TestRationalTerm:
    def test_hand_expansion(self):
        term = rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),))
        got = term.expand(6)
        want = DenseSeries.from_terms(
            6, {2: T, 3: 1, 4: T * T, 5: T, 6: T * T * T}
        )
        assert got == want

    def test_shift_beyond_truncation(self):
        term = rational_term(8, {0: T, 1: 1}, ((MONO_T, 2),))
        assert term.expand(7) == DenseSeries.zero(7)

    def test_constant_term(self):
        assert rational_term(0, 1).expand(5) == DenseSeries.one(5)

    def test_negative_degrees_fold_into_shift(self):
        term = rational_term(6, {-5: 1, 0: 1})
        assert term.q_shift == 1
        assert term.expand(8) == DenseSeries.from_terms(8, {1: 1, 6: 1})

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            rational_term(2, {-3: 1})

    def test_truncation_consistency(self):
        term = rational_term(
            3, {0: 1, 1: W, 4: V * V}, ((MONO_T, 2), (MONO_ONE, 1), (MONO_V, 7))
        )
        full = dense(term.expand(60))
        for k in (3, 17, 35, 59):
            assert full.truncated(k) == term.expand(k)

    def test_substitute_to_q_power(self):
        # w -> q^2 turns (1 - w q^3) into (1 - q^5) and shifts numerator terms
        term = rational_term(2, {0: T, 1: W}, ((MONO_W, 3),))
        sub = term.substitute(normalize_substitution({"t": 1, "w": (1, 2)}))
        assert sub.denominator == ((MONO_ONE, 5),)
        assert sub.expand(8) == rational_term(
            2, {0: 1, 3: 1}, ((MONO_ONE, 5),)
        ).expand(8)

    def test_substitute_drops_zero_factor(self):
        term = rational_term(1, {0: 1}, ((MONO_X, 9),))
        sub = term.substitute(normalize_substitution({"x": 0}))
        assert sub.denominator == ()

    @pytest.mark.parametrize("coeff", [2, -1])
    def test_substitute_refuses_non_unit_factor(self, coeff):
        term = rational_term(1, {0: 1}, ((MONO_ONE, 1), (MONO_W, 3)))
        with pytest.raises(SubstitutionError):
            term.substitute(normalize_substitution({"w": coeff}))

    @pytest.mark.parametrize(
        "value", ["q", "z", (1, 2, 3), (1,), 1.5, (1.0, 2), None],
        ids=["q", "z", "triple", "single", "float", "float-coeff", "none"],
    )
    def test_substitution_value_is_an_int_or_a_pair(self, value):
        with pytest.raises(
            SubstitutionError,
            match=rf"^substitution for 'w' is {re.escape(repr(value))}, not "
            r"an int or a \(coeff, q_exp\) pair of ints$",
        ):
            normalize_substitution({"t": 1, "w": value})

    def test_series_level_substitution_matches_term_level(self):
        term = rational_term(2, {0: T, 1: W}, ((MONO_T, 2), (MONO_W, 3)))
        subs = normalize_substitution({"t": 1, "w": (1, 2)})
        assert dense(term.expand(30)).substitute(subs) == (
            term.substitute(subs).expand(30)
        )

    def test_equality_by_fields(self):
        a = rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),))
        b = rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),))
        assert a == b and a is not b
        assert a != rational_term(3, {0: T, 1: 1}, ((MONO_T, 2),))
        assert a != rational_term(2, {0: T, 1: W}, ((MONO_T, 2),))
        assert a != rational_term(2, {0: T, 1: 1}, ((MONO_W, 2),))
        with pytest.raises(TypeError):
            hash(a)


def _single_variable_expand(shift, num, dens, order):
    """Independent plain-integer expansion for weight-free terms."""
    coeffs = [0] * (order + 1)
    for d, c in num.items():
        if d + shift <= order:
            coeffs[d + shift] = c
    for e in dens:
        out = [0] * (order + 1)
        for n in range(order + 1):
            out[n] = coeffs[n] + (out[n - e] if n >= e else 0)
        coeffs = out
    return coeffs


@pytest.mark.parametrize(
    "shift,num,dens",
    [
        (2, {0: 1, 1: 1}, (2,)),
        (0, {0: 1}, (1, 2, 3)),
        (5, {0: 2, 3: -1}, (4, 7)),
    ],
)
def test_weight_erased_term_matches_single_variable_oracle(shift, num, dens):
    order = 100
    term = rational_term(
        shift,
        {d: WeightPolynomial.const(c) for d, c in num.items()},
        tuple((MONO_T, e) for e in dens),
    )
    erased = term.substitute(normalize_substitution({"t": 1}))
    got = erased.expand(order)
    want = _single_variable_expand(shift, num, dens, order)
    for n in range(order + 1):
        assert got.coeffs[n] == want[n]


class TestEqualityReport:
    def test_equal(self):
        a = expand_inverse_factor((MONO_T, 2), 9)
        report = series_equal(a, a)
        assert report.equal and report.order == 9

    def test_first_discrepancy(self):
        a = DenseSeries.from_terms(3, {0: 1, 1: 1})
        b = DenseSeries.from_terms(3, {0: 1, 1: 2})
        report = series_equal(a, b)
        assert not report.equal
        assert report.degree == 1
        assert report.lhs == ONE and report.rhs == WeightPolynomial.const(2)


class TestCanonicalStrings:
    def test_series_string(self):
        s = DenseSeries.from_terms(3, {0: 1, 2: T, 3: W})
        assert str(s) == "1 + t*q^2 + w*q^3"

    def test_multi_term_coefficient_parenthesized(self):
        s = DenseSeries.from_terms(4, {4: T * T + W})
        assert str(s) == "(w + t^2)*q^4"

    def test_degree_one_and_negatives(self):
        s = DenseSeries.from_terms(3, {1: 1, 3: -ONE})
        assert str(s) == "q - q^3"
        assert qpoly_str({}) == "0"


# ---------------------------------------------------------------------------
# Ring laws on randomized small inputs (fixed order).
# ---------------------------------------------------------------------------

_monomials = st.builds(
    pack_monomial,
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
)
_polys = st.builds(
    WeightPolynomial,
    st.dictionaries(_monomials, st.integers(-5, 5), max_size=3),
)
_series = st.builds(
    lambda coeffs: DenseSeries(6, coeffs),
    st.lists(_polys, min_size=7, max_size=7),
)


@settings(max_examples=60, deadline=None)
@given(_series, _series)
def test_series_add_commutative(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(_series, _series, _series)
def test_series_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(_series, _series)
def test_series_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(_series, _series, _series)
def test_series_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=25, deadline=None)
@given(_series, _series, _series)
def test_series_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# Division and the term accumulator against the dense product.
# ---------------------------------------------------------------------------

_factors = st.tuples(_monomials, st.integers(1, 10))


def _series_of(order):
    return st.lists(_polys, min_size=order + 1, max_size=order + 1).map(
        lambda coeffs: DenseSeries(order, coeffs)
    )


def _one_minus(factor, order):
    mono, e = factor
    return DenseSeries.from_terms(
        order, {0: 1, e: WeightPolynomial.monomial(mono, -1)}
    )


def _dicts(acc):
    return [dict(c.terms) for c in acc.coeffs]


def _from_dicts(coeffs):
    return DenseSeries(
        len(coeffs) - 1, [WeightPolynomial(c) for c in coeffs]
    )


def _divided(acc, factor):
    """acc / (1 - mono*q^e) as one rational term expands it."""
    return rational_term(0, acc.as_qpoly(), (factor,)).expand(acc.order)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_term_division_matches_dense_product(acc, factor):
    # exponents up to 10 against orders up to 9 cover e >= order
    want = acc * expand_inverse_factor(factor, acc.order)
    term = rational_term(0, acc.as_qpoly(), (factor,))
    before = {d: dict(c.terms) for d, c in term.numerator.items()}
    assert term.expand(acc.order) == want
    # the numerator is copied, not divided in place
    assert {d: c.terms for d, c in term.numerator.items()} == before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_term_division_cancels_a_multiplied_factor(acc, factor):
    numerator = acc * _one_minus(factor, acc.order)
    assert _divided(numerator, factor) == acc


_KERNELS = (divide_dense, multiply_dense)


@pytest.mark.parametrize("factor", [(MONO_ONE, 1), (MONO_T, 3), (MONO_X, 40)])
@pytest.mark.parametrize("kernel", _KERNELS, ids=["divide", "multiply"])
def test_dense_kernels_keep_zero_series_zero(kernel, factor):
    coeffs = [{} for _ in range(13)]
    kernel(coeffs, factor)
    assert coeffs == [{}] * 13


def test_constant_factor_rejected():
    for kernel in _KERNELS:
        with pytest.raises(FactorError):
            kernel([{MONO_ONE: 1}, {}], (MONO_T, 0))
    with pytest.raises(FactorError):
        rational_term(0, 1, ((MONO_T, 0),))
    # a term built without rational_term's check: the packed kernel refuses
    for factor in ((MONO_T, 0), (MONO_ONE, 0)):
        with pytest.raises(FactorError):
            series.RationalTerm(0, {0: ONE}, (factor,)).expand(5)


def test_expanded_term_matches_dense_reference():
    term = rational_term(
        3, {0: T, 2: W - 1, 5: V * X}, ((MONO_T, 2), (MONO_ONE, 1), (MONO_W, 3)),
    )
    work = 40 - term.q_shift
    dense = DenseSeries.from_terms(work, term.numerator)
    for factor in term.denominator:
        dense = dense * expand_inverse_factor(factor, work)
    assert term.expand(40) == dense.shifted(term.q_shift)


class _Tail:
    def __init__(self, terms):
        self.terms = terms

    def terms_up_to(self, order):
        return [t for t in self.terms if t.q_shift <= order]


def test_expand_terms_adds_terms_and_tail():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: -1}, ((MONO_T, 2),)),
        rational_term(9, 1, ((MONO_ONE, 1),)),
    )
    tail = _Tail([rational_term(4, {0: 1, 1: T}, ((MONO_W, 3),)),
                  rational_term(30, 1)])
    got = expand_terms(terms, tail, 20)
    want = DenseSeries.zero(20)
    for term in terms + tuple(tail.terms):
        want = want + term.expand(20)
    assert got == want
    assert expand_terms((), None, 7) == DenseSeries.zero(7)


# ---------------------------------------------------------------------------
# The dense multiplication kernel and the common denominator against dense
# products.
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_multiply_dense_matches_dense_product(acc, factor):
    want = acc * _one_minus(factor, acc.order)
    coeffs = _dicts(acc)
    multiply_dense(coeffs, factor)
    assert _from_dicts(coeffs) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_multiply_dense_inverts_divide_dense(acc, factor):
    coeffs = _dicts(acc)
    divide_dense(coeffs, factor)
    multiply_dense(coeffs, factor)
    assert _from_dicts(coeffs) == acc
    multiply_dense(coeffs, factor)
    divide_dense(coeffs, factor)
    assert _from_dicts(coeffs) == acc


ORDER = 12
# small exponents repeat, and 14 lies past ORDER
_term_factors = st.sampled_from(
    [(MONO_ONE, 1), (MONO_ONE, 2), (MONO_T, 2), (MONO_W, 3), (MONO_ONE, 5),
     (MONO_V, 9), (MONO_ONE, 14)]
)
_terms = st.builds(
    rational_term,
    st.integers(0, ORDER + 2),
    st.dictionaries(st.integers(0, 4), _polys, max_size=3),
    st.lists(_term_factors, max_size=4).map(tuple),
)


def _dense_expand(term, order):
    if term.q_shift > order:
        return DenseSeries.zero(order)
    work = order - term.q_shift
    dense = DenseSeries.from_terms(work, term.numerator)
    for factor in term.denominator:
        dense = dense * expand_inverse_factor(factor, work)
    return dense.shifted(term.q_shift)


def _negated(term):
    return rational_term(
        term.q_shift, {d: -c for d, c in term.numerator.items()},
        term.denominator,
    )


@settings(max_examples=80, deadline=None)
@given(_terms)
def test_term_expansion_matches_dense_reference(term):
    # any factor order, weighted factors first included
    assert term.expand(ORDER) == _dense_expand(term, ORDER)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_terms, max_size=4), st.lists(_terms, max_size=3), st.booleans()
)
def test_expand_terms_matches_term_by_term_sum(terms, tail_terms, cancel):
    if cancel and terms:
        terms.append(_negated(terms[0]))
    subs = normalize_substitution({"t": 1, "w": (1, 2), "v": 0})
    tail = _Tail([t.substitute(subs) for t in tail_terms])
    want = DenseSeries.zero(ORDER)
    for term in terms + tail.terms_up_to(ORDER):
        want = want + term.expand(ORDER)
    assert expand_terms(terms, tail, ORDER) == want


def _with_tail(terms, tail, order):
    return list(terms) + ([] if tail is None else tail.terms_up_to(order))


def reference_expand_terms(terms, tail, order):
    """The sum of the terms' and the tail's dense single-term expansions."""
    total = DenseSeries.zero(order)
    for term in _with_tail(terms, tail, order):
        total = total + _dense_expand(term, order)
    return total


def reference_over_one_denominator(sides, order):
    """The per-term clearing that `over_one_denominator` replaced, as dense
    products: each numerator is multiplied by the factors of its side's
    denominator D that its term lacks, and each side's sum then by the
    factors of U that D lacks.  Returns the numerators and U."""
    cleared = []
    for terms, tail in sides:
        kept = [
            (t, Counter(f for f in t.denominator if f[1] <= order))
            for t in _with_tail(terms, tail, order)
            if t.numerator and t.q_shift <= order
        ]
        den = Counter()
        for _, own in kept:
            den |= own
        total = DenseSeries.zero(order)
        for term, own in kept:
            num = DenseSeries.from_terms(
                order - term.q_shift, term.numerator
            )
            for factor in (den - own).elements():
                num = num * _one_minus(factor, num.order)
            total = total + num.shifted(term.q_shift)
        cleared.append((total, den))
    union = Counter()
    for _, den in cleared:
        union |= den
    numerators = []
    for total, den in cleared:
        for factor in (union - den).elements():
            total = total * _one_minus(factor, order)
        numerators.append(total)
    return numerators, union


_numerators = st.dictionaries(st.integers(0, 4), _polys, min_size=1, max_size=3)


@st.composite
def _folded_sums(draw):
    """Terms over prefixes of one factor list (nested denominators, as in a
    Rogers-Ramanujan sum), over any factors (disjoint or repeated ones),
    shifts past the order, and a tail."""
    chain = draw(st.lists(_term_factors, max_size=6))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            den = chain[: draw(st.integers(0, len(chain)))]
        else:
            den = draw(st.lists(_term_factors, max_size=4))
        shift = draw(st.integers(0, ORDER + 2))
        terms.append(rational_term(shift, draw(_numerators), tuple(den)))
    tail = _Tail(draw(st.lists(_terms, max_size=3))) if draw(st.booleans()) else None
    return terms, tail


# the deeper term lacks the shallower one's factor, so a copy of its
# numerator is multiplied in place
_LACKING = (
    [
        rational_term(0, 1, ((MONO_ONE, 1), (MONO_ONE, 2))),
        rational_term(0, {0: 1, 1: T, 2: T * T}, ((MONO_T, 1),)),
    ],
    None,
)


@settings(max_examples=100, deadline=None)
@given(_folded_sums())
@example(_LACKING)
def test_folded_sum_matches_common_denominator_reference(terms_and_tail):
    terms, tail = terms_and_tail
    got = expand_terms(terms, tail, ORDER)
    assert got == reference_expand_terms(terms, tail, ORDER)
    assert expand_terms(terms, tail, ORDER) == got   # numerators left intact


@settings(max_examples=100, deadline=None)
@given(_folded_sums(), _folded_sums())
@example(_LACKING, ([], None))
def test_cleared_sides_match_per_term_clearing(first, second):
    sides = (first, second)
    want, union = reference_over_one_denominator(sides, ORDER)
    assert _decoded(over_one_denominator(sides, ORDER)) == want
    own = [Counter(series._plan(*side, ORDER)[1]) for side in sides]
    assert own[0] | own[1] == union
    assert _decoded(over_one_denominator(sides, ORDER)) == want   # intact


def _decoded(numerators):
    return [n.decode() for n in numerators]


def test_nested_denominators_cost_one_pass_per_factor(monkeypatch):
    # sum_{m<=6} q^(m^2) t^m / (q;q)_m: the fold multiplies by each factor
    # once (per-term clearing took 21 multiplications), and an expansion
    # then divides by each once
    calls = {False: [], True: []}
    apply = series._Packing._apply

    def counted(self, digits, factors, divide):
        factors = list(factors)
        calls[divide].extend(factors)
        return apply(self, digits, factors, divide)

    monkeypatch.setattr(series._Packing, "_apply", counted)
    terms = [
        rational_term(
            m * m, {0: WeightPolynomial.monomial(m * MONO_T)},
            tuple((MONO_ONE, j) for j in range(1, m + 1)),
        )
        for m in range(7)
    ]
    each = [(MONO_ONE, j) for j in range(1, 7)]
    got = expand_terms(terms, None, 40)
    assert sorted(calls[False]) == each
    assert sorted(calls[True]) == each
    for seen in calls.values():
        seen.clear()
    (numerator,) = over_one_denominator(((terms, None),), 40)
    assert sorted(calls[False]) == each
    assert calls[True] == []
    monkeypatch.undo()
    assert got == reference_expand_terms(terms, None, 40)
    (want,), _ = reference_over_one_denominator(((terms, None),), 40)
    assert numerator.decode() == want


def test_common_denominator_keeps_largest_multiplicity_within_order():
    terms = (
        rational_term(0, 1, ((MONO_ONE, 1), (MONO_ONE, 1), (MONO_T, 2))),
        rational_term(3, T, ((MONO_ONE, 1), (MONO_W, 20))),
        rational_term(11, 1, ((MONO_V, 3),)),    # past the order
        rational_term(2, {}, ((MONO_X, 4),)),    # zero numerator
    )
    (numerator,) = over_one_denominator(((terms, None),), 10)
    own = series._plan(terms, None, 10)[1]
    assert own == Counter({(MONO_ONE, 1): 2, (MONO_T, 2): 1})
    # 1 + q^3*t*(1 - q)*(1 - t*q^2), up to q^10
    want = DenseSeries.from_terms(
        10, {0: 1, 3: T, 4: -T, 5: -T * T, 6: T * T}
    )
    assert numerator.decode() == want
    # a second side over (1 - t*q^2)^2: U holds that factor twice, and each
    # numerator is multiplied by the factors of U its side lacks
    other = (rational_term(1, 1, ((MONO_T, 2), (MONO_T, 2))),)
    assert series._plan(other, None, 10)[1] == Counter(
        {(MONO_T, 2): 2}
    )
    first, second = over_one_denominator(((terms, None), (other, None)), 10)
    assert first.decode() == want * _one_minus((MONO_T, 2), 10)
    square = _one_minus((MONO_ONE, 1), 10) * _one_minus((MONO_ONE, 1), 10)
    assert second.decode() == DenseSeries.from_terms(10, {1: 1}) * square


def test_common_denominator_bounds_weight_exponents():
    # w^(FIELD_MASK - 1) over (1 - w*q)(1 - w*q^2): the other side's
    # numerator gains both factors, so w could reach FIELD_MASK + 1
    top = rational_term(
        0, WeightPolynomial.monomial(pack_monomial(w=FIELD_MASK - 1)),
        ((MONO_W, 1), (MONO_W, 2)),
    )
    sides = (((top,), None), ((rational_term(0, 1),), None))
    with pytest.raises(FieldOverflowError) as info:
        over_one_denominator(sides, 10)
    assert str(info.value) == (
        f"the exponent of w could reach {FIELD_MASK + 1} over the common "
        f"denominator at order 10, above {FIELD_MASK}"
    )
    # at order 1, U keeps only (1 - w*q): within the field
    over_one_denominator(sides, 1)


def test_expansion_bounds_weight_exponents():
    # t^FIELD_MASK / (1 - t*q) to q^2: its coefficient of q^2 is
    # t^(FIELD_MASK + 2), which would carry into the field of w
    top = rational_term(
        0, WeightPolynomial.monomial(pack_monomial(t=FIELD_MASK)),
        ((MONO_T, 1),),
    )
    with pytest.raises(FieldOverflowError) as info:
        expand_terms((top,), None, 2)
    assert str(info.value) == (
        f"the exponent of t could reach {FIELD_MASK + 2} in the expansion "
        f"at order 2, above {FIELD_MASK}"
    )
    # (1 - t*q^3) acts first at q^3, past the order: within the field
    late = rational_term(0, top.numerator, ((MONO_T, 3),))
    assert expand_terms((late,), None, 2).coeffs[0] == top.numerator[0]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_terms, min_size=1, max_size=4),
    st.integers(0, 10),
    _term_factors,
    st.one_of(st.none(), st.tuples(st.integers(0, ORDER + 2), _polys)),
)
def test_cleared_comparison_matches_expanded_one(terms, at, factor, extra):
    # the same sum with one term's numerator and denominator both
    # multiplied by a factor, perhaps plus one more term
    i = at % len(terms)
    term = terms[i]
    mono, e = factor
    other = list(terms)
    other[i] = rational_term(
        term.q_shift,
        qpoly_mul(term.numerator, {0: 1, e: WeightPolynomial.monomial(mono, -1)}),
        term.denominator + (factor,),
    )
    if extra is not None:
        other.append(rational_term(extra[0], extra[1]))
    expanded = series_equal(
        expand_terms(terms, None, ORDER), expand_terms(other, None, ORDER)
    )
    lhs, rhs = over_one_denominator(((terms, None), (other, None)), ORDER)
    cleared = series_equal(lhs.decode(), rhs.decode())
    assert lhs.first_difference(rhs) == cleared.degree
    assert (lhs == rhs) == cleared.equal
    assert cleared.equal == expanded.equal
    # U has constant term 1: the first difference keeps its degree and value
    assert cleared.degree == expanded.degree
    if not cleared.equal:
        assert cleared.lhs - cleared.rhs == expanded.lhs - expanded.rhs
    if extra is None or extra[0] > ORDER or not extra[1]:
        assert cleared.equal


# ---------------------------------------------------------------------------
# The packed kernel against the dense reference, at the width it derives.
# ---------------------------------------------------------------------------

def _times_one_plus(coeffs, e):
    return [c + (coeffs[n - e] if n >= e else 0) for n, c in enumerate(coeffs)]


def _over_one_minus(coeffs, e):
    out = list(coeffs)
    for n in range(e, len(out)):
        out[n] += out[n - e]
    return out


def _majorant(terms, tail, order, then, divide):
    """The width rule's univariate majorant by plain integer lists: the sum
    over the kept terms of |N_t| * q^shift times (1 + q^e) for each factor
    of D the term lacks, then over (1 - q^e) or times (1 + q^e) for each
    factor of `then`, the multiset D or U - D."""
    kept = [
        (t, Counter(f for f in t.denominator if f[1] <= order))
        for t in _with_tail(terms, tail, order)
        if t.numerator and t.q_shift <= order
    ]
    den = Counter()
    for _, own in kept:
        den |= own
    total = [0] * (order + 1)
    for term, own in kept:
        part = [0] * (order + 1)
        for d, coeff in term.numerator.items():
            if term.q_shift + d <= order:
                part[term.q_shift + d] = sum(map(abs, coeff.terms.values()))
        for _, e in (den - own).elements():
            part = _times_one_plus(part, e)
        total = [a + b for a, b in zip(total, part)]
    for _, e in then(den).elements():
        total = (_over_one_minus if divide else _times_one_plus)(total, e)
    return max(total)


_wide_polys = st.builds(
    WeightPolynomial,
    st.dictionaries(
        _monomials, st.integers(-(10 ** 6), 10 ** 6), max_size=3
    ),
)


@st.composite
def _wide_sums(draw):
    """Sums as `_folded_sums` draws them, with numerator coefficients up
    to 10^6 in size, so that the width grows with the inputs."""
    terms, tail = draw(_folded_sums())
    extra = draw(st.lists(st.builds(
        rational_term,
        st.integers(0, ORDER + 2),
        st.dictionaries(st.integers(0, 4), _wide_polys, min_size=1, max_size=3),
        st.lists(_term_factors, max_size=4).map(tuple),
    ), max_size=2))
    return terms + extra, tail


def _within(series, width):
    half = 1 << (width - 1)
    return all(
        -half < c < half for coeff in series.coeffs for c in coeff.terms.values()
    )


@settings(max_examples=100, deadline=None)
@given(_wide_sums(), _wide_sums())
@example(_LACKING, ([], None))
def test_packed_kernel_matches_dense_reference_at_derived_width(first, second):
    # weighted and weight-free factors, repeated ones, e and shifts past
    # the order, negative numerator coefficients and tails
    for terms, tail in (first, second):
        (packed,) = expand_packed(((terms, tail),), ORDER)
        bits = _majorant(terms, tail, ORDER, lambda den: den, True)
        assert packed.width == 1 + bits.bit_length()
        assert packed.decode() == reference_expand_terms(terms, tail, ORDER)
        assert _within(packed.decode(), packed.width)
    sides = (first, second)
    want, union = reference_over_one_denominator(sides, ORDER)
    numerators = over_one_denominator(sides, ORDER)
    bits = max(
        _majorant(*side, ORDER, lambda den: union - den, False)
        for side in sides
    )
    assert {n.width for n in numerators} == {1 + bits.bit_length()}
    assert _decoded(numerators) == want
    degree = numerators[0].first_difference(numerators[1])
    assert degree == series_equal(*want).degree
    assert (numerators[0] == numerators[1]) == (degree is None)


def _packed_at(terms, order, width):
    """`expand_packed` at a given width instead of the derived one."""
    plan, den = series._plan(terms, None, order)
    kernel = series._Packing(width, order)
    acc = series._over_own_denominator(plan, kernel)
    kernel.divide(acc, list(Counter(den).elements()))
    return series.PackedSeries(order, width, acc)


def test_one_bit_fewer_than_derived_packs_wrongly():
    # 255 needs 9 bits: at 8, it packs like -1 + q and decodes as that
    big = (rational_term(0, 255),)
    small = (rational_term(0, {0: -1, 1: 1}),)
    a, b = over_one_denominator(((big, None), (small, None)), 3)
    assert a.width == 9 and a != b
    assert a.decode() == DenseSeries.from_terms(3, {0: 255})
    narrow = _packed_at(big, 3, 8)
    assert narrow == _packed_at(small, 3, 8)
    assert narrow.decode() == DenseSeries.from_terms(3, {0: -1, 1: 1})
    # 1/(1 - t*q)^3 to q^14: its largest coefficient, 120*t^14, is the
    # majorant's (7 bits)
    term = (rational_term(0, 1, ((MONO_T, 1),) * 3),)
    (exact,) = expand_packed(((term, None),), 14)
    assert exact.decode() == _dense_expand(term[0], 14)
    assert exact.decode().coeffs[14] == WeightPolynomial.monomial(14 * MONO_T, 120)
    assert exact.width == 8
    assert _packed_at(term, 14, exact.width).decode() == exact.decode()
    assert _packed_at(term, 14, exact.width - 1).decode() != exact.decode()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 12).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.integers(-(1 << (width - 1)) + 1, (1 << (width - 1)) - 1),
            min_size=1, max_size=9,
        ),
    )),
    st.integers(0, 8),
)
def test_balanced_digits_round_trip(width_digits, at):
    width, digits = width_digits
    mask = (1 << width * len(digits)) - 1
    value = sum(c << width * n for n, c in enumerate(digits)) & mask
    assert list(series.nonzero_digits(value, width, len(digits))) == [
        (n, c) for n, c in enumerate(digits) if c
    ]
    assert [
        series.balanced_digit(value, n, width) for n in range(len(digits))
    ] == digits
    other = list(digits)
    at %= len(digits)
    other[at] = -other[at] or 1
    changed = sum(c << width * n for n, c in enumerate(other)) & mask
    first = next(n for n, (x, y) in enumerate(zip(digits, other)) if x != y)
    assert series.first_difference({0: value}, {0: changed}, width) == first
    assert series.first_difference({0: value}, {0: value}, width) is None

