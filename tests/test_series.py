"""Exact-arithmetic layer: weight polynomials, series, rational terms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter

from rrweights import series
from rrweights.series import (
    MONO_ONE,
    MONO_T,
    MONO_V,
    MONO_W,
    MONO_X,
    FactorError,
    TruncatedSeries,
    WeightPolynomial,
    cleared_equal,
    expand_inverse_factor,
    expand_terms,
    normalize_substitution,
    over_common_denominator,
    pack_monomial,
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
        with pytest.raises(ValueError):
            parse_monomial("z^2")

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
        assert g + TruncatedSeries.zero(6) == g

    def test_add_simple(self):
        a = TruncatedSeries.from_terms(1, {0: 1, 1: 1})
        b = TruncatedSeries.from_terms(1, {1: 1})
        assert a + b == TruncatedSeries.from_terms(1, {0: 1, 1: 2})

    def test_geometric_plus_alternating(self):
        # hand expansion of 1/(1-q) plus its sign-alternating counterpart
        geom = expand_inverse_factor((MONO_ONE, 1), 4)
        alt = TruncatedSeries(
            4, [WeightPolynomial.const((-1) ** n) for n in range(5)]
        )
        assert geom + alt == TruncatedSeries.from_terms(4, {0: 2, 2: 2, 4: 2})

    def test_mul_identity(self):
        g = expand_inverse_factor((MONO_T, 2), 8)
        assert g * TruncatedSeries.one(8) == g

    def test_telescoping(self):
        one_minus_q = TruncatedSeries.from_terms(10, {0: 1, 1: -1})
        full = TruncatedSeries.from_terms(10, {n: 1 for n in range(11)})
        assert one_minus_q * full == TruncatedSeries.one(10)

    def test_geometric_inverse(self):
        factor = TruncatedSeries.from_terms(10, {0: 1, 2: -T})
        assert factor * expand_inverse_factor((MONO_T, 2), 10) == (
            TruncatedSeries.one(10)
        )

    def test_min_order_semantics(self):
        a = TruncatedSeries.one(10)
        b = TruncatedSeries.one(4)
        assert (a + b).order == 4
        assert (a * b).order == 4


class TestInverseFactor:
    def test_single_weight(self):
        got = expand_inverse_factor((MONO_T, 2), 7)
        want = TruncatedSeries.from_terms(
            7, {0: 1, 2: T, 4: T * T, 6: T * T * T}
        )
        assert got == want

    def test_plain(self):
        assert expand_inverse_factor((MONO_ONE, 1), 3) == (
            TruncatedSeries.from_terms(3, {0: 1, 1: 1, 2: 1, 3: 1})
        )

    def test_large_step(self):
        got = expand_inverse_factor((MONO_V, 7), 20)
        want = TruncatedSeries.from_terms(20, {0: 1, 7: V, 14: V * V})
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
        lhs = TruncatedSeries.from_terms(
            200, {0: 1, e: WeightPolynomial.monomial(mono, -1)}
        )
        assert lhs * inv == TruncatedSeries.one(200)
        # truncation consistency extends the law to every smaller order
        for k in (0, 1, 5, 63, 199):
            assert inv.truncated(k) == expand_inverse_factor(factor, k)


class TestRationalTerm:
    def test_hand_expansion(self):
        term = rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),))
        got = term.expand(6)
        want = TruncatedSeries.from_terms(
            6, {2: T, 3: 1, 4: T * T, 5: T, 6: T * T * T}
        )
        assert got == want

    def test_shift_beyond_truncation(self):
        term = rational_term(8, {0: T, 1: 1}, ((MONO_T, 2),))
        assert term.expand(7) == TruncatedSeries.zero(7)

    def test_constant_term(self):
        assert rational_term(0, 1).expand(5) == TruncatedSeries.one(5)

    def test_negative_degrees_fold_into_shift(self):
        term = rational_term(6, {-5: 1, 0: 1})
        assert term.q_shift == 1
        assert term.expand(8) == TruncatedSeries.from_terms(8, {1: 1, 6: 1})

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            rational_term(2, {-3: 1})

    def test_truncation_consistency(self):
        term = rational_term(
            3, {0: 1, 1: W, 4: V * V}, ((MONO_T, 2), (MONO_ONE, 1), (MONO_V, 7))
        )
        full = term.expand(60)
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

    def test_series_level_substitution_matches_term_level(self):
        term = rational_term(2, {0: T, 1: W}, ((MONO_T, 2), (MONO_W, 3)))
        subs = normalize_substitution({"t": 1, "w": (1, 2)})
        assert term.expand(30).substitute(subs) == term.substitute(subs).expand(30)


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
        assert got.coefficient(n) == want[n]


class TestEqualityReport:
    def test_equal(self):
        a = expand_inverse_factor((MONO_T, 2), 9)
        report = series_equal(a, a)
        assert report.equal and report.order == 9

    def test_first_discrepancy(self):
        a = TruncatedSeries.from_terms(3, {0: 1, 1: 1})
        b = TruncatedSeries.from_terms(3, {0: 1, 1: 2})
        report = series_equal(a, b)
        assert not report.equal
        assert report.degree == 1
        assert report.lhs == ONE and report.rhs == WeightPolynomial.const(2)


class TestCanonicalStrings:
    def test_series_string(self):
        s = TruncatedSeries.from_terms(3, {0: 1, 2: T, 3: W})
        assert str(s) == "1 + t*q^2 + w*q^3"

    def test_multi_term_coefficient_parenthesized(self):
        s = TruncatedSeries.from_terms(4, {4: T * T + W})
        assert str(s) == "(w + t^2)*q^4"

    def test_degree_one_and_negatives(self):
        s = TruncatedSeries.from_terms(3, {1: 1, 3: -ONE})
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
    lambda coeffs: TruncatedSeries(6, coeffs),
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
# In-place division and the term accumulator against the dense product.
# ---------------------------------------------------------------------------

_factors = st.tuples(_monomials, st.integers(1, 10))


def _series_of(order):
    return st.lists(_polys, min_size=order + 1, max_size=order + 1).map(
        lambda coeffs: TruncatedSeries(order, coeffs)
    )


def _one_minus(factor, order):
    mono, e = factor
    return TruncatedSeries.from_terms(
        order, {0: 1, e: WeightPolynomial.monomial(mono, -1)}
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_divide_by_factor_matches_dense_product(acc, factor):
    # exponents up to 10 against orders up to 9 cover e >= order
    want = acc * expand_inverse_factor(factor, acc.order)
    before = list(acc.coeffs)
    got = TruncatedSeries(acc.order, list(acc.coeffs)).divide_by_factor(factor)
    assert got == want
    assert acc.coeffs == before  # shared coefficients are replaced, not mutated


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_divide_by_factor_cancels_a_multiplied_factor(acc, factor):
    numerator = acc * _one_minus(factor, acc.order)
    assert numerator.divide_by_factor(factor) == acc


@pytest.mark.parametrize("factor", [(MONO_ONE, 1), (MONO_T, 3), (MONO_X, 40)])
def test_divide_by_factor_keeps_zero_series_zero(factor):
    assert TruncatedSeries.zero(12).divide_by_factor(factor).is_zero()


def test_divide_by_factor_rejects_constant_factor():
    with pytest.raises(FactorError):
        TruncatedSeries.one(5).divide_by_factor((MONO_T, 0))


def test_expanded_term_matches_dense_reference():
    term = rational_term(
        3, {0: T, 2: W - 1, 5: V * X}, ((MONO_T, 2), (MONO_ONE, 1), (MONO_W, 3)),
    )
    work = 40 - term.q_shift
    dense = TruncatedSeries.from_terms(work, term.numerator)
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
    want = TruncatedSeries.zero(20)
    for term in terms + tuple(tail.terms):
        want = want + term.expand(20)
    assert got == want
    assert expand_terms((), None, 7) == TruncatedSeries.zero(7)


# ---------------------------------------------------------------------------
# In-place multiplication and the common denominator against dense products.
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_multiply_by_factor_matches_dense_product(acc, factor):
    want = acc * _one_minus(factor, acc.order)
    before = list(acc.coeffs)
    got = TruncatedSeries(acc.order, list(acc.coeffs)).multiply_by_factor(factor)
    assert got == want
    assert acc.coeffs == before  # shared coefficients are replaced, not mutated


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9).flatmap(_series_of), _factors)
def test_multiply_by_factor_inverts_divide_by_factor(acc, factor):
    copy = TruncatedSeries(acc.order, list(acc.coeffs))
    assert copy.divide_by_factor(factor).multiply_by_factor(factor) == acc
    assert copy.multiply_by_factor(factor).divide_by_factor(factor) == acc


def test_multiply_by_factor_rejects_constant_factor():
    with pytest.raises(FactorError):
        TruncatedSeries.one(5).multiply_by_factor((MONO_T, 0))


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
        return TruncatedSeries.zero(order)
    work = order - term.q_shift
    dense = TruncatedSeries.from_terms(work, term.numerator)
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
    want = TruncatedSeries.zero(ORDER)
    for term in terms + tail.terms_up_to(ORDER):
        want = want + term.expand(ORDER)
    assert expand_terms(terms, tail, ORDER) == want


def reference_expand_terms(terms, tail, order):
    """The common-denominator sum that `expand_terms` replaced: every
    numerator multiplied up to the least common denominator, which is then
    divided out once per factor."""
    numerator, factors = over_common_denominator(terms, tail, order)
    return series._divide_out(numerator, factors.elements())


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


@settings(max_examples=100, deadline=None)
@given(_folded_sums())
def test_folded_sum_matches_common_denominator_reference(terms_and_tail):
    terms, tail = terms_and_tail
    assert expand_terms(terms, tail, ORDER) == reference_expand_terms(
        terms, tail, ORDER
    )


def test_nested_denominators_divide_once_per_factor(monkeypatch):
    # sum_{m<=6} q^(m^2) t^m / (q;q)_m: six divisions and no multiplication
    calls = []
    divide = TruncatedSeries.divide_by_factor

    def counted(self, factor):
        calls.append(factor)
        return divide(self, factor)

    def refuse(self, factor):
        raise AssertionError("expand_terms multiplied")

    monkeypatch.setattr(TruncatedSeries, "divide_by_factor", counted)
    monkeypatch.setattr(TruncatedSeries, "multiply_by_factor", refuse)
    terms = [
        rational_term(
            m * m, {0: WeightPolynomial.monomial(m * MONO_T)},
            tuple((MONO_ONE, j) for j in range(1, m + 1)),
        )
        for m in range(7)
    ]
    got = expand_terms(terms, None, 40)
    assert sorted(calls) == [(MONO_ONE, j) for j in range(1, 7)]
    monkeypatch.undo()
    assert got == reference_expand_terms(terms, None, 40)


def test_common_denominator_keeps_largest_multiplicity_within_order():
    terms = (
        rational_term(0, 1, ((MONO_ONE, 1), (MONO_ONE, 1), (MONO_T, 2))),
        rational_term(3, T, ((MONO_ONE, 1), (MONO_W, 20))),
        rational_term(11, 1, ((MONO_V, 3),)),    # past the order
        rational_term(2, {}, ((MONO_X, 4),)),    # zero numerator
    )
    numerator, factors = over_common_denominator(terms, None, 10)
    assert factors == Counter({(MONO_ONE, 1): 2, (MONO_T, 2): 1})
    # 1 + q^3*t*(1 - q)*(1 - t*q^2), up to q^10
    want = TruncatedSeries.from_terms(
        10, {0: 1, 3: T, 4: -T, 5: -T * T, 6: T * T}
    )
    assert numerator == want


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
    expanded = expand_terms(terms, None, ORDER) == expand_terms(other, None, ORDER)
    cleared = cleared_equal(
        over_common_denominator(terms, None, ORDER),
        over_common_denominator(other, None, ORDER),
    )
    assert cleared == expanded
    if extra is None or extra[0] > ORDER or not extra[1]:
        assert cleared
