"""Catalog integrity, expansion oracles and verification behavior."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import DenseSeries, expand_inverse_factor
from rrweights import identities
from rrweights.identities import (
    MAX_PARAM,
    ParameterError,
    UnknownIdentityError,
    VerificationReport,
    catalog,
    expand_product_side,
    expand_sum_side,
    get_entry,
    verify,
    verify_all,
)
from rrweights.partitions import MOD5_23, PartitionClass, enumerate_class
from rrweights.series import (
    MONO_ONE,
    MONO_T,
    MONO_V,
    MONO_W,
    MONO_X,
    SubstitutionError,
    WeightPolynomial,
    monomial_str,
    normalize_substitution,
    pack_monomial,
    rational_term,
    series_equal,
)

T = WeightPolynomial.variable("t")


def _spec(identity_id, M=None):
    return get_entry(identity_id).instantiate(M)


def weighted_class_coefficients(pclass, weights, order):
    """Brute-force oracle: coefficient of q^n as a weight polynomial.

    Enumerates the partition class directly and tallies one monomial per
    partition, the product of weights[size] over its parts, so it is
    independent of the series machinery.
    """
    out = []
    for n in range(order + 1):
        terms = {}
        for p in enumerate_class(pclass, n):
            mono = MONO_ONE
            for size, weight in weights.items():
                mono += weight * p.multiplicity(size)
            terms[mono] = terms.get(mono, 0) + 1
        out.append(WeightPolynomial(terms))
    return out


def dense_product_expansion(product, order):
    """The product side by dense multiplication with geometric series.

    The expansion kernel divides in place; this is the reference it is
    held to.
    """

    def dense(term, work):
        acc = DenseSeries.from_terms(
            work, {d: c for d, c in term.numerator.items() if d <= work}
        )
        for factor in term.denominator:
            acc = acc * expand_inverse_factor(factor, work)
        return acc

    acc = DenseSeries.one(order)
    for factor in product.factor_list(order):
        acc = acc * expand_inverse_factor(factor, order)
    if product.prefactor is not None:
        pre = product.prefactor
        part = DenseSeries.zero(order)
        if pre.numerator and pre.q_shift <= order:
            part = dense(pre, order - pre.q_shift).shifted(pre.q_shift)
        acc = acc * part
    return acc


class ClosureTail:
    """A tail as the catalog built it before tails were data: term m comes
    from a closure, and a substitution wraps the closure in another.  Kept
    as the reference that `TailFamily.terms_up_to` is held to."""

    def __init__(self, start, shift, term):
        self.start = start
        self.shift = shift
        self.term = term

    def terms_up_to(self, order):
        m = self.start
        while self.shift(m) <= order:
            t = self.term(m)
            if not t.is_zero():
                yield t
            m += 1

    def substituted(self, subs):
        base = self.term
        return ClosureTail(
            self.start, self.shift, lambda m: base(m).substitute(subs)
        )


def _closure_tail(m0, shift_fn, weight_map):
    return ClosureTail(
        m0,
        shift_fn,
        lambda m: rational_term(
            shift_fn(m), 1,
            tuple((weight_map.get(e, MONO_ONE), e) for e in range(1, m + 1)),
        ),
    )


def _tail23(m0, weight_map=None):
    return _closure_tail(m0, lambda m: m * (m + 1), weight_map or {})


def _tail14(m0, weight_map=None):
    return _closure_tail(m0, lambda m: m * m, weight_map or {})


def _spec3_display_tail():
    return ClosureTail(
        3,
        lambda m: m * (m + 1),
        lambda m: rational_term(
            m * (m + 1), 1,
            ((MONO_ONE, 1), (MONO_ONE, 2), (MONO_ONE, 5))
            + tuple((MONO_ONE, e) for e in range(4, m + 1)),
        ),
    )


def _subst(tail, mapping):
    return tail.substituted(normalize_substitution(mapping))


_FIRSTTW_TAIL = _tail23(3, {2: MONO_T, 3: MONO_W})
_TWVX23_TAIL = _tail23(
    8, {2: MONO_T, 3: MONO_W, 7: MONO_V, 8: MONO_X}
)
_TWVX14_TAIL = _tail14(9, {1: MONO_T, 4: MONO_W, 6: MONO_V, 9: MONO_X})

# id -> M -> the closure tail the catalog built for that instance
REFERENCE_TAILS = {
    "rr1": lambda M: _tail14(1),
    "rr2": lambda M: _tail23(1),
    "miniprop": lambda M: _tail23(2, {2: MONO_T}),
    "partM": lambda M: _tail23(M + 1, {M + 1: MONO_T}),
    "partMeq": lambda M: _tail14(M + 1, {M + 1: MONO_T}),
    "twopartM": lambda M: _tail23(M, {2: MONO_T, M: MONO_W}),
    "twopart14": lambda M: _tail14(M, {1: MONO_T, M: MONO_W}),
    "firsttw": lambda M: _FIRSTTW_TAIL,
    "secondtw": lambda M: _FIRSTTW_TAIL,
    "twvthm": lambda M: _tail23(7, {2: MONO_T, 3: MONO_W, 7: MONO_V}),
    "twvx23theorem": lambda M: _TWVX23_TAIL,
    "twvx14thm": lambda M: _TWVX14_TAIL,
    "spec3_display": lambda M: _spec3_display_tail(),
    "spec1": lambda M: _subst(
        _TWVX23_TAIL, {"t": 1, "w": 0, "v": 1, "x": 0}
    ),
    "spec2": lambda M: _subst(
        _TWVX14_TAIL, {"t": 0, "w": 0, "v": 0, "x": 0}
    ),
    "spec3_firsttw": lambda M: _subst(_FIRSTTW_TAIL, {"t": 1, "w": (1, 2)}),
    "spec3_secondtw": lambda M: _subst(_FIRSTTW_TAIL, {"t": 1, "w": (1, 2)}),
}


def tail_shape(tail, order):
    """Per tail term: q-shift, numerator and the multiset of its factors,
    whose order the expansion does not depend on."""
    return [
        (t.q_shift, t.numerator, Counter(t.denominator))
        for t in tail.terms_up_to(order)
    ]


# (id, product side) for every catalog entry with one, at its first instance
_PRODUCTS = [
    (e.id, p) for e in catalog()
    if (p := e.instantiate(e.sweep(8)[0]).product) is not None
]


class TestCatalogShape:
    def test_ids_unique(self):
        ids = [e.id for e in catalog()]
        assert len(ids) == len(set(ids))

    def test_case_insensitive_lookup(self):
        assert get_entry("RR2").id == "rr2"
        with pytest.raises(UnknownIdentityError):
            get_entry("nope")

    def test_partM_admissible_set(self):
        entry = get_entry("partM")
        assert [M + 1 for M in entry.sweep(14)] == [2, 3, 7, 8, 12, 13]

    def test_twopartM_parameter_domain(self):
        entry = get_entry("twopartM")
        entry.instantiate(7)
        with pytest.raises(ParameterError):
            entry.instantiate(3)
        with pytest.raises(ParameterError):
            entry.instantiate(9)  # 9 = 4 mod 5

    def test_param_and_sweep_bound_capped(self):
        entry = get_entry("weirdeq_general")
        assert entry.instantiate(MAX_PARAM).params == {"M": MAX_PARAM}
        assert entry.sweep(MAX_PARAM)[-1] == MAX_PARAM
        with pytest.raises(ParameterError):
            entry.instantiate(MAX_PARAM + 1)
        with pytest.raises(ParameterError):
            entry.sweep(MAX_PARAM + 1)
        # a fixed entry has no M, so its sweep ignores the bound
        assert get_entry("rr1").sweep(MAX_PARAM + 1) == [None]

    def test_twopart14_admissible_set(self):
        assert get_entry("twopart14").sweep(40) == [4, 6, 14, 16, 24, 26, 34, 36]

    def test_fixed_entry_rejects_parameter(self):
        with pytest.raises(ParameterError):
            get_entry("miniprop").instantiate(3)

    def test_parameter_required(self):
        with pytest.raises(ParameterError):
            get_entry("partM").instantiate()

    def test_baselines_share_staircase_and_residues(self):
        # a substituted spec keeps its parent's baseline
        baselines = {}
        for entry in catalog():
            for M in entry.sweep(40):
                spec = entry.instantiate(M)
                if spec.baseline is None:
                    continue
                baselines[entry.id] = spec.baseline
                base = _spec(spec.baseline)
                assert spec.tail.staircase == base.tail.staircase, entry.id
                assert spec.product.residues == base.product.residues, entry.id
        assert {
            id: baselines[id] for id in (
                "spec1", "spec2", "spec3_firsttw", "spec3_secondtw",
                "spec3_display",
            )
        } == {
            "spec1": "rr2", "spec2": "rr1", "spec3_firsttw": "rr2",
            "spec3_secondtw": "rr2", "spec3_display": "rr2",
        }


class TestExpansions:
    def test_miniprop_sum_prefix(self):
        got = expand_sum_side(_spec("miniprop"), 5)
        want = DenseSeries.from_terms(
            5, {0: 1, 2: T, 3: 1, 4: T * T, 5: T}
        )
        assert got == want

    def test_rr2_product_prefix(self):
        got = expand_product_side(_spec("rr2"), 7)
        want = DenseSeries.from_terms(
            7, {0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2}
        )
        assert got == want

    def test_miniprop_product_q4_coefficient(self):
        got = expand_product_side(_spec("miniprop"), 4)
        assert got.coeffs[4] == T * T

    def test_order_zero_is_one_for_product_entries(self):
        for entry in catalog():
            spec = entry.instantiate(entry.sweep(12)[0])
            if spec.product is None:
                continue
            assert expand_sum_side(spec, 0) == DenseSeries.one(0)
            assert expand_product_side(spec, 0) == DenseSeries.one(0)

    def test_twvx14_has_q64_term(self):
        spec = _spec("twvx14thm")
        assert any(term.q_shift == 64 for term in spec.sum_terms)

    def test_tail_truncation_bound(self):
        spec = _spec("rr2")
        shifts = [t.q_shift for t in spec.tail.terms_up_to(60)]
        assert shifts == [m * (m + 1) for m in range(1, 8)]

    def test_sum_side_matches_brute_force_weighted_count(self):
        # independent oracle: weighted enumeration of the product class
        oracle = weighted_class_coefficients(MOD5_23, {2: MONO_T}, 24)
        got = expand_sum_side(_spec("miniprop"), 24)
        for n in range(25):
            assert got.coeffs[n] == oracle[n]

    @pytest.mark.parametrize(
        "name", ["twvx14thm", "spec2", "firsttw", "rr2", "spec3_display"]
    )
    def test_expanding_twice_gives_equal_series(self, name):
        # the fold divides copies in place, never a term's own numerator:
        # spec3_display's sum has a term with a factor the deeper terms lack
        spec = _spec(name)
        first = expand_sum_side(spec, 40), expand_product_side(spec, 40)
        assert (expand_sum_side(spec, 40), expand_product_side(spec, 40)) == first

    @pytest.mark.parametrize("name", [name for name, _ in _PRODUCTS])
    def test_product_side_matches_dense_reference(self, name):
        entry = get_entry(name)
        for M in entry.sweep():
            product = entry.instantiate(M).product
            assert product.expand(40) == dense_product_expansion(product, 40), M

    @pytest.mark.parametrize(
        "name", [name for name, p in _PRODUCTS if p.prefactor is None]
    )
    def test_product_side_matches_brute_force_weighted_count(self, name):
        # the substituted specs included: a size listed as None is
        # forbidden, a factor moved to another exponent forbids its size
        # and allows that exponent, and a factor kept in place weights it
        product = _spec(name).product
        forbidden, extra, weights = set(), set(), {}
        for e, f in product.factor_of.items():
            if f is not None and f[1] == e:
                weights[e] = f[0]
                continue
            forbidden.add(e)
            if f is not None:
                assert f[0] == MONO_ONE, (name, e)
                extra.add(f[1])
        pclass = PartitionClass.congruence(
            product.modulus, product.residues, forbidden, extra
        )
        oracle = weighted_class_coefficients(pclass, weights, 40)
        got = product.expand(40)
        for n in range(41):
            assert got.coeffs[n] == oracle[n], n


class TestTailsMatchClosureReference:
    @pytest.mark.parametrize("order", [60, 200])
    def test_every_catalog_tail(self, order):
        # spec1, spec2, spec3_firsttw and spec3_secondtw included: their
        # references substitute the closure tails of their parents
        for entry in catalog():
            for M in entry.sweep(12):
                tail = entry.instantiate(M).tail
                if entry.id not in REFERENCE_TAILS:
                    assert tail is None, entry.id
                    continue
                want = tail_shape(REFERENCE_TAILS[entry.id](M), order)
                assert tail_shape(tail, order) == want, (entry.id, M)

    @pytest.mark.parametrize("order", [60, 200])
    @pytest.mark.parametrize(
        "name,mappings",
        [
            # bigcomb reads twvx14thm's sum side with x = 1
            ("twvx14thm", [{"x": 1}]),
            # the first substitution fixes t, so the second's t = 0 is void
            ("firsttw", [{"t": 1}, {"t": 0, "w": (1, 2)}]),
        ],
    )
    def test_substituted_again(self, name, mappings, order):
        spec, want = _spec(name), REFERENCE_TAILS[name](None)
        for mapping in mappings:
            spec, want = spec.substituted(mapping), _subst(want, mapping)
        assert tail_shape(spec.tail, order) == tail_shape(want, order)


class TestVerification:
    def test_firsttw_passes(self):
        assert verify(_spec("firsttw"), 60).ok

    def test_partM_at_13_passes(self):
        assert verify(_spec("partM", 12), 80).ok

    def test_injected_fault_reports_first_discrepancy(self):
        spec = _spec("miniprop")
        bad_term = rational_term(
            2, {0: T, 1: WeightPolynomial.const(2)}, ((pack_monomial(1), 2),)
        )
        broken = spec.replace(sum_terms=(spec.sum_terms[0], bad_term))
        report = verify(broken, 40)
        assert not report.ok
        assert report.discrepancy.degree == 3

    def test_rational_identities_pass(self):
        for name in ("weirdeq", "reorder_twv_a", "reorder_twv_b", "x1_reduction"):
            assert verify(_spec(name), 60).ok, name

    def test_parameterized_helpers_pass(self):
        for name, M in (
            ("weirdeq_general", 5),
            ("weirdeq_general_14", 4),
            ("parts2Meq", 2),
            ("parts1Meq", 6),
        ):
            assert verify(_spec(name, M), 50).ok, (name, M)

    def test_verify_entry_sweeps(self):
        reports = verify_all(None, 16, [get_entry("twopart14")])
        assert [r.params["M"] for r in reports] == [4, 6, 14, 16]
        assert all(r.ok for r in reports)

    def test_sweep_checks_first_and_builds_each_before_its_verify(
        self, monkeypatch
    ):
        events = []
        entries = [get_entry("twopart14"), get_entry("miniprop")]
        for entry in entries:
            def build(*M, build=entry.build, id=entry.id):
                events.append(("build", id, *M))
                return build(*M)

            monkeypatch.setattr(entry, "build", build)
        real_verify = identities.verify

        def verified(spec, order):
            events.append(("verify", spec.id, *spec.params.values()))
            return real_verify(spec, order)

        monkeypatch.setattr(identities, "verify", verified)
        # miniprop takes no M: refused before twopart14[M=4] is built
        with pytest.raises(ParameterError):
            verify_all(None, 16, entries, param=4)
        assert events == []
        verify_all(None, 16, entries)
        jobs = [("twopart14", M) for M in (4, 6, 14, 16)] + [("miniprop",)]
        assert events == [
            (step, *job) for job in jobs for step in ("build", "verify")
        ]

    def test_specializations_pass(self):
        for name in ("spec1", "spec3_firsttw", "spec3_secondtw", "spec3_display"):
            assert verify(_spec(name), 60).ok, name
        assert verify(_spec("spec2"), 80).ok

    def test_whole_sweep_passes_at_order_160(self):
        # the floor above the CLI's default orders 60/80
        reports = verify_all(160)
        assert len(reports) == 209
        assert [r.text_line() for r in reports if not r.ok] == []
        assert {r.order for r in reports} == {160}


def reference_verify(spec, order):
    """The expanded comparison that `verify` replaced: both sides expanded
    to the order and compared coefficient by coefficient."""
    report = series_equal(
        expand_sum_side(spec, order), expand_product_side(spec, order)
    )
    return VerificationReport(
        spec.id, spec.params, report.order, report.equal,
        None if report.equal else report,
    )


ORACLE_ORDER = 40


@pytest.mark.parametrize(
    "name,M",
    [
        ("miniprop", None), ("partM", 6), ("twvx14thm", None),
        ("weirdeq", None), ("x1_reduction", None),
    ],
)
@settings(max_examples=40, deadline=None)
@given(
    coeff=st.integers(-3, 3),
    mono=st.sampled_from([MONO_ONE, MONO_T, MONO_W, MONO_T + MONO_V]),
    degree=st.sampled_from([0, ORACLE_ORDER // 2, ORACLE_ORDER]),
    data=st.data(),
)
def test_verify_matches_expanded_reference(name, M, coeff, mono, degree, data):
    # add coeff*mono*q^degree, over no denominator or one of the side's
    # own, to the sum side or to a rational entry's right-hand terms
    spec = _spec(name, M)
    field = "sum_terms"
    if spec.product is None:
        field = data.draw(st.sampled_from(["sum_terms", "rhs_terms"]))
    terms = getattr(spec, field)
    den = data.draw(
        st.sampled_from([()] + [term.denominator for term in terms])
    )
    bump = rational_term(
        degree, {0: WeightPolynomial.monomial(mono, coeff)}, den
    )
    perturbed = spec.replace(**{field: terms + (bump,)})
    got = verify(perturbed, ORACLE_ORDER)
    want = reference_verify(perturbed, ORACLE_ORDER)
    assert got.ok == want.ok == (coeff == 0)
    if not got.ok:
        assert got.discrepancy.degree == want.discrepancy.degree == degree
        assert got.discrepancy.lhs == want.discrepancy.lhs
        assert got.discrepancy.rhs == want.discrepancy.rhs
    assert got.text_line() == want.text_line()
    assert got.to_json() == want.to_json()


class TestWeightErasure:
    @pytest.mark.parametrize(
        "name,M",
        [
            ("miniprop", None), ("partM", 6), ("partMeq", 5), ("twopartM", 7),
            ("twopart14", 4), ("firsttw", None), ("secondtw", None),
            ("twvthm", None), ("twvx23theorem", None), ("twvx14thm", None),
        ],
    )
    def test_erased_sides_match_classical_baseline(self, name, M):
        spec = _spec(name, M)
        erased = spec.substituted({"t": 1, "w": 1, "v": 1, "x": 1})
        baseline = _spec(spec.baseline)
        order = 40
        assert series_equal(
            expand_sum_side(erased, order), expand_sum_side(baseline, order)
        ).equal
        assert series_equal(
            expand_product_side(erased, order),
            expand_product_side(baseline, order),
        ).equal

    def test_erased_rational_identities_still_balance(self):
        for name, M in (("weirdeq", None), ("parts2Meq", 8), ("reorder_twv_b", None)):
            erased = _spec(name, M).substituted({"t": 1, "w": 1, "v": 1, "x": 1})
            assert verify(erased, 40).ok, name


    def test_product_factor_substituted_to_zero_drops_out(self):
        # miniprop's product carries t on its factor (1 - t*q^2)
        product = _spec("miniprop").product
        erased = product.substituted(normalize_substitution({"t": 0}))
        assert erased.factor_list(12) == [
            (MONO_ONE, e) for e in (3, 7, 8, 12)
        ]

    @pytest.mark.parametrize("coeff", [2, -1])
    def test_non_unit_product_factor_is_refused(self, coeff):
        # refused when substituted, before any factor is read
        product = _spec("miniprop").product
        with pytest.raises(SubstitutionError):
            product.substituted(normalize_substitution({"t": coeff}))

    @pytest.mark.parametrize("coeff", [2, -1])
    def test_non_unit_tail_factor_is_refused(self, coeff):
        # miniprop's tail carries t on its factor (1 - t*q^2) too
        tail = _spec("miniprop").tail
        with pytest.raises(SubstitutionError):
            tail.substituted(normalize_substitution({"t": coeff}))

    def test_substituted_specs_hold_their_factors_in_place(self):
        # spec3: size 3's factor (1 - w*q^3) becomes (1 - q^5), as in
        # spec3_display's data; spec1 and spec2: sizes whose weight becomes
        # 0 give no factor, and those whose weight becomes 1 leave the map
        display = _spec("spec3_display")
        assert display.tail.factor_of == {3: (MONO_ONE, 5)}
        assert display.product.factor_of == {3: (MONO_ONE, 5)}
        for name in ("spec3_firsttw", "spec3_secondtw"):
            spec = _spec(name)
            assert spec.tail.factor_of == display.tail.factor_of, name
            assert spec.product.factor_of == display.product.factor_of, name
        spec1 = _spec("spec1")
        assert spec1.tail.factor_of == {3: None, 8: None}
        assert spec1.product.factor_of == {3: None, 8: None}
        spec2 = _spec("spec2")
        nothing = dict.fromkeys((1, 4, 6, 9))
        assert spec2.tail.factor_of == nothing
        assert spec2.product.factor_of == nothing


class TestNonUniqueness:
    def test_firsttw_secondtw_same_series_different_terms(self):
        a = _spec("firsttw")
        b = _spec("secondtw")
        assert a.sum_terms != b.sum_terms
        assert a.product.factor_list(60) == b.product.factor_list(60)
        assert series_equal(
            expand_sum_side(a, 60), expand_sum_side(b, 60)
        ).equal

    def test_spec3_versions_agree(self):
        a = _spec("spec3_firsttw")
        b = _spec("spec3_display")
        assert series_equal(
            expand_sum_side(a, 60), expand_sum_side(b, 60)
        ).equal


class TestPositivityFlags:
    # the helper rational-function identities and spec3_display may have
    # negative sum-side numerators
    EXEMPT = {
        "weirdeq", "weirdeq_general", "weirdeq_general_14",
        "parts2Meq", "parts1Meq", "x1_reduction", "spec3_display",
    }

    def test_helper_entries_exempt(self):
        assert self.EXEMPT <= {e.id for e in catalog()}

    def test_non_exempt_numerators_nonnegative(self):
        for entry in catalog():
            if entry.id in self.EXEMPT:
                continue
            for M in entry.sweep(14):
                for term in entry.instantiate(M).sum_terms:
                    for coeff in term.numerator.values():
                        assert coeff.first_negative() is None, (
                            entry.id, M, str(term)
                        )


class TestReports:
    def test_text_line_and_json(self):
        report = verify(_spec("partM", 1), 40)
        assert report.text_line() == "PASS partM[M=1] order=40"
        doc = report.to_json()
        assert doc == {
            "id": "partM", "params": {"M": 1}, "order": 40, "status": "pass",
        }
        json.dumps(doc)

    def test_failure_report_serializes_discrepancy(self):
        spec = _spec("miniprop")
        broken = spec.replace(sum_terms=spec.sum_terms[:1])
        doc = verify(broken, 40).to_json()
        assert doc["status"] == "fail"
        assert doc["discrepancy"]["degree"] == 2
        assert doc["discrepancy"]["lhs"] == "0"
        assert doc["discrepancy"]["rhs"] == "t"


# Each twin family at its two least admissible M, as the terms printed and
# the tail and product fields: (sum_terms, rhs_terms, tail, product).  A
# tail is (start, staircase, factor_of); a product is (modulus, residues,
# factor_of, prefactor); factor_of prints as {size: (mono, e)}.  `verify`
# passes when both sides change together; these pin each side.
TWIN_INSTANCES = {
    ("weirdeq_general", 1): (
        (
            "(1 - q^2)/(1-t*q^2)",
            "q^2*(1 - q^2)/(1-t*q^2)/(1-q)",
        ),
        (
            "1",
            "q^2*(t + q)/(1-t*q^2)",
        ),
        None,
        None,
    ),
    ("weirdeq_general", 2): (
        (
            "(1 - q^3)/(1-t*q^3)",
            "q^2*(1 - q^3)/(1-t*q^3)/(1-q)",
            "q^6*(1 - q^3)/(1-t*q^3)/(1-q)/(1-q^2)",
        ),
        (
            "1",
            "q^2*(1 + t*q + q^2)/(1-t*q^3)",
            "q^6*(1 - q^3)/(1-t*q^3)/(1-q)/(1-q^2)",
        ),
        None,
        None,
    ),
    ("weirdeq_general_14", 1): (
        (
            "(1 - q^2)/(1-t*q^2)",
            "q*(1 - q^2)/(1-t*q^2)/(1-q)",
        ),
        (
            "1",
            "q*(1 + t*q)/(1-t*q^2)",
        ),
        None,
        None,
    ),
    ("weirdeq_general_14", 2): (
        (
            "(1 - q^3)/(1-t*q^3)",
            "q*(1 - q^3)/(1-t*q^3)/(1-q)",
            "q^4*(1 - q^3)/(1-t*q^3)/(1-q)/(1-q^2)",
        ),
        (
            "1",
            "q*(1 + q + t*q^2)/(1-t*q^3)",
            "q^4*(1 - q^3)/(1-t*q^3)/(1-q)/(1-q^2)",
        ),
        None,
        None,
    ),
    ("partM", 1): (
        (
            "1",
            "q^2*(t + q)/(1-t*q^2)",
        ),
        (),
        (2, 1, "{2: (t, 2)}"),
        (5, (2, 3), "{}", "(1 - q^2)/(1-t*q^2)"),
    ),
    ("partM", 2): (
        (
            "1",
            "q^2*(1 + t*q + q^2)/(1-t*q^3)",
            "q^6*(1 + q + q^2)/(1-t*q^3)/(1-q^2)",
        ),
        (),
        (3, 1, "{3: (t, 3)}"),
        (5, (2, 3), "{}", "(1 - q^3)/(1-t*q^3)"),
    ),
    ("partMeq", 3): (
        (
            "1",
            "q*(1 + q + q^2 + t*q^3)/(1-t*q^4)",
            "q^4*(1 + q + q^2 + q^3)/(1-t*q^4)/(1-q^2)",
            "q^9*(1 + q + q^2 + q^3)/(1-t*q^4)/(1-q^2)/(1-q^3)",
        ),
        (),
        (4, 0, "{4: (t, 4)}"),
        (5, (1, 4), "{}", "(1 - q^4)/(1-t*q^4)"),
    ),
    ("partMeq", 5): (
        (
            "1",
            "q*(1 + q + q^2 + q^3 + q^4 + t*q^5)/(1-t*q^6)",
            "q^4*(1 + q + q^2 + q^3 + q^4 + q^5)/(1-t*q^6)/(1-q^2)",
            "q^9*(1 + q + q^2 + q^3 + q^4 + q^5)/(1-t*q^6)/(1-q^2)/(1-q^3)",
            "q^16*(1 + q + q^2 + q^3 + q^4 + q^5)/(1-t*q^6)/(1-q^2)/(1-q^3)/(1-q^4)",
            "q^25*(1 + q + q^2 + q^3 + q^4 + q^5)/(1-t*q^6)/(1-q^2)/(1-q^3)/(1-q^4)"
            "/(1-q^5)",
        ),
        (),
        (6, 0, "{6: (t, 6)}"),
        (5, (1, 4), "{}", "(1 - q^6)/(1-t*q^6)"),
    ),
    ("parts2Meq", 1): (
        (
            "(1 - q - q^2 + q^3)/(1-t*q^2)/(1-w*q)",
            "q^2*(1 - q - q^2 + q^3)/(1-t*q^2)/(1-w*q)/(1-q)",
            "q^6*(1 - q - q^2 + q^3)/(1-t*q^2)/(1-w*q)/(1-q)/(1-q^2)",
        ),
        (
            "1",
            "q^2*(t + q)/(1-t*q^2)",
            "q*((-1 + w) + (-1 + w)*q^3 + q^5)/(1-t*q^2)/(1-w*q)",
        ),
        None,
        None,
    ),
    ("parts2Meq", 2): (
        (
            "(1 - 2*q^2 + q^4)/(1-t*q^2)/(1-w*q^2)",
            "q^2*(1 - 2*q^2 + q^4)/(1-t*q^2)/(1-w*q^2)/(1-q)",
            "q^6*(1 - 2*q^2 + q^4)/(1-t*q^2)/(1-w*q^2)/(1-q)/(1-q^2)",
        ),
        (
            "1",
            "q^2*(t + q)/(1-t*q^2)",
            "q^2*((-1 + w) + (-1 + w)*q^3 + q^4 + q^5)/(1-t*q^2)/(1-w*q^2)",
        ),
        None,
        None,
    ),
    ("parts1Meq", 4): (
        (
            "(1 - q - q^4 + q^5)/(1-t*q)/(1-w*q^4)",
            "q*(1 - q - q^4 + q^5)/(1-t*q)/(1-w*q^4)/(1-q)",
            "q^4*(1 - q - q^4 + q^5)/(1-t*q)/(1-w*q^4)/(1-q)/(1-q^2)",
        ),
        (
            "1",
            "q*t/(1-t*q)",
            "q^4*(w + q^2)/(1-t*q)/(1-w*q^4)",
        ),
        None,
        None,
    ),
    ("parts1Meq", 6): (
        (
            "(1 - q - q^6 + q^7)/(1-t*q)/(1-w*q^6)",
            "q*(1 - q - q^6 + q^7)/(1-t*q)/(1-w*q^6)/(1-q)",
            "q^4*(1 - q - q^6 + q^7)/(1-t*q)/(1-w*q^6)/(1-q)/(1-q^2)",
        ),
        (
            "1",
            "q*t/(1-t*q)",
            "q^4*(1 + w*q^2 + q^4)/(1-t*q)/(1-w*q^6)",
        ),
        None,
        None,
    ),
    ("twopartM", 7): (
        (
            "1",
            "q^2*(t + q)/(1-t*q^2)",
            "q^6*(1 + w*q + q^2 + q^3 + w*q^4 + q^5 + q^6)/(1-t*q^2)/(1-w*q^7)",
            "q^12*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6)/(1-t*q^2)/(1-w*q^7)/(1-q^3)",
            "q^20*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6)/(1-t*q^2)/(1-w*q^7)/(1-q^3)"
            "/(1-q^4)",
            "q^30*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6)/(1-t*q^2)/(1-w*q^7)/(1-q^3)"
            "/(1-q^4)/(1-q^5)",
            "q^42*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6)/(1-t*q^2)/(1-w*q^7)/(1-q^3)"
            "/(1-q^4)/(1-q^5)/(1-q^6)",
        ),
        (),
        (7, 1, "{2: (t, 2), 7: (w, 7)}"),
        (5, (2, 3), "{2: (t, 2)}", "(1 - q^7)/(1-w*q^7)"),
    ),
    ("twopartM", 8): (
        (
            "1",
            "q^2*(t + q)/(1-t*q^2)",
            "q^6*(1 + q + w*q^2 + q^3 + q^4 + w*q^5 + q^6 + q^7)/(1-t*q^2)/(1-w*q^8)",
            "q^12*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)/(1-t*q^2)/(1-w*q^8)"
            "/(1-q^3)",
            "q^20*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)/(1-t*q^2)/(1-w*q^8)"
            "/(1-q^3)/(1-q^4)",
            "q^30*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)/(1-t*q^2)/(1-w*q^8)"
            "/(1-q^3)/(1-q^4)/(1-q^5)",
            "q^42*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)/(1-t*q^2)/(1-w*q^8)"
            "/(1-q^3)/(1-q^4)/(1-q^5)/(1-q^6)",
            "q^56*(1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7)/(1-t*q^2)/(1-w*q^8)"
            "/(1-q^3)/(1-q^4)/(1-q^5)/(1-q^6)/(1-q^7)",
        ),
        (),
        (8, 1, "{2: (t, 2), 8: (w, 8)}"),
        (5, (2, 3), "{2: (t, 2)}", "(1 - q^8)/(1-w*q^8)"),
    ),
    ("twopart14", 4): (
        (
            "1",
            "q*t/(1-t*q)",
            "q^4*(w + q^2)/(1-t*q)/(1-w*q^4)",
            "q^9*(1 + q^2)/(1-t*q)/(1-w*q^4)/(1-q^3)",
        ),
        (),
        (4, 0, "{1: (t, 1), 4: (w, 4)}"),
        (5, (1, 4), "{1: (t, 1)}", "(1 - q^4)/(1-w*q^4)"),
    ),
    ("twopart14", 6): (
        (
            "1",
            "q*t/(1-t*q)",
            "q^4*(1 + w*q^2 + q^4)/(1-t*q)/(1-w*q^6)",
            "q^9*(1 + q^2 + q^4)/(1-t*q)/(1-w*q^6)/(1-q^3)",
            "q^16*(1 + q^2 + q^4)/(1-t*q)/(1-w*q^6)/(1-q^3)/(1-q^4)",
            "q^25*(1 + q^2 + q^4)/(1-t*q)/(1-w*q^6)/(1-q^3)/(1-q^4)/(1-q^5)",
        ),
        (),
        (6, 0, "{1: (t, 1), 6: (w, 6)}"),
        (5, (1, 4), "{1: (t, 1)}", "(1 - q^6)/(1-w*q^6)"),
    ),
}


def _weighted_sizes_fields(sizes, names):
    if sizes is None:
        return None
    out = []
    for name in names:
        value = getattr(sizes, name)
        if isinstance(value, dict):
            value = "{" + ", ".join(
                f"{size}: ({monomial_str(mono)}, {e})"
                for size, (mono, e) in sorted(value.items())
            ) + "}"
        elif isinstance(value, frozenset):
            value = tuple(sorted(value))
        elif value is not None and not isinstance(value, int):
            value = str(value)
        out.append(value)
    return tuple(out)


@pytest.mark.parametrize(
    "name,M", list(TWIN_INSTANCES), ids=[f"{n}-{M}" for n, M in TWIN_INSTANCES]
)
def test_twin_instance_terms_pinned(name, M):
    assert M in get_entry(name).sweep(MAX_PARAM)[:2]
    spec = _spec(name, M)
    got = (
        tuple(str(term) for term in spec.sum_terms),
        tuple(str(term) for term in spec.rhs_terms),
        _weighted_sizes_fields(
            spec.tail, ("start", "staircase", "factor_of"),
        ),
        _weighted_sizes_fields(
            spec.product, ("modulus", "residues", "factor_of", "prefactor"),
        ),
    )
    assert got == TWIN_INSTANCES[name, M]
