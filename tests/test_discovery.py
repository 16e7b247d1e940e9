"""Numerator discovery: solving, solution spaces, positivity."""

import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import DenseSeries, dense
from rrweights import discovery, series
from rrweights.discovery import (
    INCONSISTENT,
    NON_INTEGRAL,
    UNDERDETERMINED,
    UNIQUE,
    DiscoveryProblem,
    NumeratorTemplate,
    SolveResult,
    _eliminate,
    assembled_terms,
    check_positivity,
    load_problem,
    matches_target,
    numerators_from_vector,
    solve,
)
from rrweights.identities import ProductSide, get_entry
from rrweights.series import (
    MAX_ORDER,
    MONO_ONE,
    MONO_T,
    MONO_W,
    WeightPolynomial,
    expand_terms,
    monomial_str,
    over_one_denominator,
    pack_monomial,
    parse_monomial,
    qpoly_add,
    qpoly_str,
    rational_term,
    unpack_monomial,
)

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

T = WeightPolynomial.variable("t")
W = WeightPolynomial.variable("w")


def _spec(identity_id, M=None):
    return get_entry(identity_id).instantiate(M)


class TestSolve:
    def test_degenerate_no_unknowns_pass(self):
        spec = _spec("miniprop")
        problem = DiscoveryProblem(
            spec.sum_terms, spec.tail, (), spec.product, match_order=30
        )
        result = solve(problem)
        assert result.status == UNIQUE
        assert result.numerators == []

    def test_degenerate_no_unknowns_fail(self):
        rr1 = _spec("rr1")
        rr2 = _spec("rr2")
        problem = DiscoveryProblem(
            rr1.sum_terms, rr1.tail, (), rr2.product, match_order=30
        )
        assert solve(problem).status == INCONSISTENT

    def test_miniprop_recovery(self):
        spec = _spec("miniprop")
        template = NumeratorTemplate(
            2, ((MONO_T, 2),), 1, (MONO_ONE, MONO_T)
        )
        problem = DiscoveryProblem(
            (spec.sum_terms[0],), spec.tail, (template,), spec.product
        )
        result = solve(problem)
        assert result.status == UNIQUE
        assert qpoly_str(result.numerators[0]) == "t + q"
        assert matches_target(problem, result.numerators)

    def test_twvthm_q12_recovery(self):
        spec = _spec("twvthm")
        fixed = tuple(t for i, t in enumerate(spec.sum_terms) if i != 3)
        template = NumeratorTemplate(
            12, spec.sum_terms[3].denominator, 6,
            tuple(parse_monomial(s) for s in ("1", "v", "v^2")),
        )
        problem = DiscoveryProblem(
            fixed, spec.tail, (template,), spec.product, match_order=31
        )
        result = solve(problem)
        assert result.status == UNIQUE
        assert result.numerators[0] == spec.sum_terms[3].numerator

    def test_firsttw_recovery(self):
        spec = _spec("firsttw")
        templates = (
            NumeratorTemplate(
                2, ((MONO_T, 2),), 1,
                tuple(parse_monomial(s) for s in ("1", "t", "w")),
            ),
            NumeratorTemplate(
                6, ((MONO_T, 2), (MONO_W, 3)), 2,
                tuple(parse_monomial(s) for s in ("1", "t", "w", "t^2", "t^3", "w^2")),
            ),
        )
        problem = DiscoveryProblem(
            (spec.sum_terms[0],), spec.tail, templates, spec.product
        )
        result = solve(problem)
        assert result.status == UNIQUE
        assert result.numerators[0] == spec.sum_terms[1].numerator
        assert result.numerators[1] == spec.sum_terms[2].numerator

    def test_first_and_second_tw_share_a_solution_space(self):
        first = _spec("firsttw")
        second = _spec("secondtw")
        monos = tuple(
            parse_monomial(s) for s in ("1", "t", "w", "t^2", "t^3", "w^2")
        )
        templates = (
            NumeratorTemplate(2, ((MONO_T, 2),), 2, monos),
            NumeratorTemplate(2, ((MONO_W, 3),), 2, monos),
            NumeratorTemplate(6, ((MONO_T, 2), (MONO_W, 3)), 2, monos),
        )
        problem = DiscoveryProblem(
            (first.sum_terms[0],), first.tail, templates, first.product
        )
        result = solve(problem)
        assert result.status == UNDERDETERMINED
        assert result.basis
        first_pair = [
            dict(first.sum_terms[1].numerator), {},
            dict(first.sum_terms[2].numerator),
        ]
        second_pair = [
            {}, dict(second.sum_terms[1].numerator),
            dict(second.sum_terms[2].numerator),
        ]
        assert matches_target(problem, first_pair, order=70)
        assert matches_target(problem, second_pair, order=70)

    def test_soundness_at_twice_match_order(self):
        spec = _spec("miniprop")
        template = NumeratorTemplate(
            2, ((MONO_T, 2),), 1, (MONO_ONE, MONO_T)
        )
        problem = DiscoveryProblem(
            (spec.sum_terms[0],), spec.tail, (template,), spec.product,
            match_order=20,
        )
        result = solve(problem)
        assert matches_target(problem, result.numerators, order=40)

    def test_default_match_order_is_unknowns_plus_ten(self):
        template = NumeratorTemplate(
            2, ((MONO_T, 2),), 1, (MONO_ONE, MONO_T)
        )
        problem = DiscoveryProblem((), None, (template,), _spec("rr2").product)
        assert problem.resolved_order() == 4 + 10


class TestPositivity:
    def test_positive_numerator(self):
        ok, witness = check_positivity({0: T, 1: W})
        assert ok and witness is None

    def test_negative_constant_witness(self):
        ok, witness = check_positivity({0: W - 1})
        assert not ok
        degree, mono, coeff = witness
        assert (degree, mono, coeff) == (0, MONO_ONE, -1)

    def test_parts2Meq_boundary(self):
        at6 = _spec("parts2Meq", 6).rhs_terms[2].numerator
        ok, _ = check_positivity(at6)
        assert ok
        at5 = _spec("parts2Meq", 5).rhs_terms[2].numerator
        ok, witness = check_positivity(at5)
        assert not ok and witness[2] < 0


class TestProblemFiles:
    def test_load_and_solve_roundtrip(self):
        doc = {
            "target": {"catalog_id": "miniprop"},
            "fixed": {
                "catalog_id": "miniprop",
                "term_indices": [0],
                "include_tail": True,
            },
            "templates": [
                {
                    "q_shift": 2,
                    "denominator": [["t", 2]],
                    "max_degree": 1,
                    "monomials": ["1", "t"],
                }
            ],
            "match_order": 20,
        }
        problem = load_problem(json.dumps(doc))
        result = solve(problem)
        assert result.status == UNIQUE
        assert qpoly_str(result.numerators[0]) == "t + q"

    @pytest.mark.parametrize(
        "where,key",
        [(None, "include_tail"), ("target", "term_indices"),
         ("fixed", "include_tal"), ("fixed", "monomials")],
    )
    def test_unknown_field_rejected(self, where, key):
        # each part names its own fields: include_tail belongs in fixed,
        # term_indices not in target
        doc = _bench_doc("miniprop-q2")
        (doc if where is None else doc[where])[key] = True
        path = key if where is None else f"{where}.{key}"
        with pytest.raises(ValueError, match=rf"^unknown field {path}$"):
            load_problem(doc)

    def test_rational_target_rejected(self):
        doc = {
            "target": {"catalog_id": "weirdeq"},
            "fixed": {"catalog_id": "weirdeq"},
            "templates": [],
        }
        with pytest.raises(ValueError):
            load_problem(doc)


# ---------------------------------------------------------------------------
# The expanded solve, kept as the reference for the cleared one.
# ---------------------------------------------------------------------------

def reference_columns(problem, order):
    """Unknowns and the expanded series each unit coefficient contributes."""
    labels = []
    series = []
    for ti, tmpl in enumerate(problem.templates):
        base = rational_term(tmpl.q_shift, 1, tmpl.denominator).expand(order)
        for degree in range(tmpl.max_degree + 1):
            shifted = dense(base).shifted(degree).truncated(order)
            for mono in tmpl.monomials:
                labels.append((ti, degree, mono))
                scale = WeightPolynomial.monomial(mono)
                series.append(DenseSeries(
                    order, [c * scale for c in shifted.coeffs]
                ))
    return labels, series


def reference_row_space(rhs, columns, order):
    """Distinct dense equations (coefficients..., rhs), one per
    (q-degree, monomial) of the expanded series, zero rows dropped."""
    width = len(columns) + 1
    rows = []
    for n in range(order + 1):
        at = {}
        for j, col in enumerate((*columns, rhs)):
            for mono, c in col.coeffs[n].terms.items():
                if mono not in at:
                    at[mono] = [0] * width
                at[mono][j] = c
        rows.extend(tuple(at[mono]) for mono in sorted(at))
    return [row for row in dict.fromkeys(rows) if any(row)]


def reference_eliminate(rows, ncols):
    """Gauss-Jordan over exact rationals on dense rows (coefficients..., rhs).

    The elimination this package ran before it cleared denominators and
    eliminated over the integers.  Returns (pivots, reduced, consistent).
    """
    matrix = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    row_at = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_at, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        inv = 1 / matrix[row_at][col]
        matrix[row_at] = [v * inv for v in matrix[row_at]]
        for r in range(len(matrix)):
            if r != row_at and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[row_at])
                ]
        pivots.append(col)
        row_at += 1
    consistent = all(
        any(row[:ncols]) or not row[ncols] for row in matrix
    )
    return pivots, matrix[:row_at], consistent


def reference_solve(problem):
    """`solve` as it was: the target, the fixed sum and one series per
    unknown expanded, then Fraction elimination of the distinct rows."""
    order = problem.resolved_order()
    labels, columns = reference_columns(problem, order)
    rhs = dense(problem.target.expand(order)) - expand_terms(
        problem.fixed_terms, problem.fixed_tail, order
    )
    if not labels:
        ok = rhs.is_zero()
        return SolveResult(
            UNIQUE if ok else INCONSISTENT, (), [], [], [],
            "no unknowns: fixed terms "
            + ("match the target" if ok else "do not match the target"),
        )
    ncols = len(labels)
    pivots, reduced, consistent = reference_eliminate(
        reference_row_space(rhs, columns, order), ncols
    )
    if not consistent:
        return SolveResult(
            INCONSISTENT, tuple(labels),
            detail="coefficient system has no solution",
        )
    particular = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row[ncols]
    free = [c for c in range(ncols) if c not in pivots]
    integral = all(v.denominator == 1 for v in particular)
    numerators = (
        numerators_from_vector(problem, labels, particular) if integral
        else None
    )
    if not free:
        if integral:
            return SolveResult(
                UNIQUE, tuple(labels), particular, [], numerators,
                "unique integral solution",
            )
        return SolveResult(
            NON_INTEGRAL, tuple(labels), particular, [],
            detail="unique solution is not integral",
        )
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[f]
        basis.append(vec)
    return SolveResult(
        UNDERDETERMINED, tuple(labels), particular, basis, numerators,
        f"solution space has dimension {len(basis)}",
    )


def _sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def _dense(row, width):
    return [row.get(j, Fraction(0)) for j in range(width)]


@st.composite
def _systems(draw):
    """Small integer systems: repeats, zero rows, inconsistent zero rows."""
    ncols = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    base = draw(st.lists(
        st.tuples(*[entries] * (ncols + 1)), min_size=1, max_size=6
    ))
    zero = (0,) * ncols
    pool = st.one_of(
        st.sampled_from(base),
        st.just(zero + (0,)),
        st.integers(-3, 3).map(lambda c: zero + (c,)),
    )
    return ncols, draw(st.lists(pool, min_size=1, max_size=14))


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_elimination_of_raw_rows_matches_reference(system):
    # the rows as built, repeats, empty rows and rhs-only rows included
    ncols, rows = system
    pivots, reduced, consistent = _eliminate([_sparse(r) for r in rows], ncols)
    reduced = [_dense(r, ncols + 1) for r in reduced]
    want = reference_eliminate(rows, ncols)
    assert (pivots, consistent) == (want[0], want[2])
    if consistent:
        assert reduced == want[1]
    else:
        # The right-hand sides of an inconsistent system's pivot rows are not
        # fixed by the row space (a witness row can be added to them), and
        # solve never reads them; the coefficient parts still agree.
        assert [r[:ncols] for r in reduced] == [r[:ncols] for r in want[1]]


def test_elimination_keeps_the_inconsistency_witness():
    # repeated and empty rows reduce to nothing; an rhs-only row, repeated
    # too, still marks the system inconsistent
    rows = [(1, 0, 2), (0, 0, 0), (1, 0, 2), (0, 0, 5), (0, 1, 1), (0, 0, 5)]
    sparse = [_sparse(r) for r in rows]
    want = ([0, 1], [{0: 1, 2: 2}, {1: 1, 2: 1}])
    assert _eliminate(sparse, 2) == (*want, False)
    assert sparse == [_sparse(r) for r in rows]
    consistent = [r for r in sparse if set(r) != {2}]
    assert _eliminate(consistent, 2) == (*want, True)


def _solve_record(result):
    return {
        "status": result.status,
        "detail": result.detail,
        "columns": [[ti, d, monomial_str(m)] for ti, d, m in result.columns],
        "solution": None if result.solution is None
        else [str(v) for v in result.solution],
        "basis": None if result.basis is None
        else [[str(v) for v in vec] for vec in result.basis],
        "numerators": None if result.numerators is None
        else [qpoly_str(num) for num in result.numerators],
    }


def test_bench_problem_solutions_match_recorded_results():
    # recorded from the elimination over every row, before repeats were dropped
    want = json.loads((GOLDEN / "discover_solve.json").read_text())
    problems = sorted((ROOT / "bench" / "problems").glob("*.json"))
    assert [p.stem for p in problems] == sorted(want)
    for path in problems:
        result = solve(load_problem(path.read_text(encoding="utf-8")))
        assert _solve_record(result) == want[path.stem], path.stem


def expanded_match(problem, numerators, order):
    """Reference for matches_target: expand both sides and compare."""
    total = expand_terms(
        assembled_terms(problem, numerators), problem.fixed_tail, order
    )
    return total == problem.target.expand(order)


BENCH_PROBLEMS = sorted(p.stem for p in (ROOT / "bench" / "problems").glob("*.json"))


@functools.cache
def _bench_solved(stem):
    path = ROOT / "bench" / "problems" / f"{stem}.json"
    problem = load_problem(path.read_text(encoding="utf-8"))
    return problem, solve(problem)


def _perturbed(numerators, index, degree, mono, coeff=1):
    out = list(numerators)
    out[index] = qpoly_add(
        out[index], {degree: WeightPolynomial.monomial(mono, coeff)}
    )
    return out


@pytest.mark.parametrize("stem", BENCH_PROBLEMS)
def test_cleared_match_agrees_with_expanded_match(stem):
    problem, result = _bench_solved(stem)
    order = 2 * problem.resolved_order()
    numerators = result.numerators
    assert matches_target(problem, numerators) == expanded_match(
        problem, numerators, order
    )
    # a change at the highest degree the doubled order still sees
    last = order - problem.templates[0].q_shift
    changed = _perturbed(numerators, 0, last, MONO_ONE)
    assert matches_target(problem, changed) == expanded_match(
        problem, changed, order
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([s for s in BENCH_PROBLEMS if s != "firsttw-secondtw"]),
    st.data(),
)
def test_change_between_match_order_and_twice_it_fails(stem, data):
    problem, result = _bench_solved(stem)
    k = problem.resolved_order()
    index = data.draw(st.integers(0, len(problem.templates) - 1))
    shift = problem.templates[index].q_shift
    degree = data.draw(st.integers(max(0, k + 1 - shift), 2 * k - shift))
    mono = data.draw(st.builds(pack_monomial, *[st.integers(0, 2)] * 4))
    coeff = data.draw(st.integers(-3, 3).filter(bool))
    changed = _perturbed(result.numerators, index, degree, mono, coeff)
    assert matches_target(problem, result.numerators)
    assert matches_target(problem, changed, order=k)
    assert not matches_target(problem, changed)


# ---------------------------------------------------------------------------
# The cleared solve against the expanded one.
# ---------------------------------------------------------------------------

def _bench_doc(stem):
    path = ROOT / "bench" / "problems" / f"{stem}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@st.composite
def _bench_variants(draw):
    """A bench problem document with its templates' degree bounds,
    monomials and q-shifts varied, some fixed terms or the tail dropped,
    and a match order of its own."""
    doc = _bench_doc(draw(st.sampled_from(BENCH_PROBLEMS)))
    fixed = doc["fixed"]
    indices = fixed["term_indices"]
    fixed["term_indices"] = draw(st.lists(
        st.sampled_from(indices), max_size=len(indices), unique=True
    ).map(sorted))
    fixed["include_tail"] = draw(st.booleans())
    templates = draw(st.lists(
        st.sampled_from(doc["templates"]), min_size=0, max_size=2
    ))
    doc["templates"] = [
        {
            **tmpl,
            "q_shift": draw(st.integers(0, tmpl["q_shift"] + 2)),
            "max_degree": draw(st.integers(0, tmpl["max_degree"] + 1)),
            "monomials": draw(st.lists(
                st.sampled_from(tmpl["monomials"]), min_size=1, unique=True
            )),
        }
        for tmpl in templates
    ]
    doc["match_order"] = draw(st.integers(0, 24))
    return doc


@settings(max_examples=60, deadline=None)
@given(_bench_variants())
def test_cleared_solve_matches_expanded_solve(doc):
    problem = load_problem(doc)
    got, want = solve(problem), reference_solve(problem)
    assert got == want
    assert _solve_record(got) == _solve_record(want)


@pytest.mark.parametrize("stem", BENCH_PROBLEMS)
def test_cleared_solve_matches_expanded_solve_at_factor_orders(stem):
    # A factor (1 - m*q^e) with e at the match order is the last that is
    # not 1 modulo q^(order+1); unshifted templates see it at degree 0.
    doc = _bench_doc(stem)
    for tmpl in doc["templates"]:
        tmpl["q_shift"] = 0
    exponents = {e for t in doc["templates"] for _, e in t["denominator"]}
    for e in sorted(exponents):
        doc["match_order"] = e
        problem = load_problem(doc)
        assert solve(problem) == reference_solve(problem)


def test_non_integral_solution_matches_expanded_solve():
    # x/(1-q)^2 + z + y*q = q^2 up to q^2: x + z = 0, 2x + y = 0, 3x = 1
    target = ProductSide(1, frozenset(), prefactor=rational_term(0, {2: 1}))
    squared = ((MONO_ONE, 1), (MONO_ONE, 1))
    templates = (
        NumeratorTemplate(0, squared, 0, (MONO_ONE,)),
        NumeratorTemplate(0, (), 1, (MONO_ONE,)),
    )
    problem = DiscoveryProblem((), None, templates, target, match_order=2)
    result = solve(problem)
    assert result.status == NON_INTEGRAL
    assert result.solution == [
        Fraction(1, 3), Fraction(-1, 3), Fraction(-2, 3)
    ]
    assert [type(v) for v in result.solution] == [Fraction] * 3
    assert result == reference_solve(problem)


def test_right_hand_side_may_pass_the_packed_width():
    # 1 - (-1) = 2 on cleared numerators 1 and -1, which pack at width 2,
    # where 2 is no balanced digit: the two are read apart, then subtracted
    target = ProductSide(1, frozenset())
    templates = (NumeratorTemplate(0, (), 0, (MONO_ONE,)),)
    problem = DiscoveryProblem(
        (rational_term(0, -1),), None, templates, target, match_order=0
    )
    result = solve(problem)
    assert (result.status, result.solution) == (UNIQUE, [2])
    assert result == reference_solve(problem)


def test_entries_are_fractions_only_where_a_pivot_does_not_divide():
    # as above on weight 1, plus e*q^2/(1-q), free; on weight t the same
    # equations have right-hand side 0, and their pivots divide exactly
    target = ProductSide(1, frozenset(), prefactor=rational_term(0, {2: 1}))
    squared = ((MONO_ONE, 1), (MONO_ONE, 1))
    templates = (
        NumeratorTemplate(0, squared, 0, (MONO_ONE, MONO_T)),
        NumeratorTemplate(0, (), 1, (MONO_ONE, MONO_T)),
        NumeratorTemplate(2, ((MONO_ONE, 1),), 0, (MONO_ONE,)),
    )
    problem = DiscoveryProblem((), None, templates, target, match_order=2)
    result = solve(problem)
    assert result.status == UNDERDETERMINED
    assert result.numerators is None
    third = Fraction(1, 3)
    assert result.solution == [third, 0, -third, 0, -2 * third, 0, 0]
    assert result.basis == [[-third, 0, third, 0, 2 * third, 0, 1]]
    # weight-1 pivot rows are divided inexactly, the rest stay ints
    kinds = [Fraction, int, Fraction, int, Fraction, int, int]
    assert [type(v) for v in result.solution] == kinds
    assert [type(v) for v in result.basis[0]] == kinds
    assert result == reference_solve(problem)


@pytest.mark.parametrize("stem", BENCH_PROBLEMS)
def test_solve_expands_nothing(stem, monkeypatch):
    def refuse(*args):
        raise AssertionError("solve expanded a series")

    monkeypatch.setattr(series.RationalTerm, "expand", refuse)
    monkeypatch.setattr(series._Packing, "divide", refuse)
    monkeypatch.setattr(series, "geometric_divide", refuse)
    monkeypatch.setattr(series.PackedSeries, "decode", refuse)
    problem = load_problem(_bench_doc(stem))
    result = solve(problem)
    assert result.status in (UNIQUE, UNDERDETERMINED)
    values = result.solution + [v for vec in result.basis for v in vec]
    assert {type(v) for v in values} == {int}
    assert matches_target(problem, result.numerators)


# ---------------------------------------------------------------------------
# Problem-document validation.
# ---------------------------------------------------------------------------

def _miniprop_doc(**top):
    doc = {
        "target": {"catalog_id": "miniprop"},
        "fixed": {"catalog_id": "miniprop", "term_indices": [0]},
        "templates": [{
            "q_shift": 2, "denominator": [["t", 2]], "max_degree": 1,
            "monomials": ["1", "t"],
        }],
        "match_order": 20,
    }
    doc.update(top)
    return doc


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("denominator", [["t", 0]],
         "templates[0].denominator exponent must be an integer >= 1, got 0"),
        ("q_shift", -1, "templates[0].q_shift must be an integer >= 0, got -1"),
        ("max_degree", -1,
         "templates[0].max_degree must be an integer >= 0, got -1"),
        ("monomials", ["t^5000"],
         f"templates[0].monomials has a weight exponent above {MAX_ORDER}"),
        # above the 16-bit field too: refused before it is packed
        ("monomials", ["t^70000"],
         f"templates[0].monomials has a weight exponent above {MAX_ORDER}"),
        ("monomials", ["1", "t^65535*t"],
         f"templates[0].monomials has a weight exponent above {MAX_ORDER}"),
        ("monomials", ["v^12345678901234567890"],
         f"templates[0].monomials has a weight exponent above {MAX_ORDER}"),
        # past `int`'s limit on decimal text, and named all the same
        ("monomials", ["v^" + "9" * 5000],
         f"templates[0].monomials has a weight exponent above {MAX_ORDER}"),
        ("denominator", [["w^70000", 2]],
         f"templates[0].denominator has a weight exponent above {MAX_ORDER}"),
    ],
)
def test_template_fields_validated(field, value, message):
    doc = _miniprop_doc()
    doc["templates"][0][field] = value
    with pytest.raises(ValueError) as info:
        load_problem(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "section,field,value,message",
    [
        ("target", "catalog_id", 5,
         "target.catalog_id must be a catalog id string, got 5"),
        ("fixed", "catalog_id", ["miniprop"],
         "fixed.catalog_id must be a catalog id string, got ['miniprop']"),
        ("fixed", "include_tail", "no",
         "fixed.include_tail must be true or false, got 'no'"),
        ("fixed", "include_tail", 1,
         "fixed.include_tail must be true or false, got 1"),
    ],
)
def test_entry_fields_validated(section, field, value, message):
    doc = _miniprop_doc()
    doc[section][field] = value
    with pytest.raises(ValueError) as info:
        load_problem(doc)
    assert str(info.value) == message


def _without(path):
    """_miniprop_doc with the field at `path` (keys and indices) removed."""
    doc = _miniprop_doc()
    *parents, last = path
    section = doc
    for key in parents:
        section = section[key]
    del section[last]
    return doc


@pytest.mark.parametrize(
    "doc,message",
    [
        ('"x"', "the top level must be a JSON object, got a string"),
        ("[]", "the top level must be a JSON object, got an array"),
        ([_miniprop_doc()],
         "the top level must be a JSON object, got an array"),
        (_miniprop_doc(target=["miniprop"]),
         "target must be a JSON object, got an array"),
        (_miniprop_doc(fixed="miniprop"),
         "fixed must be a JSON object, got a string"),
        (_miniprop_doc(templates={}),
         "templates must be a JSON array, got an object"),
        (_miniprop_doc(templates=[None]),
         "templates[0] must be a JSON object, got null"),
        (_without(["target"]), "target is missing"),
        (_without(["fixed"]), "fixed is missing"),
        (_without(["templates"]), "templates is missing"),
        (_without(["target", "catalog_id"]), "target.catalog_id is missing"),
        (_without(["fixed", "catalog_id"]), "fixed.catalog_id is missing"),
        (_without(["templates", 0, "q_shift"]),
         "templates[0].q_shift is missing"),
        (_without(["templates", 0, "denominator"]),
         "templates[0].denominator is missing"),
    ],
)
def test_document_shape_and_missing_fields(doc, message):
    with pytest.raises(ValueError) as info:
        load_problem(doc)
    assert str(info.value) == message


def test_number_past_the_digit_limit_named():
    # json.loads would stop at `int`'s limit with Python's own hint
    text = json.dumps(_miniprop_doc()).replace(
        '"q_shift": 2', '"q_shift": -' + "9" * 5000
    )
    with pytest.raises(ValueError) as info:
        load_problem(text)
    assert str(info.value) == (
        "the number -9999999999999999999... has 5000 digits, too many to read"
    )


@pytest.mark.parametrize("value", [-1, 2.5, "20", True])
def test_match_order_must_be_a_nonnegative_integer(value):
    with pytest.raises(ValueError, match="match_order must be an integer >= 0"):
        load_problem(_miniprop_doc(match_order=value))


def test_doubled_match_order_capped():
    load_problem(_miniprop_doc(match_order=MAX_ORDER // 2))
    with pytest.raises(ValueError, match="soundness check expands to twice it"):
        load_problem(_miniprop_doc(match_order=MAX_ORDER // 2 + 1))


def test_unknowns_bounded_as_by_the_default_match_order():
    # an explicit match order does not lift the bound on the unknowns
    def doc(max_degree):
        doc = _miniprop_doc()
        doc["templates"][0]["max_degree"] = max_degree
        return doc

    most = MAX_ORDER // 2 - 10
    assert load_problem(doc(most // 2 - 1)).unknown_count() == most
    with pytest.raises(ValueError, match=f"hold {most + 2} unknowns, above"):
        load_problem(doc(most // 2))


def test_term_indices_and_param_validated():
    doc = _miniprop_doc()
    doc["fixed"]["term_indices"] = [2]
    with pytest.raises(ValueError, match=r"term_indices must lie in 0\.\.1"):
        load_problem(doc)
    with pytest.raises(ValueError, match="target.param must be an integer"):
        load_problem(_miniprop_doc(target={"catalog_id": "partM", "param": "2"}))
    # the catalog's bound on M holds for problem references too
    with pytest.raises(ValueError, match="partM takes M <= 100, got 1000000001"):
        load_problem(
            _miniprop_doc(target={"catalog_id": "partM", "param": 1000000001})
        )


def _w4096_doc(factors):
    """rr1 against itself, with one template over `factors` factors
    (1 - w^4096 q) and one over none."""
    return {
        "target": {"catalog_id": "rr1"},
        "fixed": {"catalog_id": "rr1"},
        "templates": [
            {"q_shift": 0, "denominator": [["w^4096", 1]] * factors,
             "max_degree": 0, "monomials": ["1"]},
            {"q_shift": 0, "denominator": [], "max_degree": 0,
             "monomials": ["1"]},
        ],
        "match_order": 20,
    }


def test_weight_exponent_bound_stops_at_the_field():
    # 16 factors reach w^65536, which packs as t; 15 reach w^61440 at q^15,
    # the bound, and the cleared numerators hold no other variable
    with pytest.raises(
        ValueError, match=r"^the exponent of w could reach 65536 over"
    ):
        load_problem(_w4096_doc(16))
    problem = load_problem(_w4096_doc(15))
    order = 2 * problem.resolved_order()
    exps = [
        unpack_monomial(mono)
        for numerator in over_one_denominator(
            discovery._sides(problem), order
        )
        for mono in numerator.digits
    ]
    assert max(w for _, w, _, _ in exps) == 15 * 4096
    assert not any(t or v or x for t, _, v, x in exps)
