"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact integer arithmetic; there are no tolerances to
tune.  Expected values come from brute-force enumeration, from golden
files frozen from hand-checked table content, or from printed numerators
reproduced by the solver.
"""

import random
from pathlib import Path

import pytest

from reference import DenseSeries, expand_inverse_factor
from rrweights.combinatorics import (
    build_table,
    check_refinement,
    get_statement,
    statements,
    table_csv,
)
from rrweights.discovery import (
    UNDERDETERMINED,
    UNIQUE,
    DiscoveryProblem,
    NumeratorTemplate,
    check_positivity,
    matches_target,
    solve,
)
from rrweights.identities import get_entry, verify_all
from rrweights.partitions import (
    ALL_PARTITIONS,
    DIFF2,
    DIFF2_STAR,
    MOD5_14,
    MOD5_23,
    col,
    col_star,
    conjugate,
    enumerate_class,
)
from rrweights.series import (
    MONO_ONE,
    MONO_T,
    MONO_W,
    WeightPolynomial,
    pack_monomial,
    parse_monomial,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_full_catalog_verification():
    reports = verify_all(max_param=40)
    failures = [r.text_line() for r in reports if not r.ok]
    orders = {r.id: r.order for r in reports}
    assert orders["twvx14thm"] == 80 and orders["spec2"] == 80
    assert all(order >= 60 for order in orders.values())
    _report(
        1, not failures,
        f"full catalog verifies exactly ({len(reports)} instances, "
        f"orders 60/80, parameters swept to 40)"
        + ("" if not failures else f"; failures: {failures[:3]}"),
    )


def test_criterion_2_classical_baseline_counts():
    bad = []
    for n in range(61):
        if len(enumerate_class(MOD5_14, n)) != len(enumerate_class(DIFF2, n)):
            bad.append(("1,4 mod 5", n))
        if len(enumerate_class(MOD5_23, n)) != len(
            enumerate_class(DIFF2_STAR, n)
        ):
            bad.append(("2,3 mod 5", n))
    _report(
        2, not bad,
        "classical partition counts agree for all n <= 60"
        + ("" if not bad else f"; first mismatch {bad[0]}"),
    )


@pytest.mark.parametrize(
    "statement_id,M,n,restrict,golden",
    [
        ("generalminithm", 2, 22, (2,), "table_generalminithm_M3_k2_n22.csv"),
        ("generalmini14thm", 3, 23, (3,), "table_generalmini14thm_M4_k3_n23.csv"),
        ("firstbigcomb", None, 22, None, "table_firstbigcomb_n22.csv"),
        ("bigcomb", None, 19, None, "table_bigcomb_n19.csv"),
    ],
)
def test_criterion_3_table_reproduction(statement_id, M, n, restrict, golden):
    stmt = get_statement(statement_id).instantiate(M)
    got = table_csv(build_table(stmt, n, restrict=restrict))
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    ok = got == want
    rows = len(got.splitlines()) - 1
    _report(
        3, ok,
        f"table {statement_id} n={n} reproduced byte-for-byte ({rows} rows)",
    )


def test_criterion_4_triple_agreement():
    failures = []
    checked = 0
    for entry in statements():
        for M in entry.sweep(12):
            stmt = entry.instantiate(M)
            report = check_refinement(stmt, 40)
            checked += 1
            if not report.ok:
                failures.append(report.text_line())
    _report(
        4, not failures,
        f"product counts = case rules = series coefficients for "
        f"{checked} statement instances, n <= 40"
        + ("" if not failures else f"; failures: {failures[:3]}"),
    )


def test_criterion_5_discovery_reproduction():
    problems = []

    spec = get_entry("miniprop").instantiate()
    problems.append(
        (
            "miniprop q^2",
            DiscoveryProblem(
                (spec.sum_terms[0],), spec.tail,
                (NumeratorTemplate(2, ((MONO_T, 2),), 1,
                                           (MONO_ONE, MONO_T)),),
                spec.product,
            ),
            spec.sum_terms[1].numerator,
        )
    )

    spec = get_entry("twvthm").instantiate()
    problems.append(
        (
            "twvthm q^12",
            DiscoveryProblem(
                tuple(t for i, t in enumerate(spec.sum_terms) if i != 3),
                spec.tail,
                (NumeratorTemplate(
                    12, spec.sum_terms[3].denominator, 6,
                    tuple(parse_monomial(s) for s in ("1", "v", "v^2")),
                ),),
                spec.product,
            ),
            spec.sum_terms[3].numerator,
        )
    )

    spec = get_entry("twvx23theorem").instantiate()
    problems.append(
        (
            "twvx23theorem q^12",
            DiscoveryProblem(
                tuple(t for i, t in enumerate(spec.sum_terms) if i != 3),
                spec.tail,
                (NumeratorTemplate(
                    12, spec.sum_terms[3].denominator, 6,
                    tuple(parse_monomial(s)
                          for s in ("1", "v", "v^2", "x*v", "x^2")),
                ),),
                spec.product,
            ),
            spec.sum_terms[3].numerator,
        )
    )

    recovered = []
    for label, problem, printed in problems:
        result = solve(problem)
        recovered.append(
            result.status == UNIQUE
            and result.numerators[0] == printed
            and matches_target(problem, result.numerators)
        )

    first = get_entry("firsttw").instantiate()
    second = get_entry("secondtw").instantiate()
    monos = tuple(parse_monomial(s) for s in ("1", "t", "w", "t^2", "t^3", "w^2"))
    shared = DiscoveryProblem(
        (first.sum_terms[0],), first.tail,
        (
            NumeratorTemplate(2, ((MONO_T, 2),), 2, monos),
            NumeratorTemplate(2, ((MONO_W, 3),), 2, monos),
            NumeratorTemplate(6, ((MONO_T, 2), (MONO_W, 3)), 2, monos),
        ),
        first.product,
    )
    result = solve(shared)
    both_in_space = (
        result.status == UNDERDETERMINED
        and matches_target(
            shared,
            [dict(first.sum_terms[1].numerator), {},
             dict(first.sum_terms[2].numerator)],
            order=70,
        )
        and matches_target(
            shared,
            [{}, dict(second.sum_terms[1].numerator),
             dict(second.sum_terms[2].numerator)],
            order=70,
        )
    )

    ok = all(recovered) and both_in_space
    _report(
        5, ok,
        "solver recovers the printed numerators (miniprop, twvthm q^12, "
        "twvx23theorem q^12) and both two-weight numerator pairs lie in "
        "one solution space",
    )


def test_criterion_6_positivity_suite():
    required = {
        "partM": None, "twopartM": None, "twopart14": None, "twvthm": None,
        "twvx23theorem": None, "twvx14thm": None, "miniprop": None,
        "firsttw": None, "secondtw": None,
    }
    bad = []
    for name in required:
        entry = get_entry(name)
        for M in entry.sweep(40):
            spec = entry.instantiate(M)
            for term in spec.sum_terms:
                ok, witness = check_positivity(term.numerator)
                if not ok:
                    bad.append((name, M, witness))
    boundary_ok = True
    for M in range(1, 6):
        numerator = get_entry("parts2Meq").instantiate(M).rhs_terms[2].numerator
        ok, _ = check_positivity(numerator)
        boundary_ok = boundary_ok and not ok
    for M in (6, 7, 11, 20, 40):
        numerator = get_entry("parts2Meq").instantiate(M).rhs_terms[2].numerator
        ok, _ = check_positivity(numerator)
        boundary_ok = boundary_ok and ok
    _report(
        6, not bad and boundary_ok,
        "all required sum-side numerators are nonnegative over the sweeps; "
        "the two-part helper numerator is nonnegative exactly for M >= 6",
    )


def test_criterion_7_property_suites():
    rng = random.Random(20140)

    def random_poly():
        terms = {
            pack_monomial(rng.randrange(3), rng.randrange(3),
                          rng.randrange(3), rng.randrange(3)):
            rng.randint(-4, 4)
            for _ in range(rng.randrange(4))
        }
        return WeightPolynomial(terms)

    def random_series():
        return DenseSeries(6, [random_poly() for _ in range(7)])

    ring_ok = True
    for _ in range(120):
        a, b, c = random_series(), random_series(), random_series()
        ring_ok = ring_ok and a + b == b + a
        ring_ok = ring_ok and (a + b) + c == a + (b + c)
        ring_ok = ring_ok and a * b == b * a
        ring_ok = ring_ok and (a * b) * c == a * (b * c)
        ring_ok = ring_ok and a * (b + c) == a * b + a * c

    inverse_ok = True
    for factor in ((MONO_ONE, 1), (MONO_T, 2), (pack_monomial(0, 1), 3),
                   (pack_monomial(0, 0, 1), 7)):
        mono, e = factor
        inv = expand_inverse_factor(factor, 200)
        lhs = DenseSeries.from_terms(
            200, {0: 1, e: WeightPolynomial.monomial(mono, -1)}
        )
        inverse_ok = inverse_ok and lhs * inv == DenseSeries.one(200)
        for k in (0, 13, 57, 199):
            inverse_ok = (
                inverse_ok and inv.truncated(k) == expand_inverse_factor(factor, k)
            )

    involution_ok = all(
        conjugate(conjugate(p)) == p
        for n in range(41)
        for p in enumerate_class(ALL_PARTITIONS, n)
    )

    def reconstruct(image, m, starred):
        heights = conjugate(image).parts
        padded = list(heights) + [0] * (m - len(heights))
        first = 2 * m if starred else 2 * m - 1
        from rrweights.partitions import Partition

        return Partition(tuple(padded[i] + first - 2 * i for i in range(m)))

    col_ok = True
    for n in range(41):
        for p in enumerate_class(DIFF2, n):
            m = len(p)
            image = col(p)
            col_ok = col_ok and image.size == p.size - m * m
            col_ok = col_ok and reconstruct(image, m, False) == p
        for p in enumerate_class(DIFF2_STAR, n):
            m = len(p)
            image = col_star(p)
            col_ok = col_ok and image.size == p.size - m * (m + 1)
            col_ok = col_ok and reconstruct(image, m, True) == p

    ok = ring_ok and inverse_ok and involution_ok and col_ok
    _report(
        7, ok,
        "ring laws, geometric inverses to order 200, conjugation involution "
        "and column-transform size/round-trip hold on exhaustive inputs to "
        "n = 40",
    )
