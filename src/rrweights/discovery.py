"""Numerator discovery by exact linear algebra.

Given a sum-side skeleton whose unknown numerators range over caller-chosen
weight monomials per q-degree, expansion is linear in the unknown integer
coefficients.  Matching coefficients against a target product up to a
chosen order yields a linear system, solved exactly over rationals; the
result is a unique solution, a description of the solution space, or an
inconsistency.  Positivity of numerator polynomials is checked separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .identities import get_entry
from .series import (
    MAX_ORDER,
    WeightPolynomial,
    cleared_equal,
    expand_terms,
    over_common_denominator,
    parse_monomial,
    qpoly_add,
    qpoly_str,
    rational_term,
    unpack_monomial,
)

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"
NON_INTEGRAL = "non-integral"


@dataclass
class NumeratorTemplate:
    """Unknown numerator slot: q^q_shift * (unknown poly) / prod(1 - mono*q^e).

    `allowed[d]` lists the weight monomials permitted at q-degree d.
    """

    q_shift: int
    denominator: tuple
    allowed: tuple

    @classmethod
    def uniform(cls, q_shift, denominator, max_degree, monomials):
        monos = tuple(dict.fromkeys(monomials))
        return cls(
            q_shift, tuple(denominator),
            tuple(monos for _ in range(max_degree + 1)),
        )

    def unknown_count(self):
        return sum(len(monos) for monos in self.allowed)


@dataclass
class DiscoveryProblem:
    fixed_terms: tuple
    fixed_tail: object
    templates: tuple
    target: object                 # ProductSide
    match_order: int | None = None

    def unknown_count(self):
        return sum(t.unknown_count() for t in self.templates)

    def resolved_order(self):
        # overdetermination guard: ten extra degrees past the unknown count
        if self.match_order is not None:
            return self.match_order
        return self.unknown_count() + 10


@dataclass
class SolveResult:
    status: str
    columns: tuple                 # (template_index, degree, monomial) per unknown
    solution: list | None = None   # Fractions, one per unknown
    basis: list | None = None      # nullspace vectors (Fractions)
    numerators: list | None = None # q-polys per template when integral
    detail: str = ""

    def to_json(self):
        out = {"status": self.status, "detail": self.detail}
        if self.numerators is not None:
            out["numerators"] = [qpoly_str(num) for num in self.numerators]
        if self.basis is not None:
            out["solution_space_dimension"] = len(self.basis)
        return out


def _columns(problem, order):
    """Unknowns and the series each unit coefficient contributes."""
    labels = []
    series = []
    for ti, tmpl in enumerate(problem.templates):
        base = rational_term(tmpl.q_shift, 1, tmpl.denominator).expand(order)
        for degree, monos in enumerate(tmpl.allowed):
            shifted = base.shifted(degree).truncated(order)
            for mono in monos:
                labels.append((ti, degree, mono))
                series.append(shifted.scaled_monomial(mono))
    return labels, series


def _distinct_rows(rows):
    """Rows without repeats or all-zero rows, first occurrences in order.

    Reduced row echelon form depends only on the row space, so dropping
    them leaves the pivots, the consistency and, for a consistent system,
    the reduced rows as they were.  A row with zero coefficients but a
    nonzero right-hand side stays: it is the witness of inconsistency.
    """
    return [row for row in dict.fromkeys(rows) if any(row)]


def _row_space(rhs, columns, order):
    """Distinct equations (coefficients..., rhs), one per (q-degree, monomial)."""
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
    return _distinct_rows(rows)


def _eliminate(rows, ncols):
    """Gauss-Jordan over exact rationals on rows (coefficients..., rhs).

    Returns (pivots, reduced, consistent).
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
        lead = matrix[row_at] = [v * inv for v in matrix[row_at]]
        support = [j for j, v in enumerate(lead) if v]
        for r, row in enumerate(matrix):
            factor = row[col]
            if r != row_at and factor:
                for j in support:
                    row[j] -= factor * lead[j]
        pivots.append(col)
        row_at += 1
    consistent = all(
        any(row[:ncols]) or not row[ncols] for row in matrix
    )
    return pivots, matrix[:row_at], consistent


def numerators_from_vector(problem, labels, vector):
    """Assemble per-template q-polynomials from a solution vector."""
    nums = [dict() for _ in problem.templates]
    for (ti, degree, mono), value in zip(labels, vector):
        if not value:
            continue
        nums[ti] = qpoly_add(
            nums[ti], {degree: WeightPolynomial.monomial(mono, int(value))}
        )
    return nums


def assembled_terms(problem, numerators):
    terms = list(problem.fixed_terms)
    for tmpl, num in zip(problem.templates, numerators):
        if num:
            terms.append(rational_term(tmpl.q_shift, num, tmpl.denominator))
    return tuple(terms)


def matches_target(problem, numerators, order=None):
    """Plug numerators back in and compare with the target up to q^order.

    Both sides are compared over their denominators, expanding neither.
    """
    order = order if order is not None else 2 * problem.resolved_order()
    return cleared_equal(
        over_common_denominator(
            assembled_terms(problem, numerators), problem.fixed_tail, order
        ),
        over_common_denominator((problem.target.as_term(order),), None, order),
    )


def solve(problem):
    """Solve for the unknown numerator coefficients by coefficient matching."""
    order = problem.resolved_order()
    labels, columns = _columns(problem, order)
    rhs = problem.target.expand(order) - expand_terms(
        problem.fixed_terms, problem.fixed_tail, order
    )
    if not labels:
        ok = rhs.is_zero()
        return SolveResult(
            UNIQUE if ok else INCONSISTENT, (), [], [], [],
            "no unknowns: fixed terms "
            + ("match the target" if ok else "do not match the target"),
        )
    rows = _row_space(rhs, columns, order)
    pivots, reduced, consistent = _eliminate(rows, len(labels))
    if not consistent:
        return SolveResult(
            INCONSISTENT, tuple(labels),
            detail="coefficient system has no solution",
        )
    ncols = len(labels)
    particular = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row[ncols]
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        if all(v.denominator == 1 for v in particular):
            return SolveResult(
                UNIQUE, tuple(labels), particular, [],
                numerators_from_vector(problem, labels, particular),
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
    numerators = None
    if all(v.denominator == 1 for v in particular):
        numerators = numerators_from_vector(problem, labels, particular)
    return SolveResult(
        UNDERDETERMINED, tuple(labels), particular, basis, numerators,
        f"solution space has dimension {len(basis)}",
    )


def check_positivity(numerator):
    """True iff every coefficient is >= 0; else a witness (degree, mono, coeff)."""
    for degree in sorted(numerator):
        bad = numerator[degree].first_negative()
        if bad is not None:
            return False, (degree, bad[0], bad[1])
    return True, None


# ---------------------------------------------------------------------------
# Declarative problem files (JSON documents).
# ---------------------------------------------------------------------------

def _integer(value, name, least=0):
    """A document field that must be an int >= least (JSON true is not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _monomial(text, name):
    if not isinstance(text, str):
        raise ValueError(f"{name} must be a monomial string, got {text!r}")
    mono = parse_monomial(text)
    if max(unpack_monomial(mono)) > MAX_ORDER:
        raise ValueError(f"{name} has a weight exponent above {MAX_ORDER}")
    return mono


def _entry_spec(ref, name):
    entry = get_entry(ref["catalog_id"])
    param = ref.get("param")
    if param is not None:
        _integer(param, f"{name}.param", 1)
    return entry.instantiate(param)


def load_problem(doc):
    """Build a DiscoveryProblem from a problem document (dict or JSON text).

    Shape:
      {"target": {"catalog_id": ..., "param"?: M},
       "fixed": {"catalog_id": ..., "param"?: M,
                  "term_indices": [..] | "all", "include_tail": bool},
       "templates": [{"q_shift": int, "denominator": [["t", 2], ...],
                      "max_degree": int, "monomials": ["1", "v", ...]}],
       "match_order"?: int}

    Raises ValueError for a field out of range, and for a match order whose
    doubled soundness order would pass MAX_ORDER.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    target_spec = _entry_spec(doc["target"], "target")
    if target_spec.product is None:
        raise ValueError("discovery target must have a product side")
    fixed = doc["fixed"]
    fixed_spec = _entry_spec(fixed, "fixed")
    indices = fixed.get("term_indices", "all")
    if indices == "all":
        fixed_terms = tuple(fixed_spec.sum_terms)
    else:
        count = len(fixed_spec.sum_terms)
        for i in indices:
            if _integer(i, "fixed.term_indices") >= count:
                raise ValueError(
                    f"fixed.term_indices must lie in 0..{count - 1}, got {i}"
                )
        fixed_terms = tuple(fixed_spec.sum_terms[i] for i in indices)
    fixed_tail = fixed_spec.tail if fixed.get("include_tail", True) else None
    templates = []
    for k, tmpl in enumerate(doc["templates"]):
        name = f"templates[{k}]"
        dens = tuple(
            (
                _monomial(mono, f"{name}.denominator"),
                _integer(exp, f"{name}.denominator exponent", 1),
            )
            for mono, exp in tmpl["denominator"]
        )
        monos = [_monomial(m, f"{name}.monomials") for m in tmpl["monomials"]]
        templates.append(
            NumeratorTemplate.uniform(
                _integer(tmpl["q_shift"], f"{name}.q_shift"), dens,
                _integer(tmpl["max_degree"], f"{name}.max_degree"), monos,
            )
        )
    match_order = doc.get("match_order")
    if match_order is not None:
        _integer(match_order, "match_order")
    problem = DiscoveryProblem(
        fixed_terms, fixed_tail, tuple(templates), target_spec.product,
        match_order,
    )
    order = problem.resolved_order()
    if 2 * order > MAX_ORDER:
        raise ValueError(
            f"match order {order} is above {MAX_ORDER // 2}: the soundness "
            f"check expands to twice it, and orders stop at {MAX_ORDER}"
        )
    return problem
