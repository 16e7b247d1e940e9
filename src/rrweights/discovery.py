"""Numerator discovery by exact linear algebra.

Given a sum-side skeleton whose unknown numerators range over caller-chosen
weight monomials per q-degree, the sum is linear in the unknown integer
coefficients.  Matching coefficients against a target product up to a
chosen order yields a linear system.  It is built on cleared numerators:
the target, the fixed terms and every template go over one common
denominator U, and each equation is read as a sparse integer row from
polynomials, with nothing expanded.  U is a unit modulo q^(order+1), so
the rows span the same space as those of the expanded equations.  They are
reduced by Gauss-Jordan over the integers, and Fractions appear only when
each reduced row is divided by its pivot.  The result is a unique
solution, a description of the solution space, or an inconsistency.
Positivity of numerator polynomials is checked separately.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .identities import get_entry
from .series import (
    MAX_ORDER,
    TruncatedSeries,
    WeightPolynomial,
    cleared_equal,
    over_common_denominator,
    parse_monomial,
    qpoly_add,
    qpoly_str,
    rational_term,
    times_factors,
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


def _cleared_system(problem, order):
    """Unknowns and one sparse equation {column: coefficient} per
    (q-degree, weight monomial), the right-hand side at column len(labels).

    The target, the fixed terms with their tail and every template go over
    one common denominator U.  Multiplied by U, the unknown (t, d, mono)
    contributes q^(shift_t + d) * mono * prod(U - D_t), and the right-hand
    side is N_P * prod(U - D_P) - N_F * prod(U - D_F), the differences taken
    as multisets.  U is a unit modulo q^(order+1), so the equations change
    by an invertible map and keep their row space.
    """
    num_p, den_p = over_common_denominator(
        (problem.target.as_term(order),), None, order
    )
    num_f, den_f = over_common_denominator(
        problem.fixed_terms, problem.fixed_tail, order
    )
    owns = [
        Counter(f for f in tmpl.denominator if f[1] <= order)
        for tmpl in problem.templates
    ]
    common = den_p | den_f
    for own in owns:
        common |= own
    labels = []
    rows = {}   # (q-degree, monomial) -> {column: coefficient}
    for ti, (tmpl, own) in enumerate(zip(problem.templates, owns)):
        cofactor = None
        if tmpl.q_shift <= order:
            cofactor = times_factors(
                TruncatedSeries.one(order - tmpl.q_shift), common - own
            ).coeffs
        for degree, monos in enumerate(tmpl.allowed):
            shift = tmpl.q_shift + degree
            for mono in monos:
                column = len(labels)
                labels.append((ti, degree, mono))
                for n in range(shift, order + 1):
                    for m, c in cofactor[n - shift].terms.items():
                        rows.setdefault((n, m + mono), {})[column] = c
    rhs = len(labels)
    num_p = times_factors(num_p, common - den_p).coeffs
    num_f = times_factors(num_f, common - den_f).coeffs
    for n in range(order + 1):
        for m, c in (num_p[n] - num_f[n]).terms.items():
            rows.setdefault((n, m), {})[rhs] = c
    return labels, list(rows.values())


def _distinct_rows(rows):
    """Rows without repeats or empty rows, first occurrences in order.

    Rows are sparse {column: coefficient}.  Reduced row echelon form depends
    only on the row space, so dropping them leaves the pivots, the
    consistency and, for a consistent system, the reduced rows as they
    were.  A row holding only a right-hand side stays: it is the witness of
    inconsistency.
    """
    return list({frozenset(row.items()): row for row in rows if row}.values())


def _eliminate(rows, ncols):
    """Gauss-Jordan over the integers on sparse rows {column: coefficient},
    the right-hand side at column ncols.

    Each row in turn has the pivot columns it holds cleared; a row left
    with a coefficient becomes the pivot row of its least column, which is
    then cleared from the earlier pivot rows.  So every pivot row leads
    with its pivot, and no other row holds it.  A row left with only a
    right-hand side is the witness of inconsistency.  No Fraction is made
    until each pivot row is divided by its pivot at the end.  Returns
    (pivots, reduced, consistent), the reduced rows as sparse
    {column: Fraction} with 1 at their pivots.
    """
    lead = {}   # pivot column -> its row
    consistent = True
    for row in rows:
        row = dict(row)
        for col in sorted(lead.keys() & row.keys()):
            _clear(row, lead[col], col)
        if not row:
            continue
        col = min(row)
        if col == ncols:
            consistent = False
            continue
        for other in lead.values():
            if col in other:
                _clear(other, row, col)
        lead[col] = row
    pivots = sorted(lead)
    reduced = [
        {j: Fraction(v, lead[col][col]) for j, v in lead[col].items()}
        for col in pivots
    ]
    return pivots, reduced, consistent


def _clear(row, lead, col):
    """row := (b*row - a*lead) / gcd of its entries, in place, where a/b is
    row[col]/lead[col] in lowest terms; row[col] becomes 0."""
    g = gcd(row[col], lead[col])
    a, b = row[col] // g, lead[col] // g
    if b != 1:
        for j in row:
            row[j] *= b
    for j, v in lead.items():
        nv = row.get(j, 0) - a * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


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
    labels, rows = _cleared_system(problem, problem.resolved_order())
    ncols = len(labels)
    pivots, reduced, consistent = _eliminate(_distinct_rows(rows), ncols)
    if not labels:
        return SolveResult(
            UNIQUE if consistent else INCONSISTENT, (), [], [], [],
            "no unknowns: fixed terms "
            + ("match" if consistent else "do not match") + " the target",
        )
    if not consistent:
        return SolveResult(
            INCONSISTENT, tuple(labels),
            detail="coefficient system has no solution",
        )
    particular = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row.get(ncols, Fraction(0))
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
            vec[col] = -row.get(f, Fraction(0))
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
    catalog_id = ref["catalog_id"]
    if not isinstance(catalog_id, str):
        raise ValueError(
            f"{name}.catalog_id must be a catalog id string, "
            f"got {catalog_id!r}"
        )
    entry = get_entry(catalog_id)
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
    include_tail = fixed.get("include_tail", True)
    if not isinstance(include_tail, bool):
        raise ValueError(
            f"fixed.include_tail must be true or false, got {include_tail!r}"
        )
    fixed_tail = fixed_spec.tail if include_tail else None
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
