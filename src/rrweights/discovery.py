"""Numerator discovery by exact linear algebra.

Given a sum-side skeleton whose unknown numerators range over caller-chosen
weight monomials per q-degree, the sum is linear in the unknown integer
coefficients.  Matching coefficients against a target product up to a
chosen order yields a linear system.  It is built on cleared numerators:
the target, the fixed terms and every template go over one common
denominator U, and each equation is read as a sparse integer row from
the packed numerators' nonzero entries (`PackedSeries.entries`), with
nothing expanded.  U is a unit modulo q^(order+1), so the rows span the
same space as those of the expanded equations.  They are reduced by
Gauss-Jordan over the integers, and each reduced row is divided by its
pivot at the end: as ints where the pivot divides every entry, as
Fractions (and only then is `fractions` imported) where it does not.  The
result is a unique solution, a description of the solution space, or an
inconsistency.
Positivity of numerator polynomials is checked separately.
"""

import json
from math import gcd

from .identities import get_entry
from .series import (
    MAX_ORDER,
    FieldOverflowError,
    WeightPolynomial,
    check_cleared_exponents,
    over_one_denominator,
    pack_monomial,
    parse_exponents,
    qpoly_add,
    qpoly_str,
    rational_term,
)

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"
NON_INTEGRAL = "non-integral"


class NumeratorTemplate:
    """Unknown numerator slot: q^q_shift * (unknown poly) / prod(1 - mono*q^e).

    The unknown poly may hold each of `monomials` (repeats dropped) at each
    q-degree 0..max_degree.
    """

    __slots__ = ("q_shift", "denominator", "max_degree", "monomials")

    def __init__(self, q_shift, denominator, max_degree, monomials):
        self.q_shift = q_shift
        self.denominator = tuple(denominator)
        self.max_degree = max_degree
        self.monomials = tuple(dict.fromkeys(monomials))

    def unknown_count(self):
        return (self.max_degree + 1) * len(self.monomials)


class DiscoveryProblem:
    """Fixed sum-side terms (and tail) plus unknown templates, to match
    against a target ProductSide up to `match_order` (None: resolved from
    the unknown count)."""

    __slots__ = (
        "fixed_terms", "fixed_tail", "templates", "target", "match_order",
    )

    def __init__(
        self, fixed_terms, fixed_tail, templates, target, match_order=None,
    ):
        self.fixed_terms = fixed_terms
        self.fixed_tail = fixed_tail
        self.templates = templates
        self.target = target
        self.match_order = match_order

    def unknown_count(self):
        return sum(t.unknown_count() for t in self.templates)

    def default_order(self):
        # overdetermination guard: ten extra degrees past the unknown count
        return self.unknown_count() + 10

    def resolved_order(self):
        if self.match_order is not None:
            return self.match_order
        return self.default_order()


class SolveResult:
    """Outcome of `solve`.

    `columns` holds (template_index, degree, monomial) per unknown,
    `solution` one value per unknown, `basis` the nullspace vectors, and
    `numerators` the q-polys per template when integral.  A value is an
    int, or a Fraction where it comes from a pivot row that its pivot does
    not divide.  Results compare by every field.
    """

    __slots__ = (
        "status", "columns", "solution", "basis", "numerators", "detail",
    )

    def __init__(
        self, status, columns, solution=None, basis=None, numerators=None,
        detail="",
    ):
        self.status = status
        self.columns = columns
        self.solution = solution
        self.basis = basis
        self.numerators = numerators
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not SolveResult:
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

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

    The target, the fixed terms with their tail and one unit term
    q^shift_t / D_t per template go over one common denominator U.
    Multiplied by U, the unknown (t, d, mono) contributes q^d * mono times
    the template's cleared numerator q^shift_t * prod(U - D_t), and the
    right-hand side is the target's cleared numerator less the fixed
    terms'.  U is a unit modulo q^(order+1), so the equations change by an
    invertible map and keep their row space.  Coefficients are read from
    the packed numerators' nonzero entries, lowest degree first, so that a
    column's entries end at the first one past the order; no series is
    decoded.
    """
    num_p, num_f, *units = over_one_denominator(_sides(problem), order)
    labels = []
    rows = {}   # (q-degree, monomial) -> {column: coefficient}
    for ti, (tmpl, unit) in enumerate(zip(problem.templates, units)):
        entries = unit.entries()
        for degree in range(tmpl.max_degree + 1):
            for mono in tmpl.monomials:
                column = len(labels)
                labels.append((ti, degree, mono))
                for n, m, c in entries:
                    if n + degree > order:
                        break
                    rows.setdefault((n + degree, m + mono), {})[column] = c
    rhs = len(labels)
    # N_P - N_F, subtracted once read: a difference of two digits may pass
    # the width's balanced range
    diff = {(n, m): c for n, m, c in num_p.entries()}
    for n, m, c in num_f.entries():
        diff[n, m] = diff.get((n, m), 0) - c
    for key, c in diff.items():
        if c:
            rows.setdefault(key, {})[rhs] = c
    return labels, list(rows.values())


def _sides(problem):
    """The target product, the fixed terms with their tail, and one unit
    term q^shift_t / D_t per template, as (terms, family) sides."""
    return [
        ((), problem.target),
        (problem.fixed_terms, problem.fixed_tail),
    ] + [
        ((rational_term(tmpl.q_shift, 1, tmpl.denominator),), None)
        for tmpl in problem.templates
    ]


def _eliminate(rows, ncols):
    """Gauss-Jordan over the integers on sparse rows {column: coefficient},
    the right-hand side at column ncols.

    Each row in turn has the pivot columns it holds cleared; a row left
    with a coefficient becomes the pivot row of its least column, which is
    then cleared from the earlier pivot rows.  So every pivot row leads
    with its pivot, and no other row holds it.  A row that reduces to
    nothing, such as an empty row or a repeat, is skipped; one left with
    only a right-hand side is the witness of inconsistency.  Each pivot
    row is divided by its pivot at the end (`_divided`).  Returns (pivots,
    reduced, consistent), the reduced rows as sparse {column: value} with
    1 at their pivots.
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
    return pivots, [_divided(lead[col], col) for col in pivots], consistent


def _divided(row, col):
    """row / row[col]: ints where the pivot divides every entry, else
    Fractions."""
    pivot = row[col]
    if all(v % pivot == 0 for v in row.values()):
        return {j: v // pivot for j, v in row.items()}
    from fractions import Fraction

    return {j: Fraction(v, pivot) for j, v in row.items()}


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
    lhs, rhs = over_one_denominator(
        (
            (assembled_terms(problem, numerators), problem.fixed_tail),
            ((), problem.target),
        ),
        order,
    )
    return lhs == rhs


def solve(problem):
    """Solve for the unknown numerator coefficients by coefficient matching."""
    labels, rows = _cleared_system(problem, problem.resolved_order())
    ncols = len(labels)
    pivots, reduced, consistent = _eliminate(rows, ncols)
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
    particular = [0] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row.get(ncols, 0)
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
        vec = [0] * ncols
        vec[f] = 1
        for row, col in zip(reduced, pivots):
            vec[col] = -row.get(f, 0)
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

def _json_int(text):
    """A JSON integer, or one line naming it when it is too long for `int`
    to read."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"the number {text[:20]}... has {len(text.lstrip('-'))} digits, "
            "too many to read"
        ) from None


def _integer(value, name, least=0):
    """A document field that must be an int >= least (JSON true is not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _monomial(text, name):
    if not isinstance(text, str):
        raise ValueError(f"{name} must be a monomial string, got {text!r}")
    try:
        exps = parse_exponents(text)
    except FieldOverflowError:
        exps = [MAX_ORDER + 1]
    if max(exps) > MAX_ORDER:
        raise ValueError(f"{name} has a weight exponent above {MAX_ORDER}")
    return pack_monomial(*exps)


def _factor(pair, where):
    """A factor of the denominator `where`: a [monomial, exponent] array."""
    if len(_shaped(pair, list, f"{where} factor")) != 2:
        raise ValueError(
            f"{where} factor must be a [monomial, exponent] pair, got {pair!r}"
        )
    mono, exp = pair
    return _monomial(mono, where), _integer(exp, f"{where} exponent", 1)


_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _shaped(value, kind, name):
    """A document part that must be a JSON object (kind dict) or array
    (kind list)."""
    if not isinstance(value, kind):
        got = _JSON_KINDS.get(type(value), type(value).__name__)
        shape = "object" if kind is dict else "array"
        raise ValueError(f"{name} must be a JSON {shape}, got {got}")
    return value


def _object(value, where, keys):
    """A document part that must be a JSON object whose keys lie in `keys`;
    `where` is its path, None at the top level."""
    _shaped(value, dict, where or "the top level")
    for key in value:
        if key not in keys:
            path = key if where is None else f"{where}.{key}"
            raise ValueError(f"unknown field {path}")
    return value


def _field(section, key, where=None):
    """section[key]; a missing key is named by its path in the document."""
    if key not in section:
        path = key if where is None else f"{where}.{key}"
        raise ValueError(f"{path} is missing")
    return section[key]


def _entry_spec(ref, name, keys=()):
    _object(ref, name, ("catalog_id", "param", *keys))
    catalog_id = _field(ref, "catalog_id", name)
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

    Raises ValueError for a document of another shape, a missing field, a
    field that the shape does not name ("unknown field fixed.include_tal"),
    a field out of range, a match order whose doubled soundness order would
    pass MAX_ORDER, weight exponents that could pass their field in the
    soundness check (whose common denominator holds the solve's), and
    templates with more unknowns than the default match order allows: an
    explicit match order lower than that leaves unknowns in no equation,
    and the nullspace basis grows with their count squared.
    """
    if isinstance(doc, str):
        doc = json.loads(doc, parse_int=_json_int)
    _object(doc, None, ("target", "fixed", "templates", "match_order"))
    target_spec = _entry_spec(_field(doc, "target"), "target")
    if target_spec.product is None:
        raise ValueError("discovery target must have a product side")
    fixed = _field(doc, "fixed")
    fixed_spec = _entry_spec(fixed, "fixed", ("term_indices", "include_tail"))
    indices = fixed.get("term_indices", "all")
    if indices == "all":
        fixed_terms = tuple(fixed_spec.sum_terms)
    else:
        count = len(fixed_spec.sum_terms)
        for i in _shaped(indices, list, "fixed.term_indices"):
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
    listed = _shaped(_field(doc, "templates"), list, "templates")
    templates = []
    for k, tmpl in enumerate(listed):
        name = f"templates[{k}]"
        _object(
            tmpl, name, ("q_shift", "denominator", "max_degree", "monomials")
        )
        where = f"{name}.denominator"
        dens = tuple(
            _factor(factor, where)
            for factor in _shaped(_field(tmpl, "denominator", name), list, where)
        )
        monos = [
            _monomial(m, f"{name}.monomials")
            for m in _shaped(
                _field(tmpl, "monomials", name), list, f"{name}.monomials"
            )
        ]
        templates.append(
            NumeratorTemplate(
                _integer(_field(tmpl, "q_shift", name), f"{name}.q_shift"),
                dens,
                _integer(
                    _field(tmpl, "max_degree", name), f"{name}.max_degree"
                ),
                monos,
            )
        )
    match_order = doc.get("match_order")
    if match_order is not None:
        _integer(match_order, "match_order")
    problem = DiscoveryProblem(
        fixed_terms, fixed_tail, tuple(templates), target_spec.product,
        match_order,
    )
    if problem.default_order() > MAX_ORDER // 2:
        raise ValueError(
            f"templates hold {problem.unknown_count()} unknowns, above the "
            f"{MAX_ORDER // 2 - 10} that the default match order allows"
        )
    order = problem.resolved_order()
    if 2 * order > MAX_ORDER:
        raise ValueError(
            f"match order {order} is above {MAX_ORDER // 2}: the soundness "
            f"check expands to twice it, and orders stop at {MAX_ORDER}"
        )
    check_cleared_exponents(
        _sides(problem), 2 * order,
        [mono for tmpl in templates for mono in tmpl.monomials],
    )
    return problem
