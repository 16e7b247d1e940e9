"""Catalog of weighted Rogers-Ramanujan identities plus the verification engine.

Every entry carries a sum side (explicit rational terms and, usually, an
infinite tail whose q-shift grows quadratically) and either an infinite
product side or an explicit right-hand term list (pure rational-function
identities).  Both sides go over one common denominator, and their
numerators are compared coefficient by coefficient.  A tail and a product
side hold their factors as one map from part size to factor, and a
substitution rewrites that map once, when it is applied.

Entry ids are stable strings; parameterized entries take a single integer
parameter M with an admissibility predicate and instantiate on demand.

The paper states most constructions twice, over the first Rogers-Ramanujan
identity (rr1: the (1,4) mod 5 product, the q^(k^2) staircase) and over the
second (rr2: the (2,3) mod 5 product, q^(k(k+1))).  Each such twin pair has
one builder, taking the id, the baseline and M.  The baseline is a
`Baseline` record, `RR1` or `RR2`, that holds numbers only (staircase,
residues, the size t weights, the k = 1 numerator, the 2-part bumps), so a
builder never branches on the twin it serves.
"""

from functools import partial
from operator import itemgetter

from .series import (
    MONO_ONE,
    MONO_T,
    MONO_V,
    MONO_W,
    MONO_X,
    EqualityReport,
    RationalTerm,
    WeightPolynomial,
    expand_packed,
    expand_terms,
    normalize_substitution,
    over_one_denominator,
    qpoly,
    qpoly_add,
    qpoly_mul,
    rational_term,
    substitute_factor,
)

T = WeightPolynomial.variable("t")
W = WeightPolynomial.variable("w")
V = WeightPolynomial.variable("v")
X = WeightPolynomial.variable("x")


class ParameterError(ValueError):
    """Parameter missing, unexpected, or outside the admissible set."""


class UnknownIdentityError(KeyError):
    """No catalog entry with the requested id."""


def replaced(record, fields, changes):
    """A copy of `record` with `changes`, built by its __init__ so that
    its checks re-run and its caches start empty."""
    return type(record)(**{f: getattr(record, f) for f in fields} | changes)


# ---------------------------------------------------------------------------
# Tail families and product sides.
# ---------------------------------------------------------------------------

class WeightedSizes:
    """Part sizes as data, shared by product sides and tails.

    A subclass holds `factor_of`: size e -> the factor (mono, e') that
    stands for (1 - q^e), or None when size e gives no factor.  A size not
    listed gives (1 - q^e).
    """

    __slots__ = ()

    def replace(self, **changes):
        return replaced(self, self.__slots__, changes)

    def factors(self, sizes, order=None):
        """The factors of `sizes`, sorted by e; with `order` given, without
        those with e > order."""
        get = self.factor_of.get
        out = [f for e in sizes if (f := get(e, (MONO_ONE, e))) is not None]
        if order is not None:
            out = [f for f in out if f[1] <= order]
        out.sort(key=itemgetter(1))
        return out

    def substituted(self, subs, **changes):
        """A copy with `subs` applied to every listed factor.  A factor
        that becomes 1 maps its size to None, and one that becomes
        (1 - q^e) for its own size e is left out of the map."""
        factor_of = {}
        for e, f in self.factor_of.items():
            if f is not None:
                f = substitute_factor(f, subs)
            if f != (MONO_ONE, e):
                factor_of[e] = f
        return self.replace(factor_of=factor_of, **changes)


def _weighted(monos):
    """`factor_of` for sizes that keep their exponent: {e: mono} becomes
    {e: (mono, e)}."""
    return {e: (mono, e) for e, mono in monos.items()}


class TailFamily(WeightedSizes):
    """The tail sum over m >= start of q^(m(m+staircase)) over the factors
    of the sizes 1..m.

    staircase 0 gives the q^(m^2) tail of the first Rogers-Ramanujan
    identity, 1 the q^(m(m+1)) tail of the second.  The shift grows with m,
    so truncation at a given order needs finitely many terms.
    """

    __slots__ = ("start", "staircase", "factor_of")

    def __init__(self, start, staircase, factor_of=None):
        self.start = start
        self.staircase = staircase
        self.factor_of = {} if factor_of is None else factor_of

    def terms_up_to(self, order):
        """The terms with q-shift <= order, for m = start upward."""
        m = self.start
        while (shift := m * (m + self.staircase)) <= order:
            yield rational_term(shift, 1, self.factors(range(1, m + 1)))
            m += 1


class ProductSide(WeightedSizes):
    """Infinite product over the factors of the sizes e with e % modulus
    in residues, as `WeightedSizes.factors` gives them.

    An optional prefactor multiplies the whole product; `substituted`
    applies to it too.
    """

    __slots__ = ("modulus", "residues", "factor_of", "prefactor")

    def __init__(self, modulus, residues, factor_of=None, prefactor=None):
        self.modulus = modulus
        self.residues = residues
        self.factor_of = {} if factor_of is None else factor_of
        self.prefactor = prefactor

    def factor_list(self, order):
        sizes = (
            e for e in range(1, order + 1) if e % self.modulus in self.residues
        )
        return self.factors(sizes, order)

    def substituted(self, subs):
        pre = self.prefactor
        if pre is not None:
            pre = pre.substitute(subs)
        return super().substituted(subs, prefactor=pre)

    def as_term(self, order):
        """The product up to q^order as one rational term: the prefactor's
        numerator over its denominator and every generated factor."""
        pre = self.prefactor
        if pre is None:
            pre = rational_term(0, 1)
        factors = pre.denominator + tuple(self.factor_list(order))
        return RationalTerm(pre.q_shift, pre.numerator, factors)

    def expand(self, order):
        return self.as_term(order).expand(order)


# ---------------------------------------------------------------------------
# Identity specifications.
# ---------------------------------------------------------------------------

class IdentitySpec:
    """A concrete identity: all parameters bound, ready to expand."""

    __slots__ = (
        "id", "params", "sum_terms", "tail", "product", "rhs_terms", "baseline",
    )

    def __init__(
        self, id, params, sum_terms, tail, product, rhs_terms=(),
        baseline=None,
    ):
        self.id = id
        self.params = params
        self.sum_terms = sum_terms
        self.tail = tail
        self.product = product
        self.rhs_terms = rhs_terms
        self.baseline = baseline

    def replace(self, **changes):
        return replaced(self, self.__slots__, changes)

    def substituted(self, mapping, new_id=None):
        """A copy with `mapping` applied to every term and factor; it keeps
        the baseline, whose staircase and residues no substitution moves."""
        subs = normalize_substitution(mapping)

        def each(terms):   # without the terms that become 0
            return tuple(
                t for t in (term.substitute(subs) for term in terms)
                if not t.is_zero()
            )

        return self.replace(
            id=new_id or self.id,
            sum_terms=each(self.sum_terms),
            tail=self.tail.substituted(subs) if self.tail else None,
            product=self.product.substituted(subs) if self.product else None,
            rhs_terms=each(self.rhs_terms),
        )


def expand_sum_side(spec, order):
    return expand_terms(spec.sum_terms, spec.tail, order)


def expand_product_side(spec, order):
    if spec.product is not None:
        return spec.product.expand(order)
    return expand_terms(spec.rhs_terms, None, order)


def instance_label(id_, params):
    """`id`, or `id[k=v,...]` with the bound parameters sorted by name."""
    if not params:
        return id_
    bound = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{id_}[{bound}]"


class VerificationReport:
    """Outcome of one verified instance; `discrepancy` is the failing
    comparison's EqualityReport."""

    __slots__ = ("id", "params", "order", "ok", "discrepancy")

    def __init__(self, id, params, order, ok, discrepancy=None):
        self.id = id
        self.params = params
        self.order = order
        self.ok = ok
        self.discrepancy = discrepancy

    def text_line(self):
        label = instance_label(self.id, self.params)
        if self.ok:
            return f"PASS {label} order={self.order}"
        d = self.discrepancy
        return (
            f"FAIL {label} order={self.order} "
            f"first-mismatch q^{d.degree}: lhs={d.lhs} rhs={d.rhs}"
        )

    def to_json(self):
        out = {
            "id": self.id,
            "params": dict(sorted(self.params.items())),
            "order": self.order,
            "status": "pass" if self.ok else "fail",
        }
        if not self.ok:
            d = self.discrepancy
            out["discrepancy"] = {
                "degree": d.degree,
                "lhs": str(d.lhs),
                "rhs": str(d.rhs),
            }
        return out


def verify(spec, order):
    """Compare the two sides up to q^order over one denominator.

    The packed cleared numerators first differ where the expansions do, so
    only a failure expands both sides, to that degree, and decodes their
    coefficients there to report them.
    """
    rhs = spec.rhs_terms
    if spec.product is not None:
        rhs = (spec.product.as_term(order),)
    sides = ((spec.sum_terms, spec.tail), (rhs, None))
    lhs, rhs = over_one_denominator(sides, order)
    degree = lhs.first_difference(rhs)
    if degree is not None:
        lhs, rhs = expand_packed(sides, degree)
        degree = lhs.first_difference(rhs)
    if degree is None:
        return VerificationReport(spec.id, spec.params, order, True)
    report = EqualityReport(
        False, lhs.order, degree, lhs.coefficient(degree),
        rhs.coefficient(degree),
    )
    return VerificationReport(spec.id, spec.params, order, False, report)


# ---------------------------------------------------------------------------
# The two Rogers-Ramanujan identities as data, and the builders they share.
# ---------------------------------------------------------------------------

class Baseline:
    """A Rogers-Ramanujan identity as numbers; each twin family is built
    once over it.

    The sum side is the sum of q^base(k)/(q;q)_k, base(k) = k(k +
    staircase); the product side runs over the sizes = residues mod 5.  t
    weights the parts of size `small`, the least residue, and `step` = 3 -
    small.  `first` is the k = 1 numerator over (1 - t*q^small), and
    `bumps` the j with a (w - 1)*q^(M-j) term in the 2-part numerator.
    """

    __slots__ = (
        "id", "staircase", "residues", "small", "step", "first", "bumps",
    )

    def __init__(self, id, staircase, residues, first, bumps):
        self.id = id
        self.staircase = staircase
        self.residues = residues
        self.small = min(residues)
        self.step = 3 - self.small
        self.first = first
        self.bumps = bumps

    def base(self, k):
        return k * (k + self.staircase)


RR1 = Baseline("rr1", 0, frozenset({1, 4}), {0: T}, (4,))
RR2 = Baseline("rr2", 1, frozenset({2, 3}), {0: T, 1: 1}, (3, 6))


def q_integer(n, step=1):
    """[n]_{q^step} = 1 + q^step + ... + q^(step*(n-1)) as a q-polynomial."""
    return {step * i: WeightPolynomial.const(1) for i in range(n)}


def _one_minus(e):
    return {0: WeightPolynomial.const(1), e: WeightPolynomial.const(-1)}


def _dens(exponents):
    return tuple((MONO_ONE, e) for e in exponents)


def _t_head(b):
    """1 and the k = 1 term with t on the parts of size small."""
    return (
        rational_term(0, 1),
        rational_term(b.base(1), b.first, ((MONO_T, b.small),)),
    )


def _single_head(b, M):
    """1 and the k = 1 term over (1 - t*q^(M+1)), whose numerator is
    [M+1]_q + (t - 1)*q^(M - staircase)."""
    num = qpoly_add(q_integer(M + 1), {M - b.staircase: T - 1})
    return (
        rational_term(0, 1), rational_term(b.base(1), num, ((MONO_T, M + 1),)),
    )


def _pair_head(b, M):
    """`_t_head` and the k = 2 term over (1 - t*q^small)(1 - w*q^M), whose
    numerator is [M/step]_{q^step} + (w - 1)*sum_j q^(M-j) over the bumps;
    negative degrees fold into shifts."""
    bump = qpoly_mul(qpoly(W - 1), {M - j: 1 for j in b.bumps})
    num = qpoly_add(q_integer(M // b.step, b.step), bump)
    return _t_head(b) + (
        rational_term(b.base(2), num, ((MONO_T, b.small), (MONO_W, M))),
    )


_SEVEN = q_integer(7)
_SEVEN_PLUS = qpoly_mul(q_integer(7), {0: 1, 4: 1})
_NUM_NINE = qpoly({0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 10: 1})


# ---------------------------------------------------------------------------
# Entry builders.
# ---------------------------------------------------------------------------

def _build_baseline(b):
    return IdentitySpec(
        b.id, {}, (rational_term(0, 1),), TailFamily(1, b.staircase),
        ProductSide(5, b.residues),
    )


def _build_miniprop():
    return IdentitySpec(
        "miniprop", {}, _t_head(RR2), TailFamily(2, 1, {2: (MONO_T, 2)}),
        ProductSide(5, RR2.residues, {2: (MONO_T, 2)}), baseline="rr2",
    )


def _build_weirdeq_general(id, b, M):
    P = M + 1
    pref = _one_minus(P)
    lhs = tuple(
        rational_term(
            b.base(k), pref, ((MONO_T, P),) + _dens(range(1, k + 1))
        )
        for k in range(0, M + 1)
    )
    return IdentitySpec(
        id, {"M": M}, lhs, None, None, rhs_terms=_single_head(b, M) + lhs[2:],
    )


def _build_weirdeq():
    # weirdeq_general at M = 1
    return _build_weirdeq_general("weirdeq", RR2, 1).replace(params={})


def _build_part(id, b, M):
    P = M + 1
    terms = _single_head(b, M) + tuple(
        rational_term(
            b.base(k), q_integer(P), ((MONO_T, P),) + _dens(range(2, k + 1)),
        )
        for k in range(2, M + 1)
    )
    product = ProductSide(
        5, b.residues,
        prefactor=rational_term(0, _one_minus(P), ((MONO_T, P),)),
    )
    return IdentitySpec(
        id, {"M": M}, terms, TailFamily(P, b.staircase, {P: (MONO_T, P)}),
        product, baseline=b.id,
    )


def _build_parts_eq(id, b, M):
    pref = qpoly_mul(_one_minus(b.small), _one_minus(M))
    dens = ((MONO_T, b.small), (MONO_W, M))
    lhs = tuple(
        rational_term(b.base(k), pref, dens + _dens(range(1, k + 1)))
        for k in range(3)
    )
    return IdentitySpec(
        id, {"M": M}, lhs, None, None, rhs_terms=_pair_head(b, M),
    )


def _build_twopart(id, b, M):
    dens = ((MONO_T, b.small), (MONO_W, M))
    terms = _pair_head(b, M) + tuple(
        rational_term(
            b.base(k), q_integer(M // b.step, b.step),
            dens + _dens(range(3, k + 1)),
        )
        for k in range(3, M)
    )
    product = ProductSide(
        5, b.residues, {b.small: (MONO_T, b.small)},
        prefactor=rational_term(0, _one_minus(M), ((MONO_W, M),)),
    )
    return IdentitySpec(
        id, {"M": M}, terms,
        TailFamily(M, b.staircase, _weighted({b.small: MONO_T, M: MONO_W})),
        product, baseline=b.id,
    )


_TW_DENS = _weighted({2: MONO_T, 3: MONO_W})


def _build_firsttw():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: W}, ((MONO_T, 2),)),
        rational_term(6, {0: W * W, 1: 1, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
    )
    return IdentitySpec(
        "firsttw", {}, terms, TailFamily(3, 1, _TW_DENS),
        ProductSide(5, RR2.residues, _TW_DENS), baseline="rr2",
    )


def _build_secondtw():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: W, 2: T * T}, ((MONO_W, 3),)),
        rational_term(6, {0: T * T * T, 1: 1, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
    )
    return IdentitySpec(
        "secondtw", {}, terms, TailFamily(3, 1, _TW_DENS),
        ProductSide(5, RR2.residues, _TW_DENS), baseline="rr2",
    )


_TWV_DENS = _weighted({2: MONO_T, 3: MONO_W, 7: MONO_V})


def _build_twvthm():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: W}, ((MONO_T, 2),)),
        rational_term(6, {0: W * W, 1: V, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
        rational_term(
            12, {0: 1, 1: 1, 2: V * V, 3: V, 4: 1, 5: 1, 6: 1},
            ((MONO_T, 2), (MONO_W, 3), (MONO_V, 7)),
        ),
        rational_term(
            20, _SEVEN, ((MONO_T, 2), (MONO_W, 3), (MONO_ONE, 4), (MONO_V, 7))
        ),
        rational_term(
            30, _SEVEN,
            ((MONO_T, 2), (MONO_W, 3), (MONO_ONE, 4), (MONO_ONE, 5), (MONO_V, 7)),
        ),
        rational_term(
            42, _SEVEN,
            ((MONO_T, 2), (MONO_W, 3), (MONO_ONE, 4), (MONO_ONE, 5),
             (MONO_ONE, 6), (MONO_V, 7)),
        ),
    )
    return IdentitySpec(
        "twvthm", {}, terms, TailFamily(7, 1, _TWV_DENS),
        ProductSide(5, RR2.residues, _TWV_DENS), baseline="rr2",
    )


def _build_reorder_twv_a():
    lhs = (
        rational_term(2, {0: T, 1: W}, ((MONO_T, 2),)),
        rational_term(6, {0: W * W, 1: V, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
    )
    rhs = (
        rational_term(2, {0: T, 1: W, 2: T * T}, ((MONO_W, 3),)),
        rational_term(6, {0: T * T * T, 1: V, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
    )
    return IdentitySpec(
        "reorder_twv_a", {}, lhs, None, None, rhs_terms=rhs,
    )


def _build_reorder_twv_b():
    lhs = (
        rational_term(2, {0: T, 1: W}, ((MONO_T, 2),)),
        rational_term(6, {0: W * W, 1: V, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
        rational_term(
            12, {0: 1, 1: 1, 2: V * V, 3: V, 4: 1, 5: 1, 6: 1},
            ((MONO_T, 2), (MONO_W, 3), (MONO_V, 7)),
        ),
    )
    rhs = (
        rational_term(
            2, {0: T, 1: W, 2: T * T, 3: T * W, 4: T * T * T, 5: V, 6: 1},
            ((MONO_V, 7),),
        ),
        rational_term(
            6,
            {0: W * W, 1: T * T * W, 2: T * T * T * T, 3: W * W * W,
             4: T, 5: W, 6: W * W * W * W},
            ((MONO_T, 2), (MONO_V, 7)),
        ),
        rational_term(
            12, {0: 1, 1: 1, 2: W * W, 3: W * W * W * W * W, 4: 1, 5: 1, 6: 1},
            ((MONO_T, 2), (MONO_W, 3), (MONO_V, 7)),
        ),
    )
    return IdentitySpec(
        "reorder_twv_b", {}, lhs, None, None, rhs_terms=rhs,
    )


_TWVX23_DENS = _weighted({2: MONO_T, 3: MONO_W, 7: MONO_V, 8: MONO_X})


def _build_twvx23():
    num20 = qpoly(
        {0: X, 1: X, 2: 1, 3: 1, 4: 1 + X * X * X, 5: 1 + X, 6: 1 + X,
         7: 1, 8: 1, 9: 1, 10: 1}
    )
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: W}, ((MONO_T, 2),)),
        rational_term(6, {0: W * W, 1: V, 2: X}, ((MONO_T, 2), (MONO_W, 3))),
        rational_term(
            12, {0: 1, 1: 1, 2: V * V, 3: X * V, 4: X * X, 5: 1, 6: 1},
            ((MONO_T, 2), (MONO_W, 3), (MONO_V, 7)),
        ),
        rational_term(
            20, num20,
            ((MONO_T, 2), (MONO_W, 3), (MONO_X, 8), (MONO_V, 7)),
        ),
        rational_term(
            30, _SEVEN_PLUS,
            ((MONO_T, 2), (MONO_W, 3), (MONO_X, 8), (MONO_ONE, 5), (MONO_V, 7)),
        ),
        rational_term(
            42, _SEVEN_PLUS,
            ((MONO_T, 2), (MONO_W, 3), (MONO_X, 8), (MONO_ONE, 5),
             (MONO_ONE, 6), (MONO_V, 7)),
        ),
        rational_term(
            56, {0: 1, 4: 1},
            ((MONO_ONE, 1), (MONO_T, 2), (MONO_W, 3), (MONO_X, 8),
             (MONO_ONE, 5), (MONO_ONE, 6), (MONO_V, 7)),
        ),
    )
    return IdentitySpec(
        "twvx23theorem", {}, terms, TailFamily(8, 1, _TWVX23_DENS),
        ProductSide(5, RR2.residues, _TWVX23_DENS), baseline="rr2",
    )


_TWVX14_DENS = _weighted({1: MONO_T, 4: MONO_W, 6: MONO_V, 9: MONO_X})


def _build_twvx14():
    base = ((MONO_T, 1), (MONO_W, 4), (MONO_V, 6), (MONO_X, 9))
    terms = (
        rational_term(0, 1),
        rational_term(1, {0: T}, ((MONO_T, 1),)),
        rational_term(4, {0: W, 2: V}, ((MONO_T, 1), (MONO_W, 4))),
        rational_term(
            9, {0: X, 2: 1, 3: V * V, 5: 1},
            ((MONO_T, 1), (MONO_W, 4), (MONO_V, 6)),
        ),
        rational_term(
            16, {0: 1, 2: X * X, 3: 1, 4: X, 5: 1, 6: 1, 7: X, 8: 1, 10: 1},
            base,
        ),
        rational_term(25, _NUM_NINE, base + ((MONO_ONE, 5),)),
        rational_term(36, _NUM_NINE, base + ((MONO_ONE, 5), (MONO_ONE, 6))),
        rational_term(
            49, _NUM_NINE, base + ((MONO_ONE, 5), (MONO_ONE, 6), (MONO_ONE, 7))
        ),
        rational_term(
            64, _NUM_NINE,
            base + ((MONO_ONE, 5), (MONO_ONE, 6), (MONO_ONE, 7), (MONO_ONE, 8)),
        ),
    )
    return IdentitySpec(
        "twvx14thm", {}, terms, TailFamily(9, 0, _TWVX14_DENS),
        ProductSide(5, RR1.residues, _TWVX14_DENS), baseline="rr1",
    )


def _build_x1_reduction():
    lhs = (rational_term(0, _NUM_NINE, ((MONO_ONE, 9),)),)
    rhs = (rational_term(0, _one_minus(6), ((MONO_ONE, 2), (MONO_ONE, 3))),)
    return IdentitySpec("x1_reduction", {}, lhs, None, None, rhs_terms=rhs)


def _build_spec3_display():
    terms = (
        rational_term(0, 1),
        rational_term(2, 1, ((MONO_ONE, 1),)),
        rational_term(3, -1),
        rational_term(6, {1: 1, 2: 1, 4: 1}, ((MONO_ONE, 2), (MONO_ONE, 5))),
    )
    return IdentitySpec(
        "spec3_display", {}, terms,
        TailFamily(3, 1, {3: (MONO_ONE, 5)}),
        ProductSide(5, RR2.residues, {3: (MONO_ONE, 5)}), baseline="rr2",
    )


def _build_spec1():
    return _build_twvx23().substituted(
        {"t": 1, "w": 0, "v": 1, "x": 0}, new_id="spec1"
    )


def _build_spec2():
    return _build_twvx14().substituted(
        {"t": 0, "w": 0, "v": 0, "x": 0}, new_id="spec2"
    )


def _build_spec3_firsttw():
    return _build_firsttw().substituted(
        {"t": 1, "w": (1, 2)}, new_id="spec3_firsttw"
    )


def _build_spec3_secondtw():
    return _build_secondtw().substituted(
        {"t": 1, "w": (1, 2)}, new_id="spec3_secondtw"
    )


# ---------------------------------------------------------------------------
# The catalog.
# ---------------------------------------------------------------------------

# Largest M, and largest sweep bound, a family accepts.  Building an
# instance takes time and memory that grow as M^2 (partM has M terms over up
# to M factors); a sweep holds one instance at a time.  Through the CLI
# (Python 3.11, 2 CPUs), the whole catalog sweeps to 100 in about 1.7 s and
# 19 MB, and each instance up to it verifies at MAX_ORDER in at most 1.7 s.
MAX_PARAM = 100


class Family:
    """A registry slot: one fixed object, or a family over an integer M with
    1 <= M <= MAX_PARAM.

    `param_style` is None, "M" or "M+1": what the sweep bound limits.  The
    refinement statements use this class as it is; `CatalogEntry` adds what
    verifying an identity needs.  `noun` names the slot in errors.
    """

    __slots__ = ("id", "build", "param_style", "admissible", "param_hint")
    noun = "statement"

    def __init__(
        self, id, build, param_style=None, admissible=None, param_hint="",
    ):
        self.id = id
        self.build = build
        self.param_style = param_style
        self.admissible = admissible
        self.param_hint = param_hint

    def check(self, M=None):
        """Raise ParameterError unless M is admissible, building nothing."""
        if self.param_style is None:
            if M is not None:
                raise ParameterError(f"{self.id} takes no parameter")
            return
        if M is None:
            raise ParameterError(
                f"{self.noun} {self.id} needs a parameter M "
                f"({self.param_hint})"
            )
        if M > MAX_PARAM:
            raise ParameterError(
                f"{self.noun} {self.id} takes M <= {MAX_PARAM}, got {M}"
            )
        if not (M >= 1 and self.admissible(M)):
            raise ParameterError(
                f"{self.noun} {self.id} needs admissible M "
                f"({self.param_hint}), got {M}"
            )

    def instantiate(self, M=None):
        self.check(M)
        return self.build() if M is None else self.build(M)

    def sweep(self, bound=40):
        """Admissible M values with M (or M+1, per the entry) up to bound."""
        if self.param_style is None:
            return [None]
        if bound > MAX_PARAM:
            raise ParameterError(
                f"{self.noun} {self.id} sweeps M up to {MAX_PARAM}, "
                f"got a bound of {bound}"
            )
        top = bound - 1 if self.param_style == "M+1" else bound
        return [M for M in range(1, top + 1) if self.admissible(M)]


class CatalogEntry(Family):
    """A catalog identity, with the least order it is verified at."""

    __slots__ = ("min_order",)
    noun = "identity"

    def __init__(
        self, id, build, param_style=None, admissible=None, param_hint="",
        min_order=60,
    ):
        super().__init__(id, build, param_style, admissible, param_hint)
        self.min_order = min_order


def _entries():
    def any_M(M):
        return True

    def twin(id, build, baseline, *domain):
        return CatalogEntry(id, partial(build, id, baseline), *domain)

    return [
        CatalogEntry(RR1.id, partial(_build_baseline, RR1)),
        CatalogEntry(RR2.id, partial(_build_baseline, RR2)),
        CatalogEntry("miniprop", _build_miniprop),
        CatalogEntry("weirdeq", _build_weirdeq),
        twin(
            "weirdeq_general", _build_weirdeq_general, RR2, "M", any_M,
            "any M >= 1",
        ),
        twin(
            "partM", _build_part, RR2, "M+1", lambda M: (M + 1) % 5 in (2, 3),
            "M+1 = 2 or 3 mod 5",
        ),
        twin(
            "weirdeq_general_14", _build_weirdeq_general, RR1, "M", any_M,
            "any M >= 1",
        ),
        twin(
            "partMeq", _build_part, RR1, "M+1", lambda M: (M + 1) % 5 in (1, 4),
            "M+1 >= 2, = 1 or 4 mod 5",
        ),
        twin("parts2Meq", _build_parts_eq, RR2, "M", any_M, "any M >= 1"),
        twin(
            "twopartM", _build_twopart, RR2, "M",
            lambda M: M >= 7 and M % 5 in (2, 3), "M >= 7, = 2 or 3 mod 5",
        ),
        twin(
            "parts1Meq", _build_parts_eq, RR1, "M",
            lambda M: M >= 4 and M % 2 == 0, "even M >= 4",
        ),
        twin(
            "twopart14", _build_twopart, RR1, "M",
            lambda M: M >= 4 and M % 2 == 0 and M % 5 in (1, 4),
            "even M >= 4, = 1 or 4 mod 5",
        ),
        CatalogEntry("firsttw", _build_firsttw),
        CatalogEntry("secondtw", _build_secondtw),
        CatalogEntry("twvthm", _build_twvthm),
        CatalogEntry("reorder_twv_a", _build_reorder_twv_a),
        CatalogEntry("reorder_twv_b", _build_reorder_twv_b),
        CatalogEntry("twvx23theorem", _build_twvx23),
        CatalogEntry("twvx14thm", _build_twvx14, min_order=80),
        CatalogEntry("x1_reduction", _build_x1_reduction),
        CatalogEntry("spec3_display", _build_spec3_display),
        CatalogEntry("spec1", _build_spec1),
        CatalogEntry("spec2", _build_spec2, min_order=80),
        CatalogEntry("spec3_firsttw", _build_spec3_firsttw),
        CatalogEntry("spec3_secondtw", _build_spec3_secondtw),
    ]


_CATALOG = None


def catalog():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return list(_CATALOG)


def lookup(entries, wanted, missing):
    """The entry whose id is `wanted`, ignoring case; raises `missing`."""
    key = wanted.lower()
    for entry in entries:
        if entry.id.lower() == key:
            return entry
    raise missing(wanted)


def get_entry(identity_id):
    return lookup(catalog(), identity_id, UnknownIdentityError)


def verify_all(order=None, max_param=40, entries=None, param=None):
    """Verify each entry (the whole catalog by default) at `param`, or over
    its sweep.

    Every (entry, M) is checked before any instance is built, so an
    inadmissible `param` is refused before any work; each instance is then
    built just before it is verified, so one is held at a time.  The order
    is the requested one raised to the entry's minimum.
    """
    jobs = [
        (entry, M)
        for entry in (catalog() if entries is None else entries)
        for M in (entry.sweep(max_param) if param is None else [param])
    ]
    for entry, M in jobs:
        entry.check(M)
    return [
        verify(entry.instantiate(M), max(order or 0, entry.min_order))
        for entry, M in jobs
    ]
