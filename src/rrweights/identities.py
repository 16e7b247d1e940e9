"""Catalog of weighted Rogers-Ramanujan identities plus the verification engine.

Every entry carries a sum side (explicit rational terms and, usually, an
infinite tail whose q-shift grows quadratically) and either an infinite
product side or an explicit right-hand term list (pure rational-function
identities).  Both sides expand to truncated series and are compared
coefficient by coefficient.

Entry ids are stable strings; parameterized entries take a single integer
parameter M with an admissibility predicate and instantiate on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .series import (
    MONO_ONE,
    MONO_T,
    MONO_V,
    MONO_W,
    MONO_X,
    EqualityReport,
    RationalTerm,
    WeightPolynomial,
    compose_substitutions,
    expand_terms,
    normalize_substitution,
    pack_monomial,
    qpoly,
    qpoly_add,
    qpoly_mul,
    rational_term,
    series_equal,
    unpack_monomial,
)

T = WeightPolynomial.variable("t")
W = WeightPolynomial.variable("w")
V = WeightPolynomial.variable("v")
X = WeightPolynomial.variable("x")


class ParameterError(ValueError):
    """Parameter missing, unexpected, or outside the admissible set."""


class UnknownIdentityError(KeyError):
    """No catalog entry with the requested id."""


# ---------------------------------------------------------------------------
# Tail families and product sides.
# ---------------------------------------------------------------------------

@dataclass
class TailFamily:
    """Infinite family of rational terms indexed by m >= start.

    `shift` must lower-bound the q-shift of term m and increase strictly,
    so truncation at a given order needs finitely many terms.
    """

    start: int
    shift: callable
    term: callable

    def terms_up_to(self, order):
        m = self.start
        while self.shift(m) <= order:
            t = self.term(m)
            if not t.is_zero():
                yield t
            m += 1

    def substituted(self, subs):
        base = self.term
        return TailFamily(self.start, self.shift, lambda m: base(m).substitute(subs))


@dataclass
class ProductSide:
    """Infinite product with one optional factor (1 - mono*q^e) per size e.

    Sizes come from a congruence rule plus explicit additions/removals;
    `weights` attaches a weight monomial to a size.  An optional prefactor
    multiplies the whole product.  A normalized substitution, when set, is
    applied to every generated factor and to the prefactor.
    """

    modulus: int
    residues: frozenset
    weights: dict = field(default_factory=dict)
    removed: frozenset = frozenset()
    added: dict = field(default_factory=dict)
    prefactor: RationalTerm | None = None
    subs: tuple | None = None

    def factor_list(self, order):
        factors = []
        for e in range(1, order + 1):
            if e in self.removed:
                continue
            if e % self.modulus in self.residues:
                factors.append((self.weights.get(e, MONO_ONE), e))
            elif e in self.added:
                factors.append((self.added[e], e))
        if self.subs is None:
            return factors
        out = []
        for mono, e in factors:
            exps = unpack_monomial(mono)
            coeff = 1
            shift = 0
            kept = [0, 0, 0, 0]
            for i, (a, s) in enumerate(zip(exps, self.subs)):
                if s is None:
                    kept[i] = a
                else:
                    coeff *= s[0] ** a
                    shift += s[1] * a
            if coeff == 0:
                continue
            if coeff != 1:
                raise ValueError("product substitution gave a non-unit factor")
            if e + shift <= order:
                out.append((pack_monomial(*kept), e + shift))
        out.sort(key=lambda f: f[1])
        return out

    def as_term(self, order):
        """The product up to q^order as one rational term: the prefactor's
        numerator over its denominator and every generated factor."""
        pre = self.prefactor
        if pre is None:
            pre = rational_term(0, 1)
        elif self.subs is not None:
            pre = pre.substitute(self.subs)
        factors = pre.denominator + tuple(self.factor_list(order))
        return RationalTerm(pre.q_shift, pre.numerator, factors)

    def expand(self, order):
        return self.as_term(order).expand(order)

    def substituted(self, subs):
        merged = subs if self.subs is None else compose_substitutions(self.subs, subs)
        return replace(self, subs=merged)


# ---------------------------------------------------------------------------
# Identity specifications.
# ---------------------------------------------------------------------------

@dataclass
class IdentitySpec:
    """A concrete identity: all parameters bound, ready to expand."""

    id: str
    params: dict
    sum_terms: tuple
    tail: TailFamily | None
    product: ProductSide | None
    rhs_terms: tuple = ()
    rhs_tail: TailFamily | None = None
    baseline: str | None = None
    positivity_exempt: bool = False

    def substituted(self, mapping, new_id=None, baseline=None):
        subs = normalize_substitution(mapping)
        terms = tuple(
            t
            for t in (term.substitute(subs) for term in self.sum_terms)
            if not t.is_zero()
        )
        rhs = tuple(
            t
            for t in (term.substitute(subs) for term in self.rhs_terms)
            if not t.is_zero()
        )
        return replace(
            self,
            id=new_id or self.id,
            sum_terms=terms,
            tail=self.tail.substituted(subs) if self.tail else None,
            product=self.product.substituted(subs) if self.product else None,
            rhs_terms=rhs,
            rhs_tail=self.rhs_tail.substituted(subs) if self.rhs_tail else None,
            baseline=baseline,
        )


def expand_sum_side(spec, order):
    return expand_terms(spec.sum_terms, spec.tail, order)


def expand_product_side(spec, order):
    if spec.product is not None:
        return spec.product.expand(order)
    return expand_terms(spec.rhs_terms, spec.rhs_tail, order)


def instance_label(id_, params):
    """`id`, or `id[k=v,...]` with the bound parameters sorted by name."""
    if not params:
        return id_
    bound = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{id_}[{bound}]"


@dataclass
class VerificationReport:
    id: str
    params: dict
    order: int
    ok: bool
    discrepancy: EqualityReport | None = None

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
    report = series_equal(
        expand_sum_side(spec, order), expand_product_side(spec, order)
    )
    return VerificationReport(
        spec.id, spec.params, report.order, report.equal,
        None if report.equal else report,
    )


# ---------------------------------------------------------------------------
# Builders shared by several entries.
# ---------------------------------------------------------------------------

def q_integer(n):
    """[n]_q = 1 + q + ... + q^(n-1) as a q-polynomial."""
    return {i: WeightPolynomial.const(1) for i in range(n)}


def q_integer_sq(h):
    """[h]_{q^2} = 1 + q^2 + ... + q^(2h-2)."""
    return {2 * i: WeightPolynomial.const(1) for i in range(h)}


def _one_minus(e):
    return {0: WeightPolynomial.const(1), e: WeightPolynomial.const(-1)}


def _dens(exponents, weight_map=None):
    weight_map = weight_map or {}
    return tuple((weight_map.get(e, MONO_ONE), e) for e in exponents)


def _tail(m0, shift_fn, weight_map):
    return TailFamily(
        m0,
        shift_fn,
        lambda m: rational_term(
            shift_fn(m), 1, _dens(range(1, m + 1), weight_map)
        ),
    )


def _tail23(m0, weight_map=None):
    return _tail(m0, lambda m: m * (m + 1), weight_map or {})


def _tail14(m0, weight_map=None):
    return _tail(m0, lambda m: m * m, weight_map or {})


def _prod23(weights=None, removed=(), added=None, prefactor=None):
    return ProductSide(
        5, frozenset({2, 3}), dict(weights or {}), frozenset(removed),
        dict(added or {}), prefactor,
    )


def _prod14(weights=None, removed=(), added=None, prefactor=None):
    return ProductSide(
        5, frozenset({1, 4}), dict(weights or {}), frozenset(removed),
        dict(added or {}), prefactor,
    )


def _num_single_23(M):
    # 1 + q + ... + q^(M-2) + t*q^(M-1) + q^M
    num = {i: WeightPolynomial.const(1) for i in range(M - 1)}
    num = qpoly_add(num, {M - 1: T})
    return qpoly_add(num, {M: WeightPolynomial.const(1)})


def _num_single_14(M):
    # 1 + q + ... + q^(M-1) + t*q^M
    num = {i: WeightPolynomial.const(1) for i in range(M)}
    return qpoly_add(num, {M: T})


def _num_pair_23(M):
    # [M]_q + (w - 1)*(q^(M-3) + q^(M-6)); negative degrees fold into shifts
    bump = qpoly_mul(qpoly(W - 1), {M - 3: 1, M - 6: 1})
    return qpoly_add(q_integer(M), bump)


def _num_pair_14(M):
    # [M/2]_{q^2} + (w - 1)*q^(M-4)
    bump = qpoly_mul(qpoly(W - 1), {M - 4: 1})
    return qpoly_add(q_integer_sq(M // 2), bump)


_SEVEN = q_integer(7)
_SEVEN_PLUS = qpoly_mul(q_integer(7), {0: 1, 4: 1})
_NUM_NINE = qpoly({0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 10: 1})


# ---------------------------------------------------------------------------
# Entry builders.
# ---------------------------------------------------------------------------

def _build_rr1():
    return IdentitySpec(
        "rr1", {}, (rational_term(0, 1),), _tail14(1), _prod14(),
    )


def _build_rr2():
    return IdentitySpec(
        "rr2", {}, (rational_term(0, 1),), _tail23(1), _prod23(),
    )


def _build_miniprop():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),)),
    )
    return IdentitySpec(
        "miniprop", {}, terms, _tail23(2, {2: MONO_T}),
        _prod23(weights={2: MONO_T}), baseline="rr2",
    )


def _build_weirdeq():
    lhs = (
        rational_term(0, _one_minus(2), ((MONO_T, 2),)),
        rational_term(2, _one_minus(2), ((MONO_T, 2), (MONO_ONE, 1))),
    )
    rhs = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),)),
    )
    return IdentitySpec(
        "weirdeq", {}, lhs, None, None, rhs_terms=rhs,
        positivity_exempt=True,
    )


def _general_prefactor_terms(M, shift_of):
    P = M + 1
    pref = _one_minus(P)
    lhs = tuple(
        rational_term(
            shift_of(k), pref, ((MONO_T, P),) + _dens(range(1, k + 1))
        )
        for k in range(0, M + 1)
    )
    rhs_tail = tuple(
        rational_term(
            shift_of(k), pref, ((MONO_T, P),) + _dens(range(1, k + 1))
        )
        for k in range(2, M + 1)
    )
    return lhs, rhs_tail


def _build_weirdeq_general(M):
    lhs, rest = _general_prefactor_terms(M, lambda k: k * (k + 1))
    rhs = (
        rational_term(0, 1),
        rational_term(2, _num_single_23(M), ((MONO_T, M + 1),)),
    ) + rest
    return IdentitySpec(
        "weirdeq_general", {"M": M}, lhs, None, None, rhs_terms=rhs,
        positivity_exempt=True,
    )


def _build_weirdeq_general_14(M):
    lhs, rest = _general_prefactor_terms(M, lambda k: k * k)
    rhs = (
        rational_term(0, 1),
        rational_term(1, _num_single_14(M), ((MONO_T, M + 1),)),
    ) + rest
    return IdentitySpec(
        "weirdeq_general_14", {"M": M}, lhs, None, None, rhs_terms=rhs,
        positivity_exempt=True,
    )


def _build_partM(M):
    P = M + 1
    terms = [
        rational_term(0, 1),
        rational_term(2, _num_single_23(M), ((MONO_T, P),)),
    ]
    for k in range(2, M + 1):
        terms.append(
            rational_term(
                k * (k + 1), q_integer(P),
                ((MONO_T, P),) + _dens(range(2, k + 1)),
            )
        )
    product = _prod23(
        prefactor=rational_term(0, _one_minus(P), ((MONO_T, P),))
    )
    return IdentitySpec(
        "partM", {"M": M}, tuple(terms), _tail23(P, {P: MONO_T}), product,
        baseline="rr2",
    )


def _build_partMeq(M):
    P = M + 1
    terms = [
        rational_term(0, 1),
        rational_term(1, _num_single_14(M), ((MONO_T, P),)),
    ]
    for k in range(2, M + 1):
        terms.append(
            rational_term(
                k * k, q_integer(P), ((MONO_T, P),) + _dens(range(2, k + 1))
            )
        )
    product = _prod14(
        prefactor=rational_term(0, _one_minus(P), ((MONO_T, P),))
    )
    return IdentitySpec(
        "partMeq", {"M": M}, tuple(terms), _tail14(P, {P: MONO_T}), product,
        baseline="rr1",
    )


def _build_parts2Meq(M):
    pref = qpoly_mul(_one_minus(2), _one_minus(M))
    lhs = tuple(
        rational_term(
            k * (k + 1), pref,
            ((MONO_T, 2), (MONO_W, M)) + _dens(range(1, k + 1)),
        )
        for k in range(3)
    )
    rhs = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),)),
        rational_term(6, _num_pair_23(M), ((MONO_T, 2), (MONO_W, M))),
    )
    return IdentitySpec(
        "parts2Meq", {"M": M}, lhs, None, None, rhs_terms=rhs,
        positivity_exempt=True,
    )


def _build_twopartM(M):
    terms = [
        rational_term(0, 1),
        rational_term(2, {0: T, 1: 1}, ((MONO_T, 2),)),
        rational_term(6, _num_pair_23(M), ((MONO_T, 2), (MONO_W, M))),
    ]
    for k in range(3, M):
        terms.append(
            rational_term(
                k * (k + 1), q_integer(M),
                ((MONO_T, 2), (MONO_W, M)) + _dens(range(3, k + 1)),
            )
        )
    product = _prod23(
        weights={2: MONO_T},
        prefactor=rational_term(0, _one_minus(M), ((MONO_W, M),)),
    )
    return IdentitySpec(
        "twopartM", {"M": M}, tuple(terms),
        _tail23(M, {2: MONO_T, M: MONO_W}), product, baseline="rr2",
    )


def _build_parts1Meq(M):
    pref = qpoly_mul(_one_minus(1), _one_minus(M))
    lhs = tuple(
        rational_term(
            k * k, pref, ((MONO_T, 1), (MONO_W, M)) + _dens(range(1, k + 1))
        )
        for k in range(3)
    )
    rhs = (
        rational_term(0, 1),
        rational_term(1, {0: T}, ((MONO_T, 1),)),
        rational_term(4, _num_pair_14(M), ((MONO_T, 1), (MONO_W, M))),
    )
    return IdentitySpec(
        "parts1Meq", {"M": M}, lhs, None, None, rhs_terms=rhs,
        positivity_exempt=True,
    )


def _build_twopart14(M):
    terms = [
        rational_term(0, 1),
        rational_term(1, {0: T}, ((MONO_T, 1),)),
        rational_term(4, _num_pair_14(M), ((MONO_T, 1), (MONO_W, M))),
    ]
    for k in range(3, M):
        terms.append(
            rational_term(
                k * k, q_integer_sq(M // 2),
                ((MONO_T, 1), (MONO_W, M)) + _dens(range(3, k + 1)),
            )
        )
    product = _prod14(
        weights={1: MONO_T},
        prefactor=rational_term(0, _one_minus(M), ((MONO_W, M),)),
    )
    return IdentitySpec(
        "twopart14", {"M": M}, tuple(terms),
        _tail14(M, {1: MONO_T, M: MONO_W}), product, baseline="rr1",
    )


def _build_firsttw():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: W}, ((MONO_T, 2),)),
        rational_term(6, {0: W * W, 1: 1, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
    )
    return IdentitySpec(
        "firsttw", {}, terms, _tail23(3, {2: MONO_T, 3: MONO_W}),
        _prod23(weights={2: MONO_T, 3: MONO_W}), baseline="rr2",
    )


def _build_secondtw():
    terms = (
        rational_term(0, 1),
        rational_term(2, {0: T, 1: W, 2: T * T}, ((MONO_W, 3),)),
        rational_term(6, {0: T * T * T, 1: 1, 2: 1}, ((MONO_T, 2), (MONO_W, 3))),
    )
    return IdentitySpec(
        "secondtw", {}, terms, _tail23(3, {2: MONO_T, 3: MONO_W}),
        _prod23(weights={2: MONO_T, 3: MONO_W}), baseline="rr2",
    )


_TWV_DENS = {2: MONO_T, 3: MONO_W, 7: MONO_V}


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
        "twvthm", {}, terms, _tail23(7, _TWV_DENS),
        _prod23(weights=_TWV_DENS), baseline="rr2",
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


_TWVX23_DENS = {2: MONO_T, 3: MONO_W, 7: MONO_V, 8: MONO_X}


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
        "twvx23theorem", {}, terms, _tail23(8, _TWVX23_DENS),
        _prod23(weights=_TWVX23_DENS), baseline="rr2",
    )


_TWVX14_DENS = {1: MONO_T, 4: MONO_W, 6: MONO_V, 9: MONO_X}


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
        "twvx14thm", {}, terms, _tail14(9, _TWVX14_DENS),
        _prod14(weights=_TWVX14_DENS), baseline="rr1",
    )


def _build_x1_reduction():
    lhs = (rational_term(0, _NUM_NINE, ((MONO_ONE, 9),)),)
    rhs = (rational_term(0, _one_minus(6), ((MONO_ONE, 2), (MONO_ONE, 3))),)
    return IdentitySpec(
        "x1_reduction", {}, lhs, None, None, rhs_terms=rhs,
        positivity_exempt=True,
    )


def _build_spec3_display():
    terms = (
        rational_term(0, 1),
        rational_term(2, 1, ((MONO_ONE, 1),)),
        rational_term(3, -1),
        rational_term(6, {1: 1, 2: 1, 4: 1}, ((MONO_ONE, 2), (MONO_ONE, 5))),
    )
    tail = TailFamily(
        3,
        lambda m: m * (m + 1),
        lambda m: rational_term(
            m * (m + 1), 1,
            ((MONO_ONE, 1), (MONO_ONE, 2), (MONO_ONE, 5))
            + _dens(range(4, m + 1)),
        ),
    )
    return IdentitySpec(
        "spec3_display", {}, terms, tail,
        _prod23(removed={3}, added={5: MONO_ONE}),
        positivity_exempt=True,
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

@dataclass
class CatalogEntry:
    """A catalog slot: fixed identity or a parameterized family over M."""

    id: str
    build: callable
    param_style: str | None = None  # None, "M" or "M+1" (sweep-bound meaning)
    admissible: callable = None
    param_hint: str = ""
    min_order: int = 60
    kind_label: str = "theorem"

    @property
    def parameterized(self):
        return self.param_style is not None

    def is_admissible(self, M):
        return self.parameterized and M >= 1 and self.admissible(M)

    def instantiate(self, M=None):
        if not self.parameterized:
            if M is not None:
                raise ParameterError(f"{self.id} takes no parameter")
            return self.build()
        if M is None:
            raise ParameterError(
                f"{self.id} needs a parameter M ({self.param_hint})"
            )
        if not self.is_admissible(M):
            raise ParameterError(
                f"M={M} is outside the admissible set for {self.id} "
                f"({self.param_hint})"
            )
        return self.build(M)

    def sweep(self, bound=40):
        """Admissible M values with M (or M+1, per the entry) up to bound."""
        if not self.parameterized:
            return [None]
        top = bound - 1 if self.param_style == "M+1" else bound
        return [M for M in range(1, top + 1) if self.admissible(M)]


def _entries():
    def mod5_23_next(M):
        return (M + 1) % 5 in (2, 3)

    def mod5_14_next(M):
        return (M + 1) % 5 in (1, 4) and M >= 1

    return [
        CatalogEntry("rr1", _build_rr1, kind_label="classical"),
        CatalogEntry("rr2", _build_rr2, kind_label="classical"),
        CatalogEntry("miniprop", _build_miniprop, kind_label="proposition"),
        CatalogEntry("weirdeq", _build_weirdeq, kind_label="equation"),
        CatalogEntry(
            "weirdeq_general", _build_weirdeq_general, "M",
            lambda M: M >= 1, "any M >= 1", kind_label="proposition",
        ),
        CatalogEntry(
            "partM", _build_partM, "M+1", mod5_23_next,
            "M+1 congruent to 2 or 3 mod 5",
        ),
        CatalogEntry(
            "weirdeq_general_14", _build_weirdeq_general_14, "M",
            lambda M: M >= 1, "any M >= 1", kind_label="equation",
        ),
        CatalogEntry(
            "partMeq", _build_partMeq, "M+1", mod5_14_next,
            "M+1 >= 2 congruent to 1 or 4 mod 5", kind_label="equation",
        ),
        CatalogEntry(
            "parts2Meq", _build_parts2Meq, "M", lambda M: M >= 1,
            "any M >= 1", kind_label="proposition",
        ),
        CatalogEntry(
            "twopartM", _build_twopartM, "M",
            lambda M: M >= 7 and M % 5 in (2, 3),
            "M >= 7 congruent to 2 or 3 mod 5",
        ),
        CatalogEntry(
            "parts1Meq", _build_parts1Meq, "M",
            lambda M: M >= 4 and M % 2 == 0,
            "even M >= 4", kind_label="equation",
        ),
        CatalogEntry(
            "twopart14", _build_twopart14, "M",
            lambda M: M >= 4 and M % 2 == 0 and M % 5 in (1, 4),
            "even M >= 4 congruent to 1 or 4 mod 5", kind_label="proposition",
        ),
        CatalogEntry("firsttw", _build_firsttw, kind_label="proposition"),
        CatalogEntry("secondtw", _build_secondtw, kind_label="proposition"),
        CatalogEntry("twvthm", _build_twvthm),
        CatalogEntry("reorder_twv_a", _build_reorder_twv_a, kind_label="equation"),
        CatalogEntry("reorder_twv_b", _build_reorder_twv_b, kind_label="equation"),
        CatalogEntry("twvx23theorem", _build_twvx23),
        CatalogEntry("twvx14thm", _build_twvx14, min_order=80),
        CatalogEntry("x1_reduction", _build_x1_reduction, kind_label="equation"),
        CatalogEntry("spec3_display", _build_spec3_display, kind_label="equation"),
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


def get_entry(identity_id):
    wanted = identity_id.lower()
    for entry in catalog():
        if entry.id.lower() == wanted:
            return entry
    raise UnknownIdentityError(identity_id)


def verify_entry(entry, order=None, max_param=40, param=None):
    """Verify one entry at `param`, or over its sweep, and return the reports.

    The order is the requested one raised to the entry's minimum.
    """
    params = entry.sweep(max_param) if param is None else [param]
    use = max(order or 0, entry.min_order)
    return [verify(entry.instantiate(M), use) for M in params]


def verify_all(order=None, max_param=40, ids=None):
    reports = []
    entries = catalog() if ids is None else [get_entry(i) for i in ids]
    for entry in entries:
        reports.extend(verify_entry(entry, order=order, max_param=max_param))
    return reports


def reports_to_json(reports):
    import json

    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)
