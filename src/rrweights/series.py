"""Exact arithmetic for weight polynomials, truncated q-series and rational terms.

Coefficients live in Z[t, w, v, x].  A weight monomial is packed into a
single int as four 16-bit exponent fields (t in the highest field), so a
product of monomials is an integer addition.  Truncated series are dense
lists of weight-polynomial coefficients for q^0 .. q^order; binary
operations truncate to the smaller operand's order rather than treating
unknown coefficients as zero.  All arithmetic is exact.

A sum of rational terms, plus a tail's terms, goes over its own
denominator D by one fold (`_over_own_denominator`): Horner's rule,
shallowest denominator first, multiplying the running sum by the factors
each term adds and a copy of a numerator by the factors its term lacks,
one descending pass of c[n] -= m*c[n-e] per factor.  Nested denominators
so cost one multiplication per factor.  An expansion is that numerator
divided in place by D, one ascending pass of c[n] += m*c[n-e] per factor
(`expand_terms`).  Every equality is decided without expanding either
side (`over_one_denominator`): each side's numerator is multiplied by the
factors of the common denominator that its D lacks.  Both passes run only
on plain monomial dicts (`_divide_dense`, `_multiply_dense`), weight-free
factors first: no series is divided or multiplied by a factor in place.
The dense product with a geometric series (`expand_inverse_factor`,
`TruncatedSeries.__mul__`) stays as a reference.
"""

from collections import Counter
from itertools import chain

VARIABLES = ("t", "w", "v", "x")

# Each variable's exponent is a 16-bit field of a packed monomial.
FIELD_MASK = 0xFFFF
VARIABLE_SHIFTS = {"t": 48, "w": 32, "v": 16, "x": 0}

MONO_ONE = 0
MONO_T = 1 << 48
MONO_W = 1 << 32
MONO_V = 1 << 16
MONO_X = 1

# Largest truncation order the entry points accept.  An expansion to order
# N adds at most N to any weight exponent (each weighted factor has e >= 1),
# so exponents stay far below the 16-bit field, whose overflow in a
# monomial product would carry silently into the next variable.
MAX_ORDER = 4096


class FactorError(ValueError):
    """Raised for denominator factors that are not power-series invertible."""


class SubstitutionError(ValueError):
    """Raised when a substitution leaves the supported factor shape."""


def pack_monomial(t=0, w=0, v=0, x=0):
    for e in (t, w, v, x):
        if not 0 <= e <= FIELD_MASK:
            raise ValueError(f"weight exponent out of range: {e!r}")
    return (t << 48) | (w << 32) | (v << 16) | x


def unpack_monomial(mono):
    return (
        (mono >> 48) & FIELD_MASK,
        (mono >> 32) & FIELD_MASK,
        (mono >> 16) & FIELD_MASK,
        mono & FIELD_MASK,
    )


def monomial_power(mono, k):
    """k-th power of a packed monomial (exponent ranges re-checked)."""
    if k < 0:
        raise ValueError("negative monomial power")
    return pack_monomial(*(e * k for e in unpack_monomial(mono)))


def monomial_str(mono):
    pieces = []
    for name, e in zip(VARIABLES, unpack_monomial(mono)):
        if e == 1:
            pieces.append(name)
        elif e:
            pieces.append(f"{name}^{e}")
    return "*".join(pieces) if pieces else "1"


def parse_monomial(text):
    """Parse "1", "t", "v^2" or "t*w^3" into a packed monomial."""
    s = text.strip()
    if s in ("", "1"):
        return MONO_ONE
    exps = [0, 0, 0, 0]
    for piece in s.split("*"):
        name, _, power = piece.strip().partition("^")
        if name not in VARIABLES:
            raise ValueError(f"unknown weight variable {name!r} in {text!r}")
        exps[VARIABLES.index(name)] += int(power) if power else 1
    return pack_monomial(*exps)


def _mono_key(mono):
    # graded order, then t before w before v before x
    exps = unpack_monomial(mono)
    return (sum(exps), tuple(-e for e in exps))


def normalize_substitution(mapping):
    """Turn {"t": 1, "w": "q", "v": (1, 2)} into a 4-slot internal form.

    Each value is an int constant, the string "q", or a (coeff, q_exp)
    pair meaning coeff * q^q_exp.  Unmentioned variables are untouched.
    """
    out = [None, None, None, None]
    for name, value in mapping.items():
        if name not in VARIABLES:
            raise SubstitutionError(f"unknown weight variable {name!r}")
        if isinstance(value, int):
            norm = (value, 0)
        elif value == "q":
            norm = (1, 1)
        else:
            coeff, exp = value
            norm = (int(coeff), int(exp))
        if norm[1] < 0:
            raise SubstitutionError("substitution q-exponent must be >= 0")
        out[VARIABLES.index(name)] = norm
    return tuple(out)


def compose_substitutions(first, second):
    """Apply `first`, then `second` on the variables `first` left alone."""
    return tuple(f if f is not None else s for f, s in zip(first, second))


def substitute_monomial(mono, subs):
    """(coefficient, q-shift, monomial left) of a packed monomial under a
    normalized substitution."""
    coeff = 1
    shift = 0
    kept = [0, 0, 0, 0]
    for i, (e, s) in enumerate(zip(unpack_monomial(mono), subs)):
        if s is None:
            kept[i] = e
        else:
            coeff *= s[0] ** e
            shift += s[1] * e
    return coeff, shift, pack_monomial(*kept)


def substitute_factor(factor, subs):
    """The factor (1 - mono*q^e) under a normalized substitution.

    Returns the substituted factor, or None when the monomial's coefficient
    becomes 0, so that the factor is 1.  Any coefficient other than 0 or 1
    raises SubstitutionError: the factor would leave the (1 - mono*q^e)
    shape.
    """
    mono, q_exp = factor
    coeff, shift, kept = substitute_monomial(mono, subs)
    if coeff == 0:
        return None
    if coeff != 1:
        raise SubstitutionError(
            "substitution gives a denominator coefficient other than 0 or 1"
        )
    return kept, q_exp + shift


class WeightPolynomial:
    """Sparse polynomial in t, w, v, x with exact integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _trusted=False):
        if not terms:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def const(cls, c):
        return cls({MONO_ONE: int(c)})

    @classmethod
    def variable(cls, name):
        return cls({pack_monomial(*(1 if v == name else 0 for v in VARIABLES)): 1})

    @classmethod
    def monomial(cls, mono, coeff=1):
        return cls({mono: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({MONO_ONE: other} if other else {})
        if isinstance(other, WeightPolynomial):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms)
        return WeightPolynomial(out, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return WeightPolynomial({m: -c for m, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return WeightPolynomial()
            return WeightPolynomial(
                {m: c * other for m, c in self.terms.items()}, _trusted=True
            )
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        return WeightPolynomial(out, _trusted=True)

    __rmul__ = __mul__

    def substitute(self, subs):
        """Apply a normalized substitution; returns {q_shift: polynomial}."""
        out = {}
        for mono, c in self.terms.items():
            coeff, shift, key = substitute_monomial(mono, subs)
            if not coeff:
                continue
            bucket = out.setdefault(shift, {})
            nc = bucket.get(key, 0) + c * coeff
            if nc:
                bucket[key] = nc
            else:
                del bucket[key]
        return {
            s: WeightPolynomial(b, _trusted=True) for s, b in out.items() if b
        }

    def first_negative(self):
        """Smallest (graded-lex) monomial with a negative coefficient, or None."""
        bad = [(m, c) for m, c in self.terms.items() if c < 0]
        if not bad:
            return None
        return min(bad, key=lambda mc: _mono_key(mc[0]))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: _mono_key(mc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in self.sorted_terms():
            body = monomial_str(mono)
            if body == "1":
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            if not pieces:
                pieces.append(f"-{text}" if c < 0 else text)
            else:
                pieces.append(f"- {text}" if c < 0 else f"+ {text}")
        return " ".join(pieces)

    def __repr__(self):
        return f"WeightPolynomial({self})"


WP_ZERO = WeightPolynomial()
WP_ONE = WeightPolynomial.const(1)


def _add_into(bucket, terms, mono=MONO_ONE):
    """bucket[m + mono] += c for each term, dropping cancelled monomials."""
    for m, c in terms.items():
        m += mono
        nc = bucket.get(m, 0) + c
        if nc:
            bucket[m] = nc
        else:
            del bucket[m]


def _coerce(x):
    if isinstance(x, WeightPolynomial):
        return x
    if isinstance(x, int):
        return WeightPolynomial.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# q-polynomials: {q_degree: WeightPolynomial}, used for numerators.
# ---------------------------------------------------------------------------

def qpoly(data):
    """Normalize an int, WeightPolynomial or {degree: coeff} into a q-poly."""
    if isinstance(data, int):
        data = {0: data}
    elif isinstance(data, WeightPolynomial):
        data = {0: data}
    out = {}
    for deg, c in data.items():
        c = _coerce(c)
        if c is NotImplemented:
            raise TypeError(f"coefficient at q^{deg} is not int or polynomial")
        if c:
            out[deg] = c
    return out


def qpoly_add(a, b):
    out = dict(a)
    for deg, c in b.items():
        nc = out.get(deg, WP_ZERO) + c
        if nc:
            out[deg] = nc
        else:
            out.pop(deg, None)
    return out


def qpoly_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            nc = out.get(d, WP_ZERO) + c1 * c2
            if nc:
                out[d] = nc
            else:
                del out[d]
    return out


def qpoly_str(qp):
    """Canonical string: ascending q-degree, weight terms in graded order."""
    if not qp:
        return "0"
    pieces = []
    for deg in sorted(qp):
        coeff = qp[deg]
        if deg == 0:
            qpart = ""
        elif deg == 1:
            qpart = "q"
        else:
            qpart = f"q^{deg}"
        items = coeff.sorted_terms()
        if len(items) > 1:
            body = f"({coeff})*{qpart}" if qpart else f"({coeff})"
            pieces.append(("+", body))
            continue
        mono, c = items[0]
        mpart = monomial_str(mono)
        factors = []
        if abs(c) != 1 or (mpart == "1" and not qpart):
            factors.append(str(abs(c)))
        if mpart != "1":
            factors.append(mpart)
        if qpart:
            factors.append(qpart)
        pieces.append(("-" if c < 0 else "+", "*".join(factors)))
    sign, body = pieces[0]
    text = f"-{body}" if sign == "-" else body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# Truncated series.
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Dense q-series with WeightPolynomial coefficients up to q^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match order")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order):
        return cls(order, [WP_ZERO] * (order + 1))

    @classmethod
    def one(cls, order):
        coeffs = [WP_ZERO] * (order + 1)
        coeffs[0] = WP_ONE
        return cls(order, coeffs)

    @classmethod
    def from_terms(cls, order, qp):
        coeffs = [WP_ZERO] * (order + 1)
        for deg, c in qpoly(qp).items():
            if 0 <= deg <= order:
                coeffs[deg] = coeffs[deg] + c
            elif deg < 0:
                raise ValueError("negative q-degree in series constructor")
        return cls(order, coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other):
        k = min(self.order, other.order)
        return TruncatedSeries(
            k, [self.coeffs[n] + other.coeffs[n] for n in range(k + 1)]
        )

    def __sub__(self, other):
        k = min(self.order, other.order)
        return TruncatedSeries(
            k, [self.coeffs[n] - other.coeffs[n] for n in range(k + 1)]
        )

    def __mul__(self, other):
        k = min(self.order, other.order)
        buckets = [dict() for _ in range(k + 1)]
        for i in range(k + 1):
            a = self.coeffs[i].terms
            if not a:
                continue
            for j in range(k - i + 1):
                b = other.coeffs[j].terms
                if not b:
                    continue
                bucket = buckets[i + j]
                for m1, c1 in a.items():
                    for m2, c2 in b.items():
                        m = m1 + m2
                        nc = bucket.get(m, 0) + c1 * c2
                        if nc:
                            bucket[m] = nc
                        else:
                            del bucket[m]
        return _as_series(k, buckets)

    def shifted(self, k):
        if k == 0:
            return self
        return TruncatedSeries(self.order + k, [WP_ZERO] * k + self.coeffs)

    def truncated(self, k):
        if k > self.order:
            raise ValueError("cannot extend a truncated series")
        if k == self.order:
            return self
        return TruncatedSeries(k, self.coeffs[: k + 1])

    def substitute(self, subs):
        """Apply a normalized weight substitution coefficient-wise.

        Replacements carrying q-powers push contributions to higher
        degrees; anything landing past the order is dropped, which is
        sound because unknown coefficients can only land higher still.
        """
        out = [dict() for _ in range(self.order + 1)]
        for n, coeff in enumerate(self.coeffs):
            if not coeff:
                continue
            for shift, part in coeff.substitute(subs).items():
                if n + shift <= self.order:
                    _add_into(out[n + shift], part.terms)
        return _as_series(self.order, out)

    def as_qpoly(self):
        return {n: c for n, c in enumerate(self.coeffs) if c}

    def __str__(self):
        return qpoly_str(self.as_qpoly())

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self})"


def _as_series(order, coeffs):
    """A series over dense monomial dicts, which it takes over."""
    return TruncatedSeries(
        order, [WeightPolynomial(b, _trusted=True) for b in coeffs]
    )


class EqualityReport:
    """Outcome of a coefficient-wise series comparison: on a mismatch, its
    degree and the two coefficients there."""

    __slots__ = ("equal", "order", "degree", "lhs", "rhs")

    def __init__(self, equal, order, degree=None, lhs=None, rhs=None):
        self.equal = equal
        self.order = order
        self.degree = degree
        self.lhs = lhs
        self.rhs = rhs


def series_equal(a, b):
    """Compare two series up to their shared order; report first mismatch."""
    k = min(a.order, b.order)
    for n in range(k + 1):
        if a.coeffs[n] != b.coeffs[n]:
            return EqualityReport(False, k, n, a.coeffs[n], b.coeffs[n])
    return EqualityReport(True, k)


def expand_inverse_factor(factor, order):
    """Geometric expansion of 1/(1 - mono*q^e) up to the given order.

    Expansions divide in place instead (`expand_terms`); this dense form
    is the reference the tests hold them to.
    """
    mono, q_exp = factor
    if q_exp < 1:
        raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
    coeffs = [WP_ZERO] * (order + 1)
    for i in range(order // q_exp + 1):
        coeffs[i * q_exp] = WeightPolynomial.monomial(monomial_power(mono, i))
    return TruncatedSeries(order, coeffs)


# ---------------------------------------------------------------------------
# Rational terms: q^shift * numerator / prod (1 - mono*q^e).
# ---------------------------------------------------------------------------

class RationalTerm:
    """One summand of a sum side.

    The numerator is stored with min degree 0; construction folds any
    negative numerator degrees into the prefactor shift, which must stay
    non-negative.  Terms compare by their fields and, like the dicts they
    hold, do not hash.
    """

    __slots__ = ("q_shift", "numerator", "denominator")

    def __init__(self, q_shift, numerator, denominator):
        self.q_shift = q_shift
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other):
        if other.__class__ is RationalTerm:
            return (
                self.q_shift == other.q_shift
                and self.numerator == other.numerator
                and self.denominator == other.denominator
            )
        return NotImplemented

    def is_zero(self):
        return not self.numerator

    def expand(self, order):
        return expand_terms((self,), None, order)

    def substitute(self, subs):
        num = {}
        for deg, coeff in self.numerator.items():
            for shift, part in coeff.substitute(subs).items():
                num = qpoly_add(num, {deg + shift: part})
        dens = (substitute_factor(f, subs) for f in self.denominator)
        return rational_term(
            self.q_shift, num, tuple(f for f in dens if f is not None)
        )

    def __str__(self):
        num = qpoly_str(self.numerator)
        text = f"({num})" if self.numerator and len(self.numerator) > 1 else num
        if self.q_shift:
            text = f"q^{self.q_shift}*{text}" if self.q_shift > 1 else f"q*{text}"
        for mono, e in self.denominator:
            ms = monomial_str(mono)
            head = "" if ms == "1" else f"{ms}*"
            text += f"/(1-{head}q^{e})" if e > 1 else f"/(1-{head}q)"
        return text


def _divide_dense(coeffs, factor):
    """Divide dense monomial dicts in place by (1 - mono*q^e), e >= 1.

    Ascending n, c[n] += mono*c[n-e] reads c[n-e] once it already holds
    its quotient.  Each dict is changed in place, so none may be shared.
    """
    mono, q_exp = factor
    if q_exp < 1:
        raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
    for n in range(q_exp, len(coeffs)):
        prev = coeffs[n - q_exp]
        if prev:
            _add_into(coeffs[n], prev, mono)


def _multiply_dense(coeffs, factor):
    """Multiply dense monomial dicts in place by (1 - mono*q^e), e >= 1.

    The twin of `_divide_dense`: descending n, c[n] -= mono*c[n-e] reads
    c[n-e] before it changes.  Each dict is changed in place, so none may
    be shared.
    """
    mono, q_exp = factor
    if q_exp < 1:
        raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
    for n in range(len(coeffs) - 1, q_exp - 1, -1):
        prev = coeffs[n - q_exp]
        if prev:
            bucket = coeffs[n]
            for m, c in prev.items():
                m += mono
                nc = bucket.get(m, 0) - c
                if nc:
                    bucket[m] = nc
                else:
                    del bucket[m]


def _each_factor(coeffs, factors, kernel):
    """Apply `kernel` (`_divide_dense` or `_multiply_dense`) to dense
    monomial dicts in place once per factor, weight-free ones first.

    A weight-free factor keeps the monomials of every coefficient, so it
    costs least before the weighted factors multiply them.  The factors
    commute, so the order does not change the result.
    """
    for factor in sorted(factors, key=lambda f: f[0] != MONO_ONE):
        kernel(coeffs, factor)


def _over_own_denominator(terms, tail, order):
    """(N, D): the terms plus the tail's terms over their own denominator D.

    D is a Counter holding each factor (mono, e) with e <= order as often
    as the term needing it most, and N, as dense monomial dicts to order,
    is the sum times D modulo q^(order+1).  Factors with e > order are 1
    modulo q^(order+1), and terms shifted past the order or with a zero
    numerator add nothing, so both are left out.  The other terms join by
    Horner's rule, shallowest denominator first: the running sum is kept
    over the factors R seen so far, and a term N_t/D_t joins it by
    multiplying the sum by D_t - R and a copy of N_t by R - D_t
    (multisets), after which R is their union.  Nested denominators, as in
    sum_m q^(m^2)/(q;q)_m, so cost one multiplication per factor, and no
    numerator is multiplied.
    """
    if tail is not None:
        terms = chain(terms, tail.terms_up_to(order))
    kept = sorted(
        (
            (t, Counter(f for f in t.denominator if f[1] <= order))
            for t in terms if t.numerator and t.q_shift <= order
        ),
        key=lambda pair: sum(pair[1].values()),
    )
    acc = [{} for _ in range(order + 1)]
    den = Counter()
    for i, (term, own) in enumerate(kept):
        if i:   # the first term finds the sum still empty
            _each_factor(acc, (own - den).elements(), _multiply_dense)
        lacks = den - own
        den |= own
        work = order - term.q_shift
        pieces = [
            (deg, coeff.terms) for deg, coeff in term.numerator.items()
            if deg <= work
        ]
        if lacks:   # multiply a dense copy of the numerator first
            num = [{} for _ in range(work + 1)]
            for deg, coeff in pieces:
                num[deg] = dict(coeff)
            _each_factor(num, lacks.elements(), _multiply_dense)
            pieces = enumerate(num)
        for deg, coeff in pieces:
            _add_into(acc[term.q_shift + deg], coeff)
    return acc, den


def expand_terms(terms, tail, order):
    """Sum of rational terms, plus a tail family's terms, up to q^order:
    the terms over their own denominator (`_over_own_denominator`), divided
    by it once per factor."""
    acc, den = _over_own_denominator(terms, tail, order)
    _each_factor(acc, den.elements(), _divide_dense)
    return _as_series(order, acc)


def over_one_denominator(sides, order):
    """Sides, each a (terms, tail) pair as `expand_terms` takes, over one
    common denominator U up to q^order.

    Returns one numerator N per side, a series to order with N/U equal to
    its side modulo q^(order+1).  U holds each factor (mono, e) with
    e <= order as often as the side needing it most.  Every factor has
    constant term 1, so U is a unit: two sides agree up to q^order exactly
    when their numerators do, and the numerators first differ at the same
    degree, by the same polynomial, as the expansions.  Each side goes over
    its own denominator D (`_over_own_denominator`) and is then multiplied
    in place by U - D (multisets).
    """
    cleared = [
        _over_own_denominator(terms, tail, order) for terms, tail in sides
    ]
    common = Counter()
    for _, den in cleared:
        common |= den
    numerators = []
    for acc, den in cleared:
        _each_factor(acc, (common - den).elements(), _multiply_dense)
        numerators.append(_as_series(order, acc))
    return numerators


def rational_term(q_shift, numerator, denominator=()):
    """Build a RationalTerm, normalizing negative numerator degrees."""
    num = qpoly(numerator)
    dens = []
    for mono, q_exp in denominator:
        if q_exp < 1:
            raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
        dens.append((int(mono), int(q_exp)))
    if num:
        dmin = min(num)
        if dmin < 0:
            q_shift = q_shift + dmin
            num = {d - dmin: c for d, c in num.items()}
    if q_shift < 0:
        raise ValueError("rational term has a negative leading q-power")
    return RationalTerm(q_shift, num, tuple(dens))
