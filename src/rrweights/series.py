"""Exact arithmetic for weight polynomials, truncated q-series and rational terms.

Coefficients live in Z[t, w, v, x].  A weight monomial is packed into a
single int as four 16-bit exponent fields (t in the highest field), so a
product of monomials is an integer addition.  Truncated series are dense
lists of weight-polynomial coefficients for q^0 .. q^order; binary
operations truncate to the smaller operand's order rather than treating
unknown coefficients as zero.  All arithmetic is exact.

Rational terms expand by dividing their numerator in place by each
denominator factor (1 - m*q^e), one ascending pass of c[n] += m*c[n-e]
per factor, weight-free factors first.  A sum of terms is folded in from
its deepest denominator down, keeping the factors the terms share pending,
so nested denominators cost one division per factor.  To compare two sums
without expanding either, each goes over one common denominator, each
numerator multiplied in place by the factors its term lacks (one
descending pass of c[n] -= m*c[n-e] each).  The dense product with a
geometric series (`expand_inverse_factor`, `TruncatedSeries.__mul__`)
stays as a reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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


def monomial_degree(mono):
    return sum(unpack_monomial(mono))


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

    def is_constant(self):
        return not self.terms or set(self.terms) == {MONO_ONE}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get(MONO_ONE, 0)

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

    def times_monomial(self, mono, coeff=1):
        if not coeff:
            return WeightPolynomial()
        return WeightPolynomial(
            {m + mono: c * coeff for m, c in self.terms.items()}, _trusted=True
        )

    def substitute(self, subs):
        """Apply a normalized substitution; returns {q_shift: polynomial}."""
        out = {}
        for mono, c in self.terms.items():
            exps = unpack_monomial(mono)
            coeff = c
            shift = 0
            kept = [0, 0, 0, 0]
            for i, (e, s) in enumerate(zip(exps, subs)):
                if s is None:
                    kept[i] = e
                else:
                    coeff *= s[0] ** e
                    shift += s[1] * e
            if not coeff:
                continue
            bucket = out.setdefault(shift, {})
            key = pack_monomial(*kept)
            nc = bucket.get(key, 0) + coeff
            if nc:
                bucket[key] = nc
            else:
                del bucket[key]
        return {
            s: WeightPolynomial(b, _trusted=True) for s, b in out.items() if b
        }

    def nonnegative(self):
        return all(c >= 0 for c in self.terms.values())

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

    def coefficient(self, n):
        if n > self.order:
            raise IndexError(f"coefficient q^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

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
        return TruncatedSeries(
            k, [WeightPolynomial(b, _trusted=True) for b in buckets]
        )

    def divide_by_factor(self, factor):
        """Divide in place by (1 - mono*q^e), e >= 1; returns self.

        Ascending n, c[n] += mono*c[n-e] reads c[n-e] once it already holds
        its quotient: O(order x monomials), against a dense product with the
        geometric series.  Coefficients are replaced, never mutated, so
        polynomials shared with other series stay intact.
        """
        mono, q_exp = factor
        if q_exp < 1:
            raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
        coeffs = self.coeffs
        for n in range(q_exp, self.order + 1):
            prev = coeffs[n - q_exp].terms
            if prev:
                bucket = dict(coeffs[n].terms)
                _add_into(bucket, prev, mono)
                coeffs[n] = WeightPolynomial(bucket, _trusted=True)
        return self

    def multiply_by_factor(self, factor):
        """Multiply in place by (1 - mono*q^e), e >= 1; returns self.

        The inverse of `divide_by_factor`: descending n, c[n] -= mono*c[n-e]
        reads c[n-e] before it changes.
        """
        mono, q_exp = factor
        if q_exp < 1:
            raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
        coeffs = self.coeffs
        for n in range(self.order, q_exp - 1, -1):
            prev = coeffs[n - q_exp].terms
            if prev:
                bucket = dict(coeffs[n].terms)
                for m, c in prev.items():
                    m += mono
                    nc = bucket.get(m, 0) - c
                    if nc:
                        bucket[m] = nc
                    else:
                        del bucket[m]
                coeffs[n] = WeightPolynomial(bucket, _trusted=True)
        return self

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

    def scaled_monomial(self, mono, coeff=1):
        return TruncatedSeries(
            self.order, [c.times_monomial(mono, coeff) for c in self.coeffs]
        )

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
        return TruncatedSeries(
            self.order, [WeightPolynomial(b, _trusted=True) for b in out]
        )

    def as_qpoly(self):
        return {n: c for n, c in enumerate(self.coeffs) if c}

    def __str__(self):
        return qpoly_str(self.as_qpoly())

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self})"


@dataclass
class EqualityReport:
    """Outcome of a coefficient-wise series comparison."""

    equal: bool
    order: int
    degree: int | None = None
    lhs: WeightPolynomial | None = None
    rhs: WeightPolynomial | None = None

    def __str__(self):
        if self.equal:
            return f"equal through q^{self.order}"
        return (
            f"unequal at q^{self.degree}: lhs={self.lhs} rhs={self.rhs}"
        )


def series_equal(a, b):
    """Compare two series up to their shared order; report first mismatch."""
    k = min(a.order, b.order)
    for n in range(k + 1):
        if a.coeffs[n] != b.coeffs[n]:
            return EqualityReport(False, k, n, a.coeffs[n], b.coeffs[n])
    return EqualityReport(True, k)


def expand_inverse_factor(factor, order):
    """Geometric expansion of 1/(1 - mono*q^e) up to the given order.

    Expansions divide in place instead (`TruncatedSeries.divide_by_factor`);
    this dense form is the reference the tests hold them to.
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

@dataclass
class RationalTerm:
    """One summand of a sum side.

    The numerator is stored with min degree 0; construction folds any
    negative numerator degrees into the prefactor shift, which must stay
    non-negative.
    """

    q_shift: int
    numerator: dict
    denominator: tuple

    def is_zero(self):
        return not self.numerator

    def expand(self, order):
        if not self.numerator or self.q_shift > order:
            return TruncatedSeries.zero(order)
        acc = TruncatedSeries.from_terms(order - self.q_shift, self.numerator)
        return _divide_out(acc, self.denominator).shifted(self.q_shift)

    def substitute(self, subs):
        num = {}
        for deg, coeff in self.numerator.items():
            for shift, part in coeff.substitute(subs).items():
                num = qpoly_add(num, {deg + shift: part})
        dens = []
        for mono, q_exp in self.denominator:
            exps = unpack_monomial(mono)
            coeff = 1
            shift = 0
            kept = [0, 0, 0, 0]
            for i, (e, s) in enumerate(zip(exps, subs)):
                if s is None:
                    kept[i] = e
                else:
                    coeff *= s[0] ** e
                    shift += s[1] * e
            if coeff == 0:
                continue
            if coeff != 1:
                raise SubstitutionError(
                    "substitution gives a denominator coefficient other than 0 or 1"
                )
            dens.append((pack_monomial(*kept), q_exp + shift))
        return rational_term(self.q_shift, num, tuple(dens))

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


def _divide_out(acc, factors):
    """Divide acc in place by each factor, weight-free ones first.

    Division by a weight-free factor keeps the monomials of every
    coefficient, so it costs least before the weighted factors multiply
    them.  The factors commute, so the order does not change the result.
    """
    for factor in sorted(factors, key=lambda f: f[0] != MONO_ONE):
        acc.divide_by_factor(factor)
    return acc


def over_common_denominator(terms, tail, order):
    """Rational terms plus a tail family's terms as N / D up to q^order.

    `tail` is None or has `terms_up_to(order)`.  Returns (N, D): N a series
    to order, D a Counter of factors (mono, e) holding each factor with
    e <= order as often as the term needing it most.  Larger factors are 1
    modulo q^(order+1), and terms past the order add nothing, so both are
    left out.
    """
    if tail is not None:
        terms = chain(terms, tail.terms_up_to(order))
    kept = []
    common = Counter()
    for term in terms:
        if term.numerator and term.q_shift <= order:
            own = Counter(f for f in term.denominator if f[1] <= order)
            common |= own
            kept.append((term, own))
    acc = [{} for _ in range(order + 1)]
    for term, own in kept:
        num = times_factors(
            TruncatedSeries.from_terms(order - term.q_shift, term.numerator),
            common - own,
        )
        for n, coeff in enumerate(num.coeffs, term.q_shift):
            if coeff:
                _add_into(acc[n], coeff.terms)
    numerator = TruncatedSeries(
        order, [WeightPolynomial(b, _trusted=True) for b in acc]
    )
    return numerator, common


def expand_terms(terms, tail, order):
    """Sum of rational terms, plus a tail family's terms, up to q^order.

    The terms are folded in from the deepest denominator down.  The running
    sum A/P keeps its factors P pending, and a term N/D joins it over the
    factors C they share (multisets): A is divided by P - C and N by D - C,
    and C stays pending.  Nested denominators, as in sum_m q^(m^2)/(q;q)_m,
    so cost one division per factor, and nothing is multiplied.  Factors
    with e > order are 1 modulo q^(order+1) and are left out.
    """
    if tail is not None:
        terms = chain(terms, tail.terms_up_to(order))
    kept = sorted(
        (t for t in terms if t.numerator and t.q_shift <= order),
        key=lambda t: len(t.denominator), reverse=True,
    )
    acc = TruncatedSeries.zero(order)
    pending = None   # the factors acc is still to be divided by
    for term in kept:
        own = Counter(f for f in term.denominator if f[1] <= order)
        shared = own if pending is None else pending & own
        if pending is not None:
            _divide_out(acc, (pending - shared).elements())
        num = _divide_out(
            TruncatedSeries.from_terms(order - term.q_shift, term.numerator),
            (own - shared).elements(),
        )
        coeffs = acc.coeffs
        for n, coeff in enumerate(num.coeffs, term.q_shift):
            if coeff:
                coeffs[n] = coeffs[n] + coeff
        pending = shared
    return _divide_out(acc, pending.elements()) if pending else acc


def cleared_equal(lhs, rhs):
    """Whether two (N, D) pairs from `over_common_denominator` agree.

    N_L/D_L and N_R/D_R agree up to q^order exactly when N_L*(D_R - D_L)
    and N_R*(D_L - D_R) do, the differences taken as multisets: every
    factor has constant term 1, so the shared ones are units modulo
    q^(order+1).  Both numerators are multiplied in place.
    """
    (num_l, den_l), (num_r, den_r) = lhs, rhs
    return times_factors(num_l, den_r - den_l) == times_factors(
        num_r, den_l - den_r
    )


def times_factors(series, factors):
    """Multiply a series in place by each factor of a Counter; returns it."""
    for factor in factors.elements():
        series.multiply_by_factor(factor)
    return series


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
