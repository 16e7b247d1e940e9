"""Exact arithmetic for weight polynomials, truncated q-series and rational terms.

Coefficients live in Z[t, w, v, x].  A weight monomial is packed into a
single int as four 16-bit exponent fields (t in the highest field), so a
product of monomials is an integer addition.  A `TruncatedSeries` lists
the weight-polynomial coefficients of q^0 .. q^order.  All arithmetic is
exact.

Sums of rational terms run on one packed kernel (Kronecker substitution).
A series to order N is {weight monomial: X}: one Python int per monomial,
whose W-bit digit n, read as a balanced digit in (-2^(W-1), 2^(W-1)), is
the coefficient of q^n.  X is kept modulo 2^(W(N+1)), and zero ints are
left out.  Substituting q -> 2^W is a ring map Z[q]/(q^(N+1)) ->
Z/2^(W(N+1)), as (2^W)^(N+1) is 0 there, so sums, products and division
by a factor (1 - m*q^e), a unit of the first ring, stay exact under a
plain mask, however large a coefficient grows on the way.  Multiplying by (1 - m*q^e) is X[k] -=
X[k-m] << W*e for every monomial k, in descending monomial order when
m != 1, so that each X[k-m] is read before it changes; dividing is X[k] +=
X[k-m] << W*e in ascending order.  A weight-free factor (m = 1) acts on
each int alone: one shift-subtract to multiply, and about log2(N/e)
doublings to divide, as 1/(1-x) = (1+x)(1+x^2)(1+x^4)...

A side, a (terms, family) pair, is its rational terms plus those its
family gives (`terms_up_to`).  It goes over its own denominator D by one
fold (`_over_own_denominator`): Horner's rule, shallowest denominator first,
multiplying the running sum by the factors each term adds and a copy of a
numerator by the factors its term lacks.
Nested denominators so cost one multiplication per factor.  An expansion
is that numerator divided by D (`expand_packed`; `expand_terms` decodes
it).  An equality is decided without expanding either side
(`over_one_denominator`): each side's numerator is multiplied by the
factors of the common denominator U that its D lacks, and the dicts are
compared; verify, discover's rows and refine-check's three legs are
decided so.  Both take several sides and pack them at one width.  The
multisets D and U are {factor: count} dicts (`_plan`).  Packed monomials
add, so an exponent past its 16-bit field would carry into the next: every
packed run, cleared or expanded, first bounds its exponents
(`_check_exponents`), and this is the only module that reads the field.

The width W.  Only final digits are read back.  When every final
coefficient c has |c| < 2^(W-1), the balanced digits of X are exactly the
coefficients; two series of one width are then equal exactly when their
dicts are, and the lowest set bit of X - Y lies in the digit of their
first difference.  W is 1 plus the bit length of the largest coefficient
of a univariate majorant of the final series, computed alongside: every
numerator coefficient becomes the sum of the absolute values of its
monomials' coefficients, each multiplication by (1 - m*q^e) becomes one by
(1 + q^e), and each division by (1 - m*q^e) one by 1/(1 - q^e).  Proof:
say that a non-negative univariate A~ majorizes A when the sum over
monomials of |A[n]| is at most A~[n] for every n.  A~ + B~ majorizes A +
B.  A*(1 - m*q^e) has at q^n at most |A[n]| + |A[n-e]| summed over
monomials, so (1 + q^e)*A~ majorizes it.  A/(1 - m*q^e) is the sum of
m^i*q^(ie)*A over i >= 0, so A~/(1 - q^e) majorizes it.  By induction over
the steps, every final |c| is at most the majorant's coefficient, which is
below 2^(W-1).  Intermediate values need no bound, because the ring map
keeps every step exact.

The majorant is packed as well, at a trial width w.  Its steps only add
ints whose digits are non-negative and below 2^(w-1), so no digit carries
into the next; a step that sets the top bit of a digit is refused, and the
majorant is redone at 2w.
"""

from itertools import chain

VARIABLES = ("t", "w", "v", "x")

# Each variable's exponent is a 16-bit field of a packed monomial.
FIELD_MASK = 0xFFFF

# The decimal digits of the largest exponent a field holds.
_FIELD_DIGITS = len(str(FIELD_MASK))

MONO_ONE = 0
MONO_T = 1 << 48
MONO_W = 1 << 32
MONO_V = 1 << 16
MONO_X = 1

# Largest truncation order the entry points accept; it bounds their work.
# Weight exponents are bounded by each packed run itself (`_check_exponents`).
MAX_ORDER = 4096


class FactorError(ValueError):
    """Raised for denominator factors that are not power-series invertible."""


class SubstitutionError(ValueError):
    """Raised when a substitution leaves the supported factor shape."""


class FieldOverflowError(ValueError):
    """Raised when a weight exponent could pass its packed field."""


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


def monomial_str(mono):
    pieces = []
    for name, e in zip(VARIABLES, unpack_monomial(mono)):
        if e == 1:
            pieces.append(name)
        elif e:
            pieces.append(f"{name}^{e}")
    return "*".join(pieces) if pieces else "1"


def parse_monomial(text):
    """Parse "1", "t", "v^2" or "t*w^3" into a packed monomial; a power is
    ASCII decimal digits."""
    return pack_monomial(*parse_exponents(text))


def parse_exponents(text):
    """The exponents of t, w, v and x in a monomial string, not packed.

    A power with more digits than FIELD_MASK, leading zeros aside, is past
    every field: it raises FieldOverflowError before `int`, whose limit on
    decimal text would refuse one thousands of digits long.
    """
    s = text.strip()
    exps = [0, 0, 0, 0]
    if s in ("", "1"):
        return exps
    for piece in s.split("*"):
        name, caret, power = piece.strip().partition("^")
        if name not in VARIABLES:
            raise ValueError(f"unknown weight variable {name!r} in {text!r}")
        if caret and not (power.isascii() and power.isdigit()):
            raise ValueError(
                f"power {power!r} in {text!r} is not ASCII decimal digits"
            )
        power = power.lstrip("0")
        if len(power) > _FIELD_DIGITS:
            raise FieldOverflowError(
                f"a power of {name} has {len(power)} digits, above {FIELD_MASK}"
            )
        exps[VARIABLES.index(name)] += int(power or 0) if caret else 1
    return exps


def _mono_key(mono):
    # graded order, then t before w before v before x
    exps = unpack_monomial(mono)
    return (sum(exps), tuple(-e for e in exps))


def normalize_substitution(mapping):
    """Turn {"t": 1, "v": (1, 2)} into a 4-slot internal form.

    Each value is an int constant or a (coeff, q_exp) pair of ints meaning
    coeff * q^q_exp; anything else raises SubstitutionError naming the
    variable.  Unmentioned variables are untouched.
    """
    out = [None, None, None, None]
    for name, value in mapping.items():
        if name not in VARIABLES:
            raise SubstitutionError(f"unknown weight variable {name!r}")
        norm = (value, 0) if isinstance(value, int) else value
        if not (type(norm) is tuple and len(norm) == 2
                and all(isinstance(v, int) for v in norm)):
            raise SubstitutionError(
                f"substitution for {name!r} is {value!r}, not an int or a "
                "(coeff, q_exp) pair of ints"
            )
        if norm[1] < 0:
            raise SubstitutionError("substitution q-exponent must be >= 0")
        out[VARIABLES.index(name)] = norm
    return tuple(out)


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


def _add_into(bucket, terms):
    """bucket[m] += c for each term, dropping cancelled monomials."""
    for m, c in terms.items():
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

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def as_qpoly(self):
        return {n: c for n, c in enumerate(self.coeffs) if c}

    def __str__(self):
        return qpoly_str(self.as_qpoly())

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self})"


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


# ---------------------------------------------------------------------------
# Packed series: {weight monomial: int}, W-bit balanced digits (see above).
# ---------------------------------------------------------------------------

class PackedSeries:
    """A series to q^order packed at digit width `width`: `digits` maps each
    weight monomial to its int.  Packed series of one order and width are
    equal exactly when their dicts are."""

    __slots__ = ("order", "width", "digits")

    def __init__(self, order, width, digits):
        self.order = order
        self.width = width
        self.digits = digits

    def __eq__(self, other):
        if other.__class__ is PackedSeries:
            return (self.order, self.width, self.digits) == (
                other.order, other.width, other.digits
            )
        return NotImplemented

    def first_difference(self, other):
        """The least degree at which two packed series of one order and
        width differ, or None."""
        return first_difference(self.digits, other.digits, self.width)

    def least_degree(self, monos):
        """The least n at which one of `monos` has a nonzero coefficient, or
        None."""
        return min(
            (lowest_digit(self.digits[m], self.width)
             for m in monos if m in self.digits),
            default=None,
        )

    def coefficient(self, n):
        """The coefficient of q^n, decoded."""
        digits = (
            (mono, balanced_digit(value, n, self.width))
            for mono, value in self.digits.items()
        )
        return WeightPolynomial(
            {mono: c for mono, c in digits if c}, _trusted=True
        )

    def entries(self):
        """(n, monomial, coefficient) for each nonzero coefficient, lowest n
        first."""
        count = self.order + 1
        return sorted(
            ((n, mono, c) for mono, value in self.digits.items()
             for n, c in nonzero_digits(value, self.width, count)),
            key=lambda entry: entry[0],
        )

    def decode(self):
        coeffs = [{} for _ in range(self.order + 1)]
        for mono, value in self.digits.items():
            for n, c in nonzero_digits(value, self.width, self.order + 1):
                coeffs[n][mono] = c
        return TruncatedSeries(
            self.order, [WeightPolynomial(c, _trusted=True) for c in coeffs]
        )


def nonzero_digits(value, width, count):
    """(n, c) for each nonzero balanced digit c of a packed int of `count`
    digits, lowest n first.

    Read off its binary text: a run of digits that are all 0 bits, or all 1
    bits while a negative digit below carries 1 into them, holds only
    zeros, so each search skips a run at once.
    """
    size = width * count
    text = format(value, f"0{size}b")
    half, base = 1 << (width - 1), 1 << width
    carry = n = 0
    while True:
        i = text.rfind("0" if carry else "1", 0, size - width * n)
        if i < 0:
            return
        n = (size - 1 - i) // width
        end = size - width * n
        c = int(text[end - width:end], 2) + carry
        carry = c >= half
        yield n, c - base if carry else c
        n += 1


def balanced_digit(value, n, width):
    """Balanced digit n of a packed int: the raw digit, plus 1 when the
    digits below it are negative, that is when the bit below it is set."""
    low = width * n
    d = value >> low & ((1 << width) - 1)
    if low:
        d += value >> (low - 1) & 1
    return d - (1 << width) if d >> (width - 1) else d


def lowest_digit(value, width):
    """The index of the lowest nonzero digit of a nonzero packed int."""
    return ((value & -value).bit_length() - 1) // width


def first_difference(a, b, width):
    """The least n at which two packed dicts of one width differ, or None.

    Equal digits below n leave X - Y divisible by 2^(W*n), and the two
    digits at n differ by less than 2^W, so the lowest set bit of X - Y
    lies in digit n; X - Y as a plain int has the bits of its residue
    below 2^(W(N+1)).
    """
    if a == b:
        return None
    return min(
        lowest_digit(a.get(key, 0) - b.get(key, 0), width)
        for key in a.keys() | b.keys()
        if a.get(key, 0) != b.get(key, 0)
    )


def geometric_divide(value, exps, width, order):
    """value / prod over exps of (1 - q^e), packed to q^order at `width`:
    (1 + x)(1 + x^2)(1 + x^4)... for 1/(1 - x), up to the order.

    Each step shifts only the bits that stay below the order's size, and
    the bits that carries leave above it are masked off once at the end:
    additions carry upward only, so they never reach the bits kept.
    """
    size = width * (order + 1)
    mask = (1 << size) - 1
    for e in exps:
        if e < 1:
            raise FactorError(f"factor exponent must be >= 1, got {e}")
        shift = width * e
        while shift < size:
            value += (value & (mask >> shift)) << shift
            shift <<= 1
    return value & mask


class _Packing:
    """The packed kernel to q^order at digit width W, on {monomial: int}."""

    def __init__(self, width, order):
        self.width = width
        self.order = order
        self.size = width * (order + 1)
        self.mask = (1 << self.size) - 1

    def numerator(self, term):
        """q^shift times the term's numerator, packed from degree 0 and
        shifted once, so that no coefficient makes an int the series' size."""
        top = self.order - term.q_shift
        out = {}
        for deg, coeff in term.numerator.items():
            if deg <= top:
                for mono, c in coeff.terms.items():
                    out[mono] = out.get(mono, 0) + (c << self.width * deg)
        shift, mask = self.width * term.q_shift, self.mask
        return {m: r for m, v in out.items() if (r := (v << shift) & mask)}

    def add(self, acc, digits):
        mask = self.mask
        for mono, value in digits.items():
            value = (acc.get(mono, 0) + value) & mask
            if value:
                acc[mono] = value
            else:
                del acc[mono]

    def multiply(self, digits, factors):
        """Multiply in place by each factor (1 - m*q^e)."""
        self._apply(digits, factors, False)

    def divide(self, digits, factors):
        """Divide in place by each factor (1 - m*q^e)."""
        self._apply(digits, factors, True)

    def _apply(self, digits, factors, divide):
        """The weight-free factors first, each acting on every int alone:
        1 - 2^(W*e) is odd, a unit modulo 2^(W(N+1)), so no int becomes 0.
        Then each weighted factor."""
        free, weighted = [], []
        for mono, e in factors:
            if mono == MONO_ONE:
                free.append(e)
            else:
                weighted.append((mono, e))
        width, mask = self.width, self.mask
        if free:
            for mono, value in digits.items():
                if divide:
                    value = geometric_divide(value, free, width, self.order)
                else:
                    for e in free:
                        value = (value - (value << width * e)) & mask
                digits[mono] = value
        kernel = _divide_weighted if divide else _multiply_weighted
        for mono, e in weighted:
            kernel(digits, mono, width * e, mask)


def _multiply_weighted(digits, mono, shift, mask):
    """X[k + mono] -= X[k] << shift, descending k: each X[k] is read before
    the write to it from k - mono."""
    for k in sorted(digits, reverse=True):
        carry = (digits[k] << shift) & mask
        if carry:
            k += mono
            value = (digits.get(k, 0) - carry) & mask
            if value:
                digits[k] = value
            else:
                del digits[k]


def _divide_weighted(digits, mono, shift, mask):
    """X[k + mono] += X[k] << shift, ascending k: X[k] holds its quotient
    when it is read.  A key k + mono that is new has no other carry to
    wait for, so the chain goes on through new keys at once and stops at
    the first key already present, which a later k reads."""
    for k in sorted(digits):
        value = digits[k]
        while value:
            value = (value << shift) & mask
            k += mono
            if k in digits:
                digits[k] = (digits[k] + value) & mask
                break
            if value:
                digits[k] = value
    for k in [k for k, value in digits.items() if not value]:
        del digits[k]


class _Narrow(Exception):
    """A majorant digit reached the top bit of its trial width."""


class _Majorant(_Packing):
    """The univariate majorant of the kernel's steps, on {MONO_ONE: int}
    with non-negative digits below 2^(w-1); a step that breaks that bound
    raises `_Narrow`."""

    def __init__(self, width, order):
        super().__init__(width, order)
        self.top_bits = self.mask // ((1 << width) - 1) << (width - 1)

    def _checked(self, value):
        if value & self.top_bits:
            raise _Narrow
        return value

    def numerator(self, term):
        top = self.order - term.q_shift
        value = 0
        for deg, coeff in term.numerator.items():
            if deg <= top:
                c = sum(map(abs, coeff.terms.values()))
                if c >> (self.width - 1):
                    raise _Narrow
                value |= c << self.width * deg
        return {MONO_ONE: value << self.width * term.q_shift} if value else {}

    def add(self, acc, digits):
        for mono, value in digits.items():
            acc[mono] = self._checked(acc.get(mono, 0) + value)

    def _apply(self, digits, factors, divide):
        """(1 + q^e) for each multiplication, 1/(1 - q^e) for each division."""
        exps = [e for _, e in factors]
        for mono, value in digits.items():
            for e in exps:
                shift = self.width * e
                while shift < self.size:
                    value = self._checked(
                        value + ((value & (self.mask >> shift)) << shift)
                    )
                    if not divide:
                        break
                    shift <<= 1
            digits[mono] = value


def _digit_or(value, width, count):
    """The bitwise or of the `count` digits of a packed int: its bit length
    is that of the largest digit."""
    while count > 1:
        half = (count + 1) // 2
        value = (value & ((1 << width * half) - 1)) | (value >> width * half)
        count = half
    return value


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


def _plan(terms, family, order):
    """(plan, D): the fold's steps for the terms plus the family's terms, and
    their own denominator D, each factor (mono, e) with e <= order as often
    as the term needing it most.

    Factors with e > order are 1 modulo q^(order+1), and terms shifted past
    the order or with a zero numerator add nothing, so both are left out.
    The other terms join by Horner's rule, shallowest denominator first:
    the running sum is kept over the factors R seen so far, and a term
    N_t/D_t joins it by multiplying the sum by D_t - R and a copy of N_t by
    R - D_t (multisets), after which R is their union.  Each step is
    (term, D_t - R, R - D_t) as factor lists, and D is a {factor: count}
    dict.  Nested denominators, as in sum_m q^(m^2)/(q;q)_m, so cost one
    multiplication per factor.
    """
    if family is not None:
        terms = chain(terms, family.terms_up_to(order))
    kept = []
    for term in terms:
        if term.numerator and term.q_shift <= order:
            own = {}
            for f in term.denominator:
                if f[1] < 1:
                    raise FactorError(
                        f"factor exponent must be >= 1, got {f[1]}"
                    )
                if f[1] <= order:
                    own[f] = own.get(f, 0) + 1
            kept.append((term, own))
    kept.sort(key=lambda pair: sum(pair[1].values()))
    plan = []
    den = {}
    for term, own in kept:
        plan.append((term, _excess(own, den), _excess(den, own)))
        _union_into(den, own)
    return plan, den


def _excess(a, b):
    """The factors of the multiset a beyond those of b, as a list; both are
    {factor: count} dicts."""
    out = []
    for f, count in a.items():
        count -= b.get(f, 0)
        if count > 0:
            out += [f] * count
    return out


def _union_into(acc, counts):
    """acc becomes the multiset union of acc and counts: each factor as
    often as the more of the two holds it."""
    for f, count in counts.items():
        if count > acc.get(f, 0):
            acc[f] = count


def _over_own_denominator(plan, kernel):
    """N: the terms of a plan (`_plan`) summed over their own denominator D
    by `kernel`, N/D equal to their sum modulo q^(order+1).  No term's own
    numerator is changed: the kernel packs a copy."""
    acc = {}
    for term, grow, lacks in plan:
        kernel.multiply(acc, grow)
        num = kernel.numerator(term)
        kernel.multiply(num, lacks)
        kernel.add(acc, num)
    return acc


def _run(steps, kernel):
    """The packed dict of each step (plan, factors, divide) on `kernel`: the
    plan's fold, then a division by the factors or a multiplication by
    them."""
    for plan, factors, divide in steps:
        acc = _over_own_denominator(plan, kernel)
        (kernel.divide if divide else kernel.multiply)(acc, factors)
        yield acc


def _width(steps, order):
    """The digit width W for the steps' results: 1 plus the bit length of
    the largest coefficient of each step's majorant."""
    trial = 32
    while True:
        try:
            top = 0
            for acc in _run(steps, _Majorant(trial, order)):
                top |= _digit_or(acc.get(MONO_ONE, 0), trial, order + 1)
            return 1 + top.bit_length()
        except _Narrow:
            trial *= 2


def _packed(steps, order):
    """One PackedSeries per step, all at the width `_width` derives."""
    kernel = _Packing(_width(steps, order), order)
    return [
        PackedSeries(order, kernel.width, acc) for acc in _run(steps, kernel)
    ]


def expand_packed(sides, order):
    """Sides, each a (terms, family) pair of rational terms and a family (a
    `TailFamily`, a `ProductSide`) or None, expanded up to q^order: one
    PackedSeries per side, all at one width, each the side's terms over
    their own denominator D (`_over_own_denominator`) divided by D.

    A weight exponent that could pass its field is refused first
    (`_check_exponents`).  Each time a factor (m, e) acts, in the fold or
    the division, it carries bits to a new key shifted up by W*e, so a key
    that holds a digit to q^order has taken m at most order // e times.
    """
    plans = [_plan(terms, family, order) for terms, family in sides]
    uses = {f: order // f[1] for _, den in plans for f in den}
    _check_exponents(plans, uses, (), order, "in the expansion")
    return _packed(
        [(plan, _excess(den, {}), True) for plan, den in plans], order,
    )


def expand_terms(terms, family, order):
    """The sum of rational terms, plus a family's terms, up to q^order
    (`expand_packed`), decoded."""
    (packed,) = expand_packed(((terms, family),), order)
    return packed.decode()


def over_one_denominator(sides, order):
    """Sides, each a (terms, family) pair as `expand_packed` takes, over one
    common denominator U up to q^order.

    Returns one numerator N per side, a PackedSeries to order of one width
    for all sides, with N/U equal to its side modulo q^(order+1).  U holds
    each factor (mono, e) with e <= order as often as the side needing it
    most.  Every factor has constant term 1, so U is a unit: two sides
    agree up to q^order exactly when their numerators do, and the
    numerators first differ at the same degree, by the same polynomial, as
    the expansions.  Each side goes over its own denominator D
    (`_over_own_denominator`) and is then multiplied by U - D (multisets).
    A weight exponent that could pass its field in the numerators is
    refused first (`check_cleared_exponents`).
    """
    plans = [_plan(terms, family, order) for terms, family in sides]
    common = _check_cleared(plans, order, ())
    return _packed(
        [(plan, _excess(common, den), False) for plan, den in plans], order,
    )


def check_cleared_exponents(sides, order, monomials):
    """Refuse (FieldOverflowError) a weight exponent that could pass its
    field in the numerators from `over_one_denominator(sides, order)`, or in
    their products with one of `monomials`."""
    _check_cleared(
        [_plan(terms, family, order) for terms, family in sides], order,
        monomials,
    )


def _check_cleared(plans, order, monomials):
    """U, the union of the plans' own denominators, once the numerators
    over it pass `_check_exponents`, where each factor acts as often as U
    holds it."""
    common = {}
    for _, den in plans:
        _union_into(common, den)
    _check_exponents(
        plans, common, monomials, order, "over the common denominator",
    )
    return common


def _check_exponents(plans, uses, monomials, order, where):
    """Refuse (FieldOverflowError) a weight exponent that could pass its
    field in a packed run on the terms of `plans` (`_plan`), or in its
    products with one of `monomials`: its largest in a numerator or in
    `monomials`, plus its sum over the factors of `uses`, a {factor: count}
    dict of how often each can act.  `where` names the run."""
    monos = set(monomials)
    for plan, _ in plans:
        for term, _, _ in plan:
            for coeff in term.numerator.values():
                monos.update(coeff.terms)
    bound = [max(exps) for exps in zip((0,) * 4, *map(unpack_monomial, monos))]
    for (mono, _), count in uses.items():
        bound = [b + count * e for b, e in zip(bound, unpack_monomial(mono))]
    for name, top in zip(VARIABLES, bound):
        if top > FIELD_MASK:
            raise FieldOverflowError(
                f"the exponent of {name} could reach {top} {where} at order "
                f"{order}, above {FIELD_MASK}"
            )


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
