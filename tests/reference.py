"""Reference arithmetic and tallies that only the tests use.

The packed kernel of `rrweights.series` and the packed tallies of
refine-check are held to these: the dense series product, the geometric
expansion of one factor, the dense in-place kernels the packed ones
replaced, the signature counts at one n by listing both classes, the
per-n signature tallies of the product class as they were counted before
packing, the key of a rule result, and the case rules as the paper states
them with the explorer that counted the gap-2 class through them.
"""

from collections import namedtuple

from rrweights.combinatorics import classify_diff_partition
from rrweights.identities import RR1, RR2
from rrweights.partitions import (
    enumerate_class,
    partition_counts,
    partition_number,
    signature,
)
from rrweights.series import (
    FIELD_MASK,
    FactorError,
    TruncatedSeries,
    WeightPolynomial,
    nonzero_digits,
    pack_monomial,
    qpoly,
    unpack_monomial,
)

WP_ZERO = WeightPolynomial()
WP_ONE = WeightPolynomial.const(1)


def _add_into(bucket, terms, mono=0):
    """bucket[m + mono] += c for each term, dropping cancelled monomials."""
    for m, c in terms.items():
        m += mono
        nc = bucket.get(m, 0) + c
        if nc:
            bucket[m] = nc
        else:
            del bucket[m]


class DenseSeries(TruncatedSeries):
    """A TruncatedSeries with the dense ring operations; binary operations
    truncate to the smaller operand's order rather than treating unknown
    coefficients as zero."""

    __slots__ = ()

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

    def __add__(self, other):
        k = min(self.order, other.order)
        return DenseSeries(
            k, [self.coeffs[n] + other.coeffs[n] for n in range(k + 1)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        k = min(self.order, other.order)
        return DenseSeries(
            k, [self.coeffs[n] - other.coeffs[n] for n in range(k + 1)]
        )

    def __rsub__(self, other):
        return dense(other) - self

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
        return _as_dense(k, buckets)

    __rmul__ = __mul__

    def shifted(self, k):
        if k == 0:
            return self
        return DenseSeries(self.order + k, [WP_ZERO] * k + self.coeffs)

    def truncated(self, k):
        if k > self.order:
            raise ValueError("cannot extend a truncated series")
        if k == self.order:
            return self
        return DenseSeries(k, self.coeffs[: k + 1])

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
        return _as_dense(self.order, out)


def dense(series):
    """A series with the dense ring operations."""
    return DenseSeries(series.order, series.coeffs)


def _as_dense(order, coeffs):
    """A series over dense monomial dicts, which it takes over."""
    return DenseSeries(
        order, [WeightPolynomial(b, _trusted=True) for b in coeffs]
    )


def expand_inverse_factor(factor, order):
    """Geometric expansion of 1/(1 - mono*q^e) up to the given order."""
    mono, q_exp = factor
    if q_exp < 1:
        raise FactorError(f"factor exponent must be >= 1, got {q_exp}")
    exps = unpack_monomial(mono)
    coeffs = [WP_ZERO] * (order + 1)
    for i in range(order // q_exp + 1):
        power = pack_monomial(*(e * i for e in exps))
        coeffs[i * q_exp] = WeightPolynomial.monomial(power)
    return DenseSeries(order, coeffs)


def divide_dense(coeffs, factor):
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


def multiply_dense(coeffs, factor):
    """Multiply dense monomial dicts in place by (1 - mono*q^e), e >= 1.

    The twin of `divide_dense`: descending n, c[n] -= mono*c[n-e] reads
    c[n-e] before it changes.
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


# ---------------------------------------------------------------------------
# Signature counts at one n by listing both classes.
# ---------------------------------------------------------------------------

def count_product_refined(stmt, n):
    """Signature -> count over the product class, by direct enumeration."""
    out = {}
    for mu in enumerate_class(stmt.product_class, n):
        sig = tuple(signature(mu, stmt.watched).values())
        out[sig] = out.get(sig, 0) + 1
    return out


def count_diff_refined(stmt, n):
    """Signature -> count over the gap-2 class via the case rules."""
    out = {}
    for lam in enumerate_class(stmt.diff_class, n):
        sig = classify_diff_partition(stmt, lam)
        if sig is None:
            continue
        out[sig] = out.get(sig, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Per-n signature tallies, one dict {key: count} per n, as refine-check
# counted them before its tallies were packed.
# ---------------------------------------------------------------------------

def signature_counts(pclass, units, n_max):
    """Per n <= n_max: signature key -> partitions of n in a congruence
    class, keyed by sum k_s * units[s] over the multiplicities k_s of the
    watched sizes s, the keys of `units`: one coin change over the allowed
    sizes that are not watched, spread from each multiplicity vector of the
    watched ones."""
    allowed = [s for s in range(1, n_max + 1) if pclass.allows_part(s)]
    fill = partition_counts([s for s in allowed if s not in units], n_max)
    slots = [(s, units[s]) for s in allowed if s in units]
    per_n = [{} for _ in range(n_max + 1)]

    def spread(i, w, key):
        if i == len(slots):
            for counts, c in zip(per_n[w:], fill):
                if c:
                    counts[key] = c
            return
        s, unit = slots[i]
        for k in range((n_max - w) // s + 1):
            spread(i + 1, w + k * s, key + k * unit)

    spread(0, 0, 0)
    return per_n


def packed_key(sig, units):
    """A rule result's tally key as refine-check packed it when every leaf
    packed its own: sum sig[i] * units[i] for len(units) ints in
    0..FIELD_MASK, a tuple key for any other result."""
    if not isinstance(sig, tuple):
        return (sig,)
    if len(sig) != len(units):
        return sig
    key = 0
    for v, unit in zip(sig, units):
        if not isinstance(v, int) or not 0 <= v <= FIELD_MASK:
            return sig
        key += v * unit
    return key


def tally_per_n(tally, width, n_max):
    """A packed tally as per-n dicts {key: count}, zero counts left out."""
    per_n = [{} for _ in range(n_max + 1)]
    for key, value in tally.items():
        for n, count in nonzero_digits(value, width, n_max + 1):
            per_n[n][key] = count
    return per_n


def tally_width(n_max):
    """The width refine-check packs counts to n_max at, when the sum side
    needs no more: 1 plus the bit length of p(n_max)."""
    return 1 + partition_number(n_max).bit_length()


# ---------------------------------------------------------------------------
# The case rules as the paper states them, functions of the col image, and
# the lazy explorer that counted the gap-2 class through them before the
# rules became cells: the oracle for the cells.
# ---------------------------------------------------------------------------

FunctionRule = namedtuple("FunctionRule", "lo classify image_sizes")
FunctionRule.__new__.__defaults__ = ((),)


class UndeclaredImageReadError(ValueError):
    """A function rule reads an image multiplicity its `image_sizes` omit."""


def image_sizes(rule):
    """The sizes a case rule's cells constrain, the union of their bases;
    the multiplicities of all others are free."""
    return frozenset(s for cell in rule.cells for s in cell.bases)


def function_rules(stmt):
    """Each case rule of stmt as its cells classify, a FunctionRule."""
    return [
        FunctionRule(r.lo, r.classify, image_sizes(r))
        for r in stmt.rules
    ]


def rule_for(rules, m):
    """The rule of `rules` claiming m parts: each claims the counts from
    its own `lo` up to the next rule's."""
    return [rule for rule in rules if rule.lo <= m][-1]


def paper_rules(stmt):
    """The case rules of a shipped statement as the paper states them, in
    the order of stmt.rules."""
    if stmt.id in _MINI:
        return _generalmini_rules(_MINI[stmt.id], stmt.params["M"])
    if stmt.id in _TWO_PART:
        return _general2part_rules(_TWO_PART[stmt.id], stmt.params["M"])
    return _FIXED_RULES[stmt.id]()


_MINI = {"generalminithm": RR2, "generalmini14thm": RR1}
_TWO_PART = {"general2partcor": RR2, "general2part14cor": RR1}


def _generalmini_rules(b, M):
    P = M + 1
    first = b.base(1)

    def one_part(image):
        N = image.multiplicity(1) + first   # the one part
        return (N // P if N % P == 0 else (N - first) // P,)

    # the rule for 2..M parts claims nothing at M = 1
    middle = (
        (FunctionRule(2, lambda image: (image.multiplicity(1) // P,), (1,)),)
        if M > 1 else ()
    )
    return (
        FunctionRule(0, lambda image: (0,)),
        FunctionRule(1, one_part, (1,)),
        *middle,
        FunctionRule(P, lambda image: (image.multiplicity(P),), (P,)),
    )


def _general2part_rules(b, M):
    small, step = b.small, b.step
    h = M // step
    bumped = {(M - j) // step for j in b.bumps}

    def one_part(image):
        # N in parts of size small, and one 3 when small (2) does not divide N
        N = image.multiplicity(1) + b.base(1)   # the one part
        return (0, N // small if N % small == 0 else (N - 3) // small)

    def two_parts(image):
        j = image.multiplicity(small)
        k, r = divmod(image.multiplicity(step), h)
        return (k + (r in bumped), j)

    return (
        FunctionRule(0, lambda image: (0, 0)),
        FunctionRule(1, one_part, (1,)),
        FunctionRule(2, two_parts, (small, step)),
        FunctionRule(
            3,
            lambda image: (
                image.multiplicity(step) // h, image.multiplicity(small),
            ),
            (small, step),
        ),
        FunctionRule(
            M,
            lambda image: (image.multiplicity(M), image.multiplicity(small)),
            (small, M),
        ),
    )


def _firstbigcomb_rules():
    def one_part(image):
        ones = image.multiplicity(1)
        if ones % 2 == 0:
            return (ones // 2 + 1, 0, 0)
        return ((ones - 1) // 2, 1, 0)

    def two_parts(image):
        k = image.multiplicity(2)
        ones = image.multiplicity(1)
        r = ones % 3
        if r == 0:
            return (k, ones // 3 + 2, 0)
        if r == 2:
            return (k, (ones - 2) // 3, 0)
        return (k, (ones - 1) // 3, 1)

    def three_parts(image):
        k = image.multiplicity(2)
        j = image.multiplicity(3)
        a, r = divmod(image.multiplicity(1), 7)
        if r == 2:
            return (k, j, a + 2)
        if r == 3:
            return (k, j, a + 1)
        return (k, j, a)

    return (
        FunctionRule(0, lambda image: (0, 0, 0)),
        FunctionRule(1, one_part, (1,)),
        FunctionRule(2, two_parts, (1, 2)),
        FunctionRule(3, three_parts, (1, 2, 3)),
        FunctionRule(
            4,
            lambda image: (
                image.multiplicity(2), image.multiplicity(3),
                image.multiplicity(1) // 7,
            ),
            (1, 2, 3),
        ),
        FunctionRule(
            7,
            lambda image: (
                image.multiplicity(2), image.multiplicity(3),
                image.multiplicity(7),
            ),
            (2, 3, 7),
        ),
    )


def _bigcomb_rules():
    def two_parts(image):
        k = image.multiplicity(1)
        b = image.multiplicity(2)
        if b % 2 == 0:
            return (k, b // 2 + 1, 0)
        return (k, (b - 1) // 2, 1)

    def three_parts(image):
        k = image.multiplicity(1)
        a = image.multiplicity(3)
        b = image.multiplicity(2)
        if a % 2 == 0:
            j = b // 2 if b % 2 == 0 else (b - 1) // 2
            return (k, j, a // 2)
        if b % 2 == 0:
            return (k, b // 2, (a + 3) // 2)
        return (k, (b - 1) // 2, (a - 1) // 2)

    return (
        FunctionRule(0, lambda image: (0, 0, 0)),
        FunctionRule(
            1, lambda image: (image.multiplicity(1) + 1, 0, 0), (1,)
        ),
        FunctionRule(2, two_parts, (1, 2)),
        FunctionRule(3, three_parts, (1, 2, 3)),
        FunctionRule(
            4,
            lambda image: (
                image.multiplicity(1), image.multiplicity(4),
                image.multiplicity(3) // 2,
            ),
            (1, 3, 4),
        ),
        FunctionRule(
            6,
            lambda image: (
                image.multiplicity(1), image.multiplicity(4),
                image.multiplicity(6),
            ),
            (1, 4, 6),
        ),
    )


def _accept(cond):
    return lambda image: () if cond(image) else None


def _spec1_rules():
    return (
        FunctionRule(0, lambda image: ()),
        # the one part, k_1 + 2, is even
        FunctionRule(
            1, _accept(lambda image: image.multiplicity(1) % 2 == 0), (1,)
        ),
        FunctionRule(
            2, _accept(lambda image: image.multiplicity(1) == 1), (1,)
        ),
        FunctionRule(
            3,
            _accept(
                lambda image: image.multiplicity(3) == 0
                and image.multiplicity(1) % 7 not in (3, 4)
            ),
            (1, 3),
        ),
        FunctionRule(
            4,
            _accept(
                lambda image: image.multiplicity(4) == 0
                and image.multiplicity(3) <= 2
                and image.multiplicity(1) % 7 in (2, 3, 4)
            ),
            (1, 3, 4),
        ),
        FunctionRule(
            5,
            _accept(
                lambda image: image.multiplicity(3) == 0
                and image.multiplicity(4) <= 1
            ),
            (3, 4),
        ),
        FunctionRule(
            8,
            _accept(
                lambda image: image.multiplicity(3) == 0
                and image.multiplicity(8) == 0
            ),
            (3, 8),
        ),
    )


def _spec2_rules():
    return (
        FunctionRule(0, lambda image: None),
        FunctionRule(
            5,
            _accept(
                lambda image: image.multiplicity(1) == 0
                and image.multiplicity(4) == 0
                and image.multiplicity(2) <= 2
                and image.multiplicity(3) <= 2
            ),
            (1, 2, 3, 4),
        ),
        FunctionRule(
            9,
            _accept(
                lambda image: all(
                    image.multiplicity(s) == 0 for s in (1, 4, 6, 9)
                )
            ),
            (1, 4, 6, 9),
        ),
    )


def _spec3_rules():
    return (
        FunctionRule(0, lambda image: ()),
        # the one part, k_1 + 2, is not 3
        FunctionRule(1, _accept(lambda image: image.multiplicity(1) != 1), (1,)),
        FunctionRule(
            2, _accept(lambda image: image.multiplicity(1) % 5 in (1, 2, 4)),
            (1,),
        ),
        FunctionRule(
            3,
            _accept(lambda image: image.multiplicity(2) >= image.multiplicity(3)),
            (2, 3),
        ),
    )


_FIXED_RULES = {
    "firstbigcomb": _firstbigcomb_rules,
    "bigcomb": _bigcomb_rules,
    "spec1": _spec1_rules,
    "spec2": _spec2_rules,
    "spec3": _spec3_rules,
}


class _Unfixed(BaseException):
    """A rule read a declared image size that is not fixed yet.

    A BaseException, so that a rule's `except Exception` cannot swallow it.
    """

    def __init__(self, size):
        self.size = size


class LazyImage(dict):
    """The col images of a run m..top: size -> multiplicity fixed so far.

    All a rule sees of a member, whatever its part count: the image of ()
    is empty, and that of (n) is 1^(n - base(1)).  `multiplicity` is the
    dict lookup, and a size not fixed goes to `__missing__`.  A size the
    rule does not declare raises, whatever the size, instead of
    miscounting.  Image parts are at most top, so a declared size above top
    occurs 0 times, and one up to m not fixed yet raises `_Unfixed`; none
    lies in (m, top], where runs split.
    """

    __slots__ = ("label", "m", "top", "declared")

    multiplicity = dict.__getitem__

    def __init__(self, label, m, top, declared):
        self.label, self.m, self.top = label, m, top
        self.declared = declared

    def __missing__(self, s):
        if s not in self.declared:
            raise UndeclaredImageReadError(
                f"{self.label}: a case rule for {self.m} parts reads the "
                f"multiplicity of {s}, which image_sizes does not declare"
            )
        if s > self.top:
            return 0
        raise _Unfixed(s)


def explore(stmt, m, top, rule, n_max):
    """Fixed sizes F -> {rule result: [w, ...]} over the leaves of a run,
    w the total of a leaf on F; results None are left out.

    The rule is called with no multiplicity fixed.  When it reads one of
    its declared sizes s <= m that is not fixed, each branch node calls it
    again with s fixed at each k with k * s within the budget n_max -
    base(m).  A call that returns (a leaf) classifies every image agreeing
    with the sizes fixed so far.
    """
    budget = n_max - stmt.base(m)
    image = LazyImage(stmt.label(), m, top, rule.image_sizes)
    classify = rule.classify
    leaves = {}

    def branch(fixed, w, s):
        fixed = fixed | {s}
        results = leaves.setdefault(fixed, {})
        for k, total in enumerate(range(w, budget + 1, s)):
            image[s] = k
            try:
                result = classify(image)
            except _Unfixed as read:
                branch(fixed, total, read.size)
                continue
            if result is not None:
                results.setdefault(result, []).append(total)
        del image[s]

    try:
        result = classify(image)
    except _Unfixed as read:
        branch(frozenset(), 0, read.size)
    else:
        if result is not None:
            leaves[frozenset()] = {result: [0]}
    return leaves


def runs(stmt, n_max):
    """(first, top, rule) over base(m) <= n_max: each maximal run of part
    counts that one rule claims with none of its image sizes in
    (first, top].  The explorer explores each run's rule once."""
    m = 0
    while stmt.base(m) <= n_max:
        first, rule = m, stmt.rule_for(m)
        while (
            stmt.base(m + 1) <= n_max
            and stmt.rule_for(m + 1) is rule
            and m + 1 not in image_sizes(rule)
        ):
            m += 1
        yield first, m, rule
        m += 1


def spread(stmt, j, fixed, n_max, width):
    """q^base(j) / prod (1 - q^s) over the sizes s <= j not in `fixed`,
    packed to q^n_max by the dense division (`divide_dense`): per n, the
    members with j parts whose images are 0 on the fixed sizes."""
    base = stmt.base(j)
    coeffs = [{0: 1}] + [{} for _ in range(n_max - base)]
    for s in range(1, j + 1):
        if s not in fixed:
            divide_dense(coeffs, (0, s))
    return sum(c.get(0, 0) << width * (base + x) for x, c in enumerate(coeffs))


def count_images(stmt, m, rule, tally, n_max, width, top=None):
    """Add the members with m..top parts to a packed tally by exploring the
    rule once (`explore`): each leaf of total w adds, for each part count j
    of the run, the spread of j and its fixed sizes (`spread`) shifted to
    q^w, under the key of its result (`packed_key`)."""
    top = m if top is None else top
    mask = (1 << width * (n_max + 1)) - 1
    for fixed, results in explore(stmt, m, top, rule, n_max).items():
        if not results:
            continue
        spreads = [
            spread(stmt, j, fixed, n_max, width)
            for j in range(m, top + 1) if stmt.base(j) <= n_max
        ]
        for result, totals in results.items():
            key = packed_key(result, stmt._units)
            x = tally.get(key, 0)
            for w in totals:
                for y in spreads:
                    x += y << width * w
            tally[key] = x & mask


def explored_tally(stmt, n_max, width, rules):
    """The gap-2 leg's tally of a statement, counted by exploring `rules`,
    function rules standing for stmt.rules one for one, over its runs
    (`runs`)."""
    tally = {}
    for m, top, claimed in runs(stmt, n_max):
        (rule,) = [f for r, f in zip(stmt.rules, rules) if r is claimed]
        count_images(stmt, m, rule, tally, n_max, width, top)
    return tally


def pack_per_n(per_n, width):
    """Per-n dicts {key: count} as one packed tally at `width`."""
    tally = {}
    for n, counts in enumerate(per_n):
        for key, count in counts.items():
            tally[key] = tally.get(key, 0) + (count << width * n)
    return tally
