"""Reference arithmetic and tallies that only the tests use.

The packed kernel of `rrweights.series` and the packed tallies of
refine-check are held to these: the dense series product, the geometric
expansion of one factor, the dense in-place kernels the packed ones
replaced, the per-n signature tallies of the gap-2 and product classes
as they were counted before packing, and the key of a rule result.
"""

from rrweights.combinatorics import (
    _LazyImage,
    _Unfixed,
    _runs,
    classify_diff_partition,
)
from rrweights.partitions import (
    Partition,
    partition_counts,
    partition_number,
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
# Per-n signature tallies, one dict {key: count} per n, as refine-check
# counted them before its tallies were packed.
# ---------------------------------------------------------------------------

def signature_counts(pclass, watched, units, n_max):
    """Per n <= n_max: signature key -> partitions of n in a congruence
    class, keyed by sum k[i] * units[i] over the multiplicities k[i] of
    watched[i]: one coin change over the allowed sizes that are not
    watched, spread from each multiplicity vector of the watched ones."""
    allowed = [s for s in range(1, n_max + 1) if pclass.allows_part(s)]
    fill = partition_counts([s for s in allowed if s not in watched], n_max)
    slots = [(s, units[watched.index(s)]) for s in allowed if s in watched]
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


def diff_signature_counts(stmt, n_max):
    """Per n <= n_max: signature key -> count over the gap-2 class, None at
    each n with members whose part count no rule, or several, claim.

    The members () and (n) are listed and classified as partitions; the
    members with 2 or more parts are explored as `diff_tally` explores
    them, one dict update per (leaf, n, key)."""
    per_n = [{} for _ in range(n_max + 1)]
    unresolved = []
    for m, top, claimed in _runs(stmt, n_max):
        if len(claimed) != 1:
            unresolved.append(
                range(1) if m == 0 else range(stmt.base(m), n_max + 1)
            )
            continue
        for j in range(m, min(top, 1) + 1):
            for n in range(1) if j == 0 else range(stmt.base(1), n_max + 1):
                sig = classify_diff_partition(stmt, Partition((n,) if j else ()))
                if sig is not None:
                    key = stmt.key(sig)
                    per_n[n][key] = per_n[n].get(key, 0) + 1
        if top >= 2:
            _count_images(stmt, max(m, 2), claimed[0], per_n, n_max, top)
    for present in unresolved:
        for n in present:
            per_n[n] = None
    return per_n


def _count_images(stmt, m, rule, per_n, n_max, top):
    """The members with m..top parts, one dict update per (leaf, n, key)."""
    kernels = {}
    for (fixed, w), sigs in _explore(stmt, m, top, rule, n_max).items():
        kernel = kernels.get(fixed)
        if kernel is None:
            kernel = kernels[fixed] = _run_kernel(stmt, m, top, fixed, n_max)
        for n, c in kernel:
            if w + n > n_max:
                break
            counts = per_n[w + n]
            for sig, count in sigs.items():
                counts[sig] = counts.get(sig, 0) + count * c


def _explore(stmt, m, top, rule, n_max):
    """(fixed sizes, w) -> {signature key: count} over the leaves of a run."""
    budget = n_max - stmt.base(m)
    image = _LazyImage(stmt.label(), m, top, rule.image_sizes)
    leaves = {}

    def explore(fixed, w):
        try:
            sig = rule.classify(image)
        except _Unfixed as read:
            s = read.size
        else:
            if sig is not None:
                sigs = leaves.setdefault((fixed, w), {})
                key = stmt.key(sig)
                sigs[key] = sigs.get(key, 0) + 1
            return
        fixed = fixed | {s}
        for k in range((budget - w) // s + 1):
            image[s] = k
            explore(fixed, w + k * s)
        del image[s]

    explore(frozenset(), 0)
    return leaves


def _run_kernel(stmt, m, top, fixed, n_max):
    """Nonzero (n, c) of sum_{j=m..top} q^base(j) prod over the free sizes
    s <= j of 1/(1-q^s), by coin change."""
    budget = n_max - stmt.base(m)
    fill = partition_counts(
        [s for s in range(1, m + 1) if s not in fixed], budget
    )
    kernel = [0] * (n_max + 1)
    for j in range(m, top + 1):
        base = stmt.base(j)
        budget = n_max - base
        if j > m:
            for i in range(j, budget + 1):
                fill[i] += fill[i - j]
        for i in range(budget + 1):
            kernel[base + i] += fill[i]
    return [(n, c) for n, c in enumerate(kernel) if c]


def packed_key(sig, shifts):
    """A rule result's tally key as refine-check packed it when every leaf
    packed its own: sum sig[i] << shifts[i] for len(shifts) ints in
    0..FIELD_MASK, a tuple key for any other result."""
    if not isinstance(sig, tuple):
        return (sig,)
    if len(sig) != len(shifts):
        return sig
    key = 0
    for v, shift in zip(sig, shifts):
        if not isinstance(v, int) or not 0 <= v <= FIELD_MASK:
            return sig
        key += v << shift
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
