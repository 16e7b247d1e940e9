"""Integer partitions: restricted enumeration and staircase column transforms.

Partition classes cover congruence-restricted part sizes (with explicit
forbidden and extra-allowed sizes), the gap-2 class and its no-ones
subclass.  Enumeration is exhaustive and deterministic, in decreasing
lexicographic order of parts.
"""

import math
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import chain


class ClassMembershipError(ValueError):
    """Partition is outside the domain of the requested transform."""


class Partition:
    """Weakly decreasing tuple of positive parts; () is the empty partition.

    Partitions are cache keys, so they compare and hash by their parts and
    cannot be changed; copies and pickles are rebuilt through __init__.
    `_trusted` skips the check for the producers in this module, whose
    parts are valid by construction.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=(), _trusted=False):
        if not _trusted:
            prev = None
            for p in parts:
                if p < 1:
                    raise ValueError(f"parts must be positive: {parts}")
                if prev is not None and p > prev:
                    raise ValueError(f"parts must weakly decrease: {parts}")
                prev = p
        object.__setattr__(self, "parts", parts)   # past __setattr__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Partition.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Partition.{name}")

    def __reduce__(self):
        return Partition, (self.parts, True)

    def __eq__(self, other):
        if other.__class__ is Partition:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def multiplicity(self, s):
        return self.parts.count(s)

    def counts(self):
        return Counter(self.parts)

    def exp_str(self):
        """Exponent notation: (3,3,2,2) -> "3^2,2^2"; empty -> ""."""
        pieces = []
        for p, mult in sorted(self.counts().items(), reverse=True):
            pieces.append(f"{p}^{mult}" if mult > 1 else str(p))
        return ",".join(pieces)

    def __str__(self):
        return f"({self.exp_str()})"

    def __repr__(self):
        return f"Partition({self.parts!r})"


class PartitionClass:
    """A set of partitions cut out by part-size rules.

    kind "congruence": a part s is allowed iff (s mod modulus is in
    residues or s is extra-allowed) and s is not forbidden.
    kind "diff2": consecutive parts differ by at least 2.
    kind "diff2_star": diff2 and no part equal to 1.

    Classes are cache keys, so they compare and hash by their fields and
    cannot be changed; copies and pickles are rebuilt through __init__.
    """

    __slots__ = ("kind", "modulus", "residues", "forbidden", "extra_allowed")

    def __init__(
        self, kind, modulus=0, residues=frozenset(), forbidden=frozenset(),
        extra_allowed=frozenset(),
    ):
        if kind not in ("congruence", "diff2", "diff2_star"):
            raise ValueError(f"unknown partition class kind {kind!r}")
        if kind == "congruence":
            if modulus < 1:
                raise ValueError("congruence class needs a positive modulus")
            if not all(0 <= r < modulus for r in residues):
                raise ValueError("residues must lie in 0..modulus-1")
            if forbidden & extra_allowed:
                raise ValueError("forbidden and extra-allowed sizes overlap")
            if min(forbidden | extra_allowed, default=1) < 1:
                raise ValueError(
                    "forbidden and extra-allowed sizes must be positive, got "
                    f"{sorted(s for s in forbidden | extra_allowed if s < 1)}"
                )
        init = object.__setattr__   # past __setattr__
        init(self, "kind", kind)
        init(self, "modulus", modulus)
        init(self, "residues", residues)
        init(self, "forbidden", forbidden)
        init(self, "extra_allowed", extra_allowed)

    def _key(self):
        return (
            self.kind, self.modulus, self.residues, self.forbidden,
            self.extra_allowed,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to PartitionClass.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete PartitionClass.{name}")

    def __reduce__(self):
        return PartitionClass, self._key()

    def __eq__(self, other):
        if other.__class__ is PartitionClass:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def congruence(cls, modulus, residues, forbidden=(), extra_allowed=()):
        return cls(
            "congruence",
            modulus,
            frozenset(residues),
            frozenset(forbidden),
            frozenset(extra_allowed),
        )

    def allows_part(self, s):
        if self.kind != "congruence":
            raise ValueError("allows_part applies to congruence classes only")
        if s in self.forbidden:
            return False
        return s % self.modulus in self.residues or s in self.extra_allowed

    def contains(self, p):
        if self.kind == "congruence":
            return all(self.allows_part(s) for s in p.parts)
        if any(
            p.parts[i] - p.parts[i + 1] < 2 for i in range(len(p.parts) - 1)
        ):
            return False
        if self.kind == "diff2_star" and p.parts and p.parts[-1] < 2:
            return False
        return True

    def describe(self):
        if self.kind != "congruence":
            return self.kind
        bits = [f"parts = {sorted(self.residues)} mod {self.modulus}"]
        if self.extra_allowed:
            bits.append(f"plus {sorted(self.extra_allowed)}")
        if self.forbidden:
            bits.append(f"minus {sorted(self.forbidden)}")
        return ", ".join(bits)


DIFF2 = PartitionClass("diff2")
DIFF2_STAR = PartitionClass("diff2_star")
MOD5_14 = PartitionClass.congruence(5, (1, 4))
MOD5_23 = PartitionClass.congruence(5, (2, 3))
ALL_PARTITIONS = PartitionClass.congruence(1, (0,))

NAMED_CLASSES = {
    "diff2": DIFF2,
    "diff2_star": DIFF2_STAR,
    "mod5_14": MOD5_14,
    "mod5_23": MOD5_23,
    "all": ALL_PARTITIONS,
}


# Cache bounds, above what listing the gap-2 class of every statement that
# `refine-check --id all` sweeps, for each n <= 60, keeps: 122
# enumerate_class lists, 29,105 col and 18,353 col_star images.
# refine-check itself lists neither class.
ENUMERATE_CACHE_SIZE = 1024
COL_CACHE_SIZE = 1 << 16


def _least_largest_parts(sizes, n):
    """least[x]: the least s in `sizes` such that parts <= s from `sizes`
    sum to x, for x <= n (0 for x = 0, n + 1 where no parts do).

    `sizes` increase.  A bitset of the totals reached grows by every size
    (reach |= reach << s, doubling the shift to allow repeats), and the
    totals it gains record that size.  A size that the smaller ones already
    reach adds no total, so at most min(sizes) sizes cost a pass.
    """
    least = [n + 1] * (n + 1)
    least[0] = 0
    reach, full = 1, (1 << (n + 1)) - 1
    for s in sizes:
        if s > n:
            break
        if least[s] <= n:
            continue
        grown, shift = reach, s
        while shift <= n:
            grown |= (grown << shift) & full
            shift <<= 1
        gained = format(grown & ~reach, "b")[::-1]
        x = gained.find("1")
        while x >= 0:
            least[x] = s
            x = gained.find("1", x + 1)
        reach = grown
    return least


def _walk(n, sizes, step):
    """Partitions of n into `sizes` (decreasing), in decreasing-lex order.

    After a part sizes[i] the next part is sizes[i + step] or smaller: step
    0 allows repeated parts, step 2 over consecutive sizes keeps parts at
    least 2 apart.  One prefix is extended and shortened in place and
    copied once per partition found.  A remainder that the parts still
    allowed cannot make is abandoned at once: for step 2 one above the
    largest total they reach, for step 0 one that no sum of them makes.
    """
    count = len(sizes)
    first = []   # first[r]: index of the first size <= r
    i = count
    for r in range(n + 1):
        while i and sizes[i - 1] <= r:
            i -= 1
        first.append(i)
    most = [n] * (count + step)   # most[i]: the largest total from sizes[i] on
    if step:
        most[count:] = [0] * step
        for j in range(count - 1, -1, -1):
            most[j] = sizes[j] + most[j + step]
        least = [0] * (n + 1)
    else:
        least = _least_largest_parts(sizes[::-1], n)
    found, prefix, at = [], [], []
    rem, i = n, first[n]
    while True:
        if rem == 0:
            found.append(tuple(prefix))
        elif i < count and rem <= most[i] and least[rem] <= sizes[i]:
            s = sizes[i]
            prefix.append(s)
            at.append(i)
            rem -= s
            i += step
            if first[rem] > i:
                i = first[rem]
            continue
        if not prefix:
            return found
        rem += prefix.pop()
        i = at.pop() + 1


@lru_cache(maxsize=ENUMERATE_CACHE_SIZE)
def enumerate_class(pclass, n):
    """All partitions of n in the class, decreasing-lex by parts."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if pclass.kind == "congruence":
        sizes = [s for s in range(n, 0, -1) if pclass.allows_part(s)]
        found = _walk(n, sizes, 0)
    else:
        min_part = 2 if pclass.kind == "diff2_star" else 1
        found = _walk(n, range(n, min_part - 1, -1), 2)
    return tuple([Partition(parts, _trusted=True) for parts in found])


@lru_cache(maxsize=16)
def partition_number(n):
    """p(n), by Euler's pentagonal recurrence: p(k) is the sum over j >= 1
    of (-1)^(j+1) * (p(k - g) + p(k - g - j)), g = j(3j - 1)/2."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
        p[k] = total
    return p[n]


def partition_counts(sizes, n_max):
    """Per n <= n_max: partitions of n into parts from `sizes` (distinct).

    The unbounded coin-change recurrence c[n] += c[n - s], one pass per size.
    """
    counts = [1] + [0] * n_max
    for s in sizes:
        for n in range(s, n_max + 1):
            counts[n] += counts[n - s]
    return counts


def _totals_toward(sizes, n, top):
    """The totals t <= top such that parts from `sizes` (increasing) sum
    to both t and n - t; only these lie on the way to a partition of n.

    With a = min(sizes), a total x is such a sum iff x >= least[x % a],
    the least sum in its residue class, so each class contributes one
    arithmetic progression.  A size s below least[s % a] is added by one
    pass round each cycle r -> (r + s) % a from its least entry,
    least[r + s] = min(least[r + s], least[r] + s) (Boecker and Liptak's
    round robin); other sizes add no sum, so at most a of them cost a pass.
    """
    if not sizes:
        return [0] if n == 0 else []
    a = sizes[0]
    least = [0] + [n + 1] * (a - 1)   # n + 1: no sum up to n
    for s in sizes:
        if s >= least[s % a]:
            continue
        cycles = math.gcd(a, s)
        length = a // cycles
        for p in range(cycles):
            r = min(
                ((p + j * s) % a for j in range(length)), key=least.__getitem__
            )
            total = least[r]
            if total > n:
                continue
            for _ in range(length - 1):
                r = (r + s) % a
                total = least[r] = min(total + s, least[r])
    return sorted(chain.from_iterable(
        range(least[r], min(top, n - least[(n - r) % a]) + 1, a)
        for r in range(a)
    ))


def class_size(pclass, n, limit):
    """Partitions of n in the class, counted without listing them.

    The gap-2 classes are counted through their equal-size congruence
    classes (the Rogers-Ramanujan identities).  Counts are found for the
    totals up to a doubling bound, by the coin-change recurrence run only
    over the totals `_totals_toward` n.  Adding copies of the smallest
    allowed size a maps partitions of k into partitions of n whenever
    n - k is a multiple of a, so a count above `limit` at such a k ends
    the search early: the largest such count is returned as a lower bound.
    """
    if pclass.kind == "diff2":
        pclass = MOD5_14
    elif pclass.kind == "diff2_star":
        pclass = MOD5_23
    sizes, listed, top = [], 0, min(n, 64)
    while True:
        sizes += [s for s in range(listed + 1, top + 1) if pclass.allows_part(s)]
        listed = top
        useful = _totals_toward(sizes, n, top)
        counts = [1] + [0] * top
        for s in sizes:
            for t in useful[bisect_left(useful, s):]:
                counts[t] += counts[t - s]
        if top == n:
            return counts[n]
        a = sizes[0] if sizes else 0
        bound = max(counts[n % a::a]) if a else 0
        if bound > limit:
            return bound
        top = min(n, 2 * top)


def _transpose(parts):
    """Column heights of weakly decreasing positive parts, in one walk."""
    heights = []
    below = 0
    for i in range(len(parts), 0, -1):
        heights += [i] * (parts[i - 1] - below)
        below = parts[i - 1]
    return tuple(heights)


def conjugate(p):
    """Transpose of the Ferrers diagram."""
    return Partition(_transpose(p.parts), _trusted=True)


def _require(p, pclass, what):
    if not pclass.contains(p):
        raise ClassMembershipError(f"{p} is not in {what}")


def _columns_after_staircase(p, first_step):
    reduced = [part - first_step + 2 * i for i, part in enumerate(p.parts)]
    return Partition(_transpose([r for r in reduced if r > 0]), _trusted=True)


@lru_cache(maxsize=COL_CACHE_SIZE)
def col(p):
    """Columns left after removing the staircase (2m-1, 2m-3, ..., 1)."""
    _require(p, DIFF2, "the gap-2 class")
    return _columns_after_staircase(p, 2 * len(p.parts) - 1)


@lru_cache(maxsize=COL_CACHE_SIZE)
def col_star(p):
    """Columns left after removing the staircase (2m, 2m-2, ..., 2)."""
    _require(p, DIFF2_STAR, "the gap-2 class without ones")
    return _columns_after_staircase(p, 2 * len(p.parts))


def signature(p, watched):
    """Multiplicity of each watched part size (absent sizes count 0)."""
    counts = p.counts()
    return {s: counts.get(s, 0) for s in watched}
