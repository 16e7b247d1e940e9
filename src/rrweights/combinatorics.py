"""Brute-force refinement checks and reproduction of the bijection tables.

Each refinement statement pairs a congruence-restricted product class
(with watched part sizes) against a gap-2 class carrying hand-coded case
rules keyed on the number of parts.  Three independent counts must agree
signature by signature: the product class counted by a coin-change
recurrence over its part sizes, the gap-2 class, and coefficient
extraction from the linked identity's sum side.  The gap-2 class is
counted without listing it: each run of part counts that one rule claims
is explored once, branching only on the `col`-image multiplicities the
rule reads, and each outcome is spread over n by one kernel per run, a
slice of the Rogers-Ramanujan sum over q^base(m)/(q;q)_m.  Tables, and
the tests' oracle for the counts, list both classes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import accumulate

from .identities import expand_sum_side, get_entry, instance_label
from .partitions import (
    DIFF2,
    DIFF2_STAR,
    MOD5_14,
    MOD5_23,
    Partition,
    PartitionClass,
    col,
    col_star,
    enumerate_class,
    partition_counts,
    signature,
    signature_counts,
)
from .series import FIELD_MASK, VARIABLE_SHIFTS


class ClassificationGapError(ValueError):
    """Some partition is claimed by no case rule."""


class AmbiguousClassificationError(ValueError):
    """Some partition is claimed by more than one case rule."""


class UndeclaredImageReadError(ValueError):
    """A case rule for two or more parts reads what `image_sizes` omits."""


class ExtractionError(ValueError):
    """A series coefficient carries an unexpected weight variable."""


class TableError(ValueError):
    """Table rows cannot be paired (unequal class sizes)."""


class UnknownStatementError(KeyError):
    """No refinement statement with the requested id."""


@dataclass(frozen=True)
class CaseRule:
    """Claims partitions with lo <= #parts <= hi (hi None means no bound).

    `classify(lam, image)` returns the signature tuple, or None when the
    partition is excluded from the refined set (filter-style statements).
    """

    lo: int
    hi: int | None
    classify: callable

    def claims(self, m):
        return self.lo <= m and (self.hi is None or m <= self.hi)


@dataclass
class RefinementStatement:
    id: str
    params: dict
    product_class: PartitionClass
    watched: tuple
    diff_class: PartitionClass
    rules: tuple
    linked_id: str
    linked_param: int | None = None
    linked_subs: dict | None = None
    series_vars: tuple = ()   # weight-variable names aligned with `watched`
    n_min: int = 0
    # the col-image part sizes whose multiplicities the rules read for m >= 2
    image_sizes: tuple = ()

    def __post_init__(self):
        self._rule_by_parts = {}
        star = self.diff_class.kind == "diff2_star"
        self._image = col_star if star else col
        self._staircase_shift = 1 if star else 0

    def base(self, m):
        """The least total with m parts: m^2 (gap-2), m(m+1) (no ones)."""
        return m * (m + self._staircase_shift)

    def label(self):
        return instance_label(self.id, self.params)


def count_product_refined(stmt, n):
    """Signature -> count over the product class, by direct enumeration."""
    out = {}
    for mu in enumerate_class(stmt.product_class, n):
        sig = _watched_signature(stmt, mu)
        out[sig] = out.get(sig, 0) + 1
    return out


def _watched_signature(stmt, mu):
    return tuple(signature(mu, stmt.watched).values())


def _claimants(stmt, m):
    return [rule for rule in stmt.rules if rule.claims(m)]


def _claiming_rule(stmt, lam):
    """Resolve the one case rule claiming lam's part count, and remember it."""
    m = len(lam.parts)
    claimed = _claimants(stmt, m)
    if not claimed:
        raise ClassificationGapError(
            f"{stmt.label()}: no case rule claims {lam} with {m} parts"
        )
    if len(claimed) > 1:
        raise AmbiguousClassificationError(
            f"{stmt.label()}: {len(claimed)} case rules claim {lam}"
        )
    stmt._rule_by_parts[m] = claimed[0]
    return claimed[0]


def classify_diff_partition(stmt, lam):
    """Apply the unique claiming case rule; None means excluded."""
    rule = stmt._rule_by_parts.get(len(lam.parts)) or _claiming_rule(stmt, lam)
    return rule.classify(lam, stmt._image(lam))


def count_diff_refined(stmt, n):
    """Signature -> count over the gap-2 class via the case rules."""
    out = {}
    for lam in enumerate_class(stmt.diff_class, n):
        sig = classify_diff_partition(stmt, lam)
        if sig is None:
            continue
        out[sig] = out.get(sig, 0) + 1
    return out


class _Unfixed(BaseException):
    """A case rule read a declared image size that is not fixed yet.

    A BaseException, so that a rule's `except Exception` cannot swallow it.
    """

    def __init__(self, size):
        self.size = size


class _Split(BaseException):
    """A case rule for a run read an undeclared size inside it: split there."""

    def __init__(self, size):
        self.size = size


class _LazyImage:
    """The col images of a run m..top, known by the multiplicities fixed.

    Image parts are at most top, so larger sizes occur 0 times.  Reading a
    declared size not fixed yet raises `_Unfixed`; reading an undeclared
    size up to m raises instead of miscounting, as it would for m parts.
    An undeclared size s with m < s <= top occurs 0 times below s parts and
    is an error from s parts on, so reading it raises `_Split`.
    """

    __slots__ = ("label", "m", "top", "declared", "fixed")

    def __init__(self, label, m, top, declared):
        self.label, self.m, self.top = label, m, top
        self.declared, self.fixed = declared, {}

    def multiplicity(self, s):
        k = self.fixed.get(s)
        if k is not None:
            return k
        if s > self.top:
            return 0
        if s in self.declared:
            raise _Unfixed(s)
        if s > self.m:
            raise _Split(s)
        raise UndeclaredImageReadError(
            f"{self.label}: a case rule for {self.m} parts reads the "
            f"multiplicity of {s}, which image_sizes does not declare"
        )


class _Unlisted:
    """Stands for lam when the class is not listed: every access raises."""

    __slots__ = ("label", "m")

    def __init__(self, label, m):
        self.label, self.m = label, m

    def _refuse(self, what):
        raise UndeclaredImageReadError(
            f"{self.label}: a case rule for {self.m} parts reads {what}; "
            "rules for 2 or more parts may read only image multiplicities"
        )

    def __getattr__(self, name):
        self._refuse(f"lam.{name}")

    def __len__(self):
        self._refuse("len(lam)")


def _count_images(stmt, m, rule, per_n, n_max, top=None):
    """Add the members with m..top parts (m >= 2) to per_n, branching on reads.

    One rule claims the run, and each j in it has the declared sizes <= m,
    so one exploration (`_explore`) serves every j.  A leaf's images with j
    parts, total w on the sizes fixed and any total on the other sizes
    <= j, are spread over n at once by `_run_kernel`.  A read of an
    undeclared size s inside the run redoes it as m..s-1 and s..top.
    """
    runs = [(m, m if top is None else top)]
    while runs:
        first, top = runs.pop()
        try:
            leaves = _explore(stmt, first, top, rule, n_max)
        except _Split as split:
            runs += [(split.size, top), (first, split.size - 1)]
            continue
        kernels = {}   # fixed sizes -> nonzero (n, coefficient of K_F)
        for (fixed, w), sigs in leaves.items():
            kernel = kernels.get(fixed)
            if kernel is None:
                kernel = kernels[fixed] = _run_kernel(
                    stmt, first, top, fixed, n_max
                )
            for n, c in kernel:
                if w + n > n_max:
                    break
                counts = per_n[w + n]
                for sig, count in sigs.items():
                    counts[sig] = counts.get(sig, 0) + count * c


def _explore(stmt, m, top, rule, n_max):
    """(fixed sizes, w) -> {signature: count} over the leaves of a run.

    The rule is called with no multiplicity fixed.  When it reads a
    declared size s <= m that is not fixed, it is called again with s
    fixed at each k with k * s within the budget n_max - base(m).  A call
    that returns (a leaf) classifies every image agreeing with the sizes
    fixed so far, total w on them.
    """
    budget = n_max - stmt.base(m)
    label = stmt.label()
    lam = _Unlisted(label, m)
    image = _LazyImage(
        label, m, top, {s for s in stmt.image_sizes if 1 <= s <= m}
    )
    leaves = {}

    def explore(w):
        try:
            sig = rule.classify(lam, image)
        except _Unfixed as read:
            s = read.size
        else:
            if sig is not None:
                sigs = leaves.setdefault((frozenset(image.fixed), w), {})
                sigs[sig] = sigs.get(sig, 0) + 1
            return
        for k in range((budget - w) // s + 1):
            image.fixed[s] = k
            explore(w + k * s)
        del image.fixed[s]

    explore(0)
    return leaves


def _run_kernel(stmt, m, top, fixed, n_max):
    """Nonzero (n, c) for n <= n_max in the run's generating function

        K_F(q) = sum_{j=m..top} q^base(j) prod_{s <= j, s not in F} 1/(1-q^s),

    the terms of the Rogers-Ramanujan sum over q^base(j)/(q;q)_j with the
    fixed sizes F taken out.  One coin change over the free sizes <= m,
    then one pass per j in (m, top] (never fixed: F holds sizes <= m); the
    budget n_max - base(j) shrinks as j grows, so each pass stops there.
    """
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


def _runs(stmt, n_max):
    """(first, top, claiming rules) for each part count m <= 1, and each
    maximal run of part counts m >= 2 with the same claiming rules and the
    same declared image sizes <= m, over the m with base(m) <= n_max."""
    m = 0
    while stmt.base(m) <= n_max:
        first, claimed = m, _claimants(stmt, m)
        while (
            m >= 2
            and stmt.base(m + 1) <= n_max
            and m + 1 not in stmt.image_sizes
            and _claimants(stmt, m + 1) == claimed
        ):
            m += 1
        yield first, m, claimed
        m += 1


def rule_calls(stmt, n_max):
    """An upper bound on the classifications `diff_signature_counts` makes.

    One per member with 0 or 1 parts, and for each run first..top one per
    multiplicity vector of the declared sizes <= first with total <=
    n_max - base(first), counted by a coin change.  The budget shrinks
    from run to run, so one pass serves every run with the same declared
    sizes.  A rule call that returns (a leaf) classifies one assignment of
    the sizes that the rule read, which covers one vector or more, so the
    leaves number at most this, unless a read of an undeclared size splits
    a run.  Calls cut short by a read of a size not yet fixed are not
    counted.
    """
    calls = 1 + max(0, n_max - stmt.base(1) + 1)
    vectors_within = {}   # declared sizes -> vectors with total <= budget
    for first, _, _ in _runs(stmt, n_max):
        if first < 2:
            continue
        budget = n_max - stmt.base(first)
        declared = tuple(
            sorted({s for s in stmt.image_sizes if 1 <= s <= first})
        )
        if declared not in vectors_within:
            vectors_within[declared] = list(
                accumulate(partition_counts(declared, budget))
            )
        calls += vectors_within[declared][budget]
    return calls


def diff_signature_counts(stmt, n_max):
    """Per n <= n_max: signature -> count over the gap-2 class, unlisted.

    `col` (`col_star`) maps the members of n with m parts one to one onto
    the partitions of n - base(m) into parts <= m.  For m >= 2 each run of
    part counts claimed by one rule is explored once (`_count_images`);
    the members () and (n) are classified as partitions.  An entry is None
    at each n with members whose part count no rule, or several rules,
    claim: `count_diff_refined` lists that n and raises the error.
    """
    per_n = [{} for _ in range(n_max + 1)]
    unresolved = []
    for m, top, claimed in _runs(stmt, n_max):
        present = range(1) if m == 0 else range(stmt.base(m), n_max + 1)
        if len(claimed) != 1:
            unresolved.append(present)
        elif m >= 2:
            _count_images(stmt, m, claimed[0], per_n, n_max, top)
        else:
            for n in present:
                sig = classify_diff_partition(stmt, Partition((n,) if m else ()))
                if sig is not None:
                    per_n[n][sig] = per_n[n].get(sig, 0) + 1
    for present in unresolved:
        for n in present:
            per_n[n] = None
    return per_n


def series_counts(stmt, order):
    """Per-n signature counts extracted from the linked sum side.

    A signature holds the exponent fields of `series_vars`, read from each
    packed monomial once; a monomial with any other exponent set raises.
    """
    spec = get_entry(stmt.linked_id).instantiate(stmt.linked_param)
    if stmt.linked_subs:
        spec = spec.substituted(stmt.linked_subs)
    series = expand_sum_side(spec, order)
    shifts = tuple(VARIABLE_SHIFTS[v] for v in stmt.series_vars)
    outside = sum(
        FIELD_MASK << shift
        for shift in VARIABLE_SHIFTS.values() if shift not in shifts
    )
    sigs = {}   # monomial -> signature
    per_n = []
    for n in range(order + 1):
        counts = {}
        for mono, c in series.coeffs[n].terms.items():
            sig = sigs.get(mono)
            if sig is None:
                if mono & outside:
                    raise ExtractionError(
                        f"{stmt.label()}: unexpected weight variable in "
                        f"coefficient of q^{n}"
                    )
                sig = sigs[mono] = tuple(
                    mono >> shift & FIELD_MASK for shift in shifts
                )
            counts[sig] = counts.get(sig, 0) + c
        per_n.append(counts)
    return per_n


@dataclass
class RefinementReport:
    id: str
    params: dict
    n_min: int
    n_max: int
    ok: bool
    failure: str | None = None

    def text_line(self):
        label = instance_label(self.id, self.params)
        if self.ok:
            return (
                f"PASS {label} n={self.n_min}..{self.n_max} triple agreement"
            )
        return f"FAIL {label}: {self.failure}"

    def to_json(self):
        out = {
            "id": self.id,
            "params": dict(sorted(self.params.items())),
            "n_min": self.n_min,
            "n_max": self.n_max,
            "status": "pass" if self.ok else "fail",
        }
        if self.failure:
            out["failure"] = self.failure
        return out


def _first_difference(a, b):
    for sig in sorted(set(a) | set(b)):
        if a.get(sig, 0) != b.get(sig, 0):
            return sig, a.get(sig, 0), b.get(sig, 0)
    return None


def check_refinement(stmt, n_max):
    """Triple agreement for n_min..n_max; stops at the first mismatch.

    An empty range raises ValueError rather than pass having checked nothing.
    """
    if n_max < stmt.n_min:
        raise ValueError(f"{stmt.id} needs n_max >= {stmt.n_min}, got {n_max}")
    series = series_counts(stmt, n_max)
    products = signature_counts(stmt.product_class, stmt.watched, n_max)
    diffs = diff_signature_counts(stmt, n_max)
    for n in range(stmt.n_min, n_max + 1):
        product = products[n]
        diff = diffs[n]
        if diff is None:   # a part count without one claiming rule: raises
            diff = count_diff_refined(stmt, n)
        if product != diff:
            sig, a, b = _first_difference(product, diff)
            return RefinementReport(
                stmt.id, stmt.params, stmt.n_min, n_max, False,
                f"n={n} signature {sig}: product {a} vs case rules {b}",
            )
        if diff != series[n]:
            sig, a, b = _first_difference(diff, series[n])
            return RefinementReport(
                stmt.id, stmt.params, stmt.n_min, n_max, False,
                f"n={n} signature {sig}: case rules {a} vs series {b}",
            )
    return RefinementReport(stmt.id, stmt.params, stmt.n_min, n_max, True)


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------

@dataclass
class TableRow:
    mu: Partition
    lam: Partition
    image: Partition
    signature: tuple


def build_table(stmt, n, restrict=None):
    """Pair product-side and diff-side partitions sharing a signature.

    Within a signature class both sides are taken in decreasing-lex order
    and paired positionally (classes in the reproduced tables are usually
    singletons, where this is plain signature pairing).  Rows come out
    sorted by decreasing-lex mu.
    """
    by_sig_mu = {}
    for mu in enumerate_class(stmt.product_class, n):
        sig = _watched_signature(stmt, mu)
        by_sig_mu.setdefault(sig, []).append(mu)
    by_sig_lam = {}
    for lam in enumerate_class(stmt.diff_class, n):
        sig = classify_diff_partition(stmt, lam)
        if sig is None:
            continue
        by_sig_lam.setdefault(sig, []).append((lam, stmt._image(lam)))
    if restrict is not None:
        restrict = tuple(restrict)
        by_sig_mu = {restrict: by_sig_mu.get(restrict, [])}
        by_sig_lam = {restrict: by_sig_lam.get(restrict, [])}
    rows = []
    for sig in sorted(set(by_sig_mu) | set(by_sig_lam)):
        mus = by_sig_mu.get(sig, [])
        lams = by_sig_lam.get(sig, [])
        if len(mus) != len(lams):
            raise TableError(
                f"{stmt.label()} n={n}: signature {sig} has {len(mus)} "
                f"product partitions vs {len(lams)} difference partitions"
            )
        mus = sorted(mus, key=lambda p: p.parts, reverse=True)
        lams = sorted(lams, key=lambda pair: pair[0].parts, reverse=True)
        for mu, (lam, image) in zip(mus, lams):
            rows.append(TableRow(mu, lam, image, sig))
    rows.sort(key=lambda r: r.mu.parts, reverse=True)
    return rows


def signature_str(sig):
    return "(" + ",".join(str(v) for v in sig) + ")"


def table_text(rows):
    header = ("mu", "lambda", "col", "signature")
    cells = [header] + [
        (str(r.mu), str(r.lam), str(r.image), signature_str(r.signature))
        for r in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    lines = [
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]
    return "\n".join(lines) + "\n"


def table_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(["mu", "lambda", "col", "signature"])
    for r in rows:
        writer.writerow(
            [r.mu.exp_str(), r.lam.exp_str(), r.image.exp_str(),
             signature_str(r.signature)]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# The statements.
# ---------------------------------------------------------------------------

def _ones(image):
    return image.multiplicity(1)


def _stmt_generalminithm(M):
    P = M + 1

    def one_part(lam, image):
        N = lam.parts[0]
        r = N % P
        if r == 1:
            return (N // P - 1,)
        return (N // P,)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0,)),
        CaseRule(1, 1, one_part),
        CaseRule(2, M, lambda lam, image: (_ones(image) // P,)),
        CaseRule(P, None, lambda lam, image: (image.multiplicity(P),)),
    )
    return RefinementStatement(
        "generalminithm", {"M": M}, MOD5_23, (P,), DIFF2_STAR, rules,
        "partM", M, None, ("t",), image_sizes=(1, P),
    )


def _stmt_generalmini14thm(M):
    P = M + 1
    rules = (
        CaseRule(0, 0, lambda lam, image: (0,)),
        CaseRule(1, 1, lambda lam, image: (lam.parts[0] // P,)),
        CaseRule(2, M, lambda lam, image: (_ones(image) // P,)),
        CaseRule(P, None, lambda lam, image: (image.multiplicity(P),)),
    )
    return RefinementStatement(
        "generalmini14thm", {"M": M}, MOD5_14, (P,), DIFF2, rules,
        "partMeq", M, None, ("t",), image_sizes=(1, P),
    )


def _stmt_general2partcor(M):
    def one_part(lam, image):
        N = lam.parts[0]
        if N % 2 == 0:
            return (0, N // 2)
        return (0, (N - 3) // 2)

    def two_parts(lam, image):
        j = image.multiplicity(2)
        ones = _ones(image)
        k, r = divmod(ones, M)
        if r in (M - 3, M - 6):
            k += 1
        return (k, j)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0, 0)),
        CaseRule(1, 1, one_part),
        CaseRule(2, 2, two_parts),
        CaseRule(
            3, M - 1,
            lambda lam, image: (_ones(image) // M, image.multiplicity(2)),
        ),
        CaseRule(
            M, None,
            lambda lam, image: (
                image.multiplicity(M), image.multiplicity(2)
            ),
        ),
    )
    return RefinementStatement(
        "general2partcor", {"M": M}, MOD5_23, (M, 2), DIFF2_STAR, rules,
        "twopartM", M, None, ("w", "t"), image_sizes=(1, 2, M),
    )


def _stmt_general2part14cor(M):
    h = M // 2

    def two_parts(lam, image):
        j = _ones(image)
        twos = image.multiplicity(2)
        k, r = divmod(twos, h)
        if r == h - 2:
            k += 1
        return (k, j)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0, 0)),
        CaseRule(1, 1, lambda lam, image: (0, lam.parts[0])),
        CaseRule(2, 2, two_parts),
        CaseRule(
            3, M - 1,
            lambda lam, image: (image.multiplicity(2) // h, _ones(image)),
        ),
        CaseRule(
            M, None,
            lambda lam, image: (image.multiplicity(M), _ones(image)),
        ),
    )
    return RefinementStatement(
        "general2part14cor", {"M": M}, MOD5_14, (M, 1), DIFF2, rules,
        "twopart14", M, None, ("w", "t"), image_sizes=(1, 2, M),
    )


def _stmt_firstbigcomb():
    def one_part(lam, image):
        ones = _ones(image)
        if ones % 2 == 0:
            return (ones // 2 + 1, 0, 0)
        return ((ones - 1) // 2, 1, 0)

    def two_parts(lam, image):
        k = image.multiplicity(2)
        ones = _ones(image)
        r = ones % 3
        if r == 0:
            return (k, ones // 3 + 2, 0)
        if r == 2:
            return (k, (ones - 2) // 3, 0)
        return (k, (ones - 1) // 3, 1)

    def three_parts(lam, image):
        k = image.multiplicity(2)
        j = image.multiplicity(3)
        a, r = divmod(_ones(image), 7)
        if r == 2:
            return (k, j, a + 2)
        if r == 3:
            return (k, j, a + 1)
        return (k, j, a)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0, 0, 0)),
        CaseRule(1, 1, one_part),
        CaseRule(2, 2, two_parts),
        CaseRule(3, 3, three_parts),
        CaseRule(
            4, 6,
            lambda lam, image: (
                image.multiplicity(2), image.multiplicity(3),
                _ones(image) // 7,
            ),
        ),
        CaseRule(
            7, None,
            lambda lam, image: (
                image.multiplicity(2), image.multiplicity(3),
                image.multiplicity(7),
            ),
        ),
    )
    return RefinementStatement(
        "firstbigcomb", {}, MOD5_23, (2, 3, 7), DIFF2_STAR, rules,
        "twvthm", None, None, ("t", "w", "v"), image_sizes=(1, 2, 3, 7),
    )


def _stmt_bigcomb():
    def two_parts(lam, image):
        k = _ones(image)
        b = image.multiplicity(2)
        if b % 2 == 0:
            return (k, b // 2 + 1, 0)
        return (k, (b - 1) // 2, 1)

    def three_parts(lam, image):
        k = _ones(image)
        a = image.multiplicity(3)
        b = image.multiplicity(2)
        if a % 2 == 0:
            j = b // 2 if b % 2 == 0 else (b - 1) // 2
            return (k, j, a // 2)
        if b % 2 == 0:
            return (k, b // 2, (a + 3) // 2)
        return (k, (b - 1) // 2, (a - 1) // 2)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0, 0, 0)),
        CaseRule(1, 1, lambda lam, image: (lam.parts[0], 0, 0)),
        CaseRule(2, 2, two_parts),
        CaseRule(3, 3, three_parts),
        CaseRule(
            4, 5,
            lambda lam, image: (
                _ones(image), image.multiplicity(4),
                image.multiplicity(3) // 2,
            ),
        ),
        CaseRule(
            6, None,
            lambda lam, image: (
                _ones(image), image.multiplicity(4), image.multiplicity(6),
            ),
        ),
    )
    return RefinementStatement(
        "bigcomb", {}, MOD5_14, (1, 4, 6), DIFF2, rules,
        "twvx14thm", None, {"x": 1}, ("t", "w", "v"),
        image_sizes=(1, 2, 3, 4, 6),
    )


def _stmt_spec1():
    def accept(cond):
        return lambda lam, image, _c=cond: () if _c(lam, image) else None

    rules = (
        CaseRule(0, 0, lambda lam, image: ()),
        CaseRule(1, 1, accept(lambda lam, image: lam.parts[0] % 2 == 0)),
        CaseRule(2, 2, accept(lambda lam, image: _ones(image) == 1)),
        CaseRule(
            3, 3,
            accept(
                lambda lam, image: image.multiplicity(3) == 0
                and _ones(image) % 7 not in (3, 4)
            ),
        ),
        CaseRule(
            4, 4,
            accept(
                lambda lam, image: image.multiplicity(4) == 0
                and image.multiplicity(3) <= 2
                and _ones(image) % 7 in (2, 3, 4)
            ),
        ),
        CaseRule(
            5, 7,
            accept(
                lambda lam, image: image.multiplicity(3) == 0
                and image.multiplicity(4) <= 1
            ),
        ),
        CaseRule(
            8, None,
            accept(
                lambda lam, image: image.multiplicity(3) == 0
                and image.multiplicity(8) == 0
            ),
        ),
    )
    return RefinementStatement(
        "spec1", {},
        PartitionClass.congruence(5, (2, 3), forbidden=(3, 8)),
        (), DIFF2_STAR, rules, "spec1", None, None, (),
        image_sizes=(1, 3, 4, 8),
    )


def _stmt_spec2():
    rules = (
        CaseRule(0, 4, lambda lam, image: None),
        CaseRule(
            5, 8,
            lambda lam, image: ()
            if _ones(image) == 0
            and image.multiplicity(4) == 0
            and image.multiplicity(2) <= 2
            and image.multiplicity(3) <= 2
            else None,
        ),
        CaseRule(
            9, None,
            lambda lam, image: ()
            if all(image.multiplicity(s) == 0 for s in (1, 4, 6, 9))
            else None,
        ),
    )
    return RefinementStatement(
        "spec2", {},
        PartitionClass.congruence(5, (1, 4), forbidden=(1, 4, 6, 9)),
        (), DIFF2, rules, "spec2", None, None, (), n_min=27,
        image_sizes=(1, 2, 3, 4, 6, 9),
    )


def _stmt_spec3():
    rules = (
        CaseRule(0, 0, lambda lam, image: ()),
        CaseRule(
            1, 1, lambda lam, image: () if lam.parts[0] != 3 else None
        ),
        CaseRule(
            2, 2, lambda lam, image: () if _ones(image) % 5 in (1, 2, 4) else None
        ),
        CaseRule(
            3, None,
            lambda lam, image: ()
            if image.multiplicity(2) >= image.multiplicity(3)
            else None,
        ),
    )
    return RefinementStatement(
        "spec3", {},
        PartitionClass.congruence(5, (2, 3), forbidden=(3,), extra_allowed=(5,)),
        (), DIFF2_STAR, rules, "spec3_firsttw", None, None, (),
        image_sizes=(1, 2, 3),
    )


@dataclass
class StatementEntry:
    """A statement slot: fixed, or a family over the same parameter M."""

    id: str
    build: callable
    param_style: str | None = None
    admissible: callable = None
    param_hint: str = ""

    @property
    def parameterized(self):
        return self.param_style is not None

    def instantiate(self, M=None):
        if not self.parameterized:
            if M is not None:
                raise ValueError(f"{self.id} takes no parameter")
            return self.build()
        if M is None or not (M >= 1 and self.admissible(M)):
            raise ValueError(
                f"statement {self.id} needs admissible M ({self.param_hint}), got {M}"
            )
        return self.build(M)

    def sweep(self, bound=12):
        if not self.parameterized:
            return [None]
        top = bound - 1 if self.param_style == "M+1" else bound
        return [M for M in range(1, top + 1) if self.admissible(M)]


def statements():
    return [
        StatementEntry(
            "generalminithm", _stmt_generalminithm, "M+1",
            lambda M: (M + 1) % 5 in (2, 3), "M+1 = 2 or 3 mod 5",
        ),
        StatementEntry(
            "generalmini14thm", _stmt_generalmini14thm, "M+1",
            lambda M: (M + 1) % 5 in (1, 4) and M >= 1, "M+1 >= 2, = 1 or 4 mod 5",
        ),
        StatementEntry(
            "general2partcor", _stmt_general2partcor, "M",
            lambda M: M >= 7 and M % 5 in (2, 3), "M >= 7, = 2 or 3 mod 5",
        ),
        StatementEntry(
            "general2part14cor", _stmt_general2part14cor, "M",
            lambda M: M >= 4 and M % 2 == 0 and M % 5 in (1, 4),
            "even M >= 4, = 1 or 4 mod 5",
        ),
        StatementEntry("firstbigcomb", _stmt_firstbigcomb),
        StatementEntry("bigcomb", _stmt_bigcomb),
        StatementEntry("spec1", _stmt_spec1),
        StatementEntry("spec2", _stmt_spec2),
        StatementEntry("spec3", _stmt_spec3),
    ]


def get_statement(statement_id):
    wanted = statement_id.lower()
    for entry in statements():
        if entry.id.lower() == wanted:
            return entry
    raise UnknownStatementError(statement_id)
