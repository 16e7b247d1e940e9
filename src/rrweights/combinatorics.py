"""Brute-force refinement checks and reproduction of the bijection tables.

Each refinement statement pairs a congruence-restricted product class
(with watched part sizes) against a gap-2 class carrying hand-coded case
rules keyed on the number of parts.  Three independent counts must agree
signature by signature: the product class counted by a coin-change
recurrence over its part sizes, the gap-2 class, and the coefficients of
the linked identity's sum side.  All three are packed as the `series`
kernel packs a series: {key: X}, digit n of X the count at n, with the
key of a signature the weight monomial that counts it in the sum side, so
the packed sum side is its tally as it is.  They agree when the dicts are
equal; only a mismatch is decoded, and failures print signatures as
tuples.  The gap-2 class is counted without listing it: each run of part
counts that one rule claims is explored once, branching only on the
`col`-image multiplicities the rule declares and reads, and each outcome
is spread over n by one shift of a packed kernel per leaf total, the
kernel a slice of the Rogers-Ramanujan sum over q^base(m)/(q;q)_m.
Tables, and the tests' oracle for the counts, list both classes.
"""

import io
from functools import partial
from itertools import accumulate

from .identities import (
    RR1,
    RR2,
    Family,
    get_entry,
    instance_label,
    lookup,
    replaced,
)
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
    partition_number,
    signature,
    signature_tally,
)
from .series import (
    FIELD_MASK,
    VARIABLE_SHIFTS,
    balanced_digit,
    expand_packed,
    first_difference,
    geometric_divide,
    lowest_digit,
)


class ClassificationGapError(ValueError):
    """Some partition is claimed by no case rule."""


class AmbiguousClassificationError(ValueError):
    """Some partition is claimed by more than one case rule."""


class UndeclaredImageReadError(ValueError):
    """A case rule for two or more parts reads what its `image_sizes` omit."""


class ExtractionError(ValueError):
    """A series coefficient carries an unexpected weight variable."""


class TableError(ValueError):
    """Table rows cannot be paired (unequal class sizes)."""


class UnknownStatementError(KeyError):
    """No refinement statement with the requested id."""


class CaseRule:
    """Claims partitions with lo <= #parts <= hi (hi None means no bound).

    `classify(lam, image)` returns the signature tuple, or None when the
    partition is excluded from the refined set (filter-style statements).
    `image_sizes` are the col-image part sizes whose multiplicities it
    reads for two or more parts; it reads no others.  Rules compare by
    their fields (`_runs` compares lists of claimants).
    """

    __slots__ = ("lo", "hi", "classify", "image_sizes")

    def __init__(self, lo, hi, classify, image_sizes=()):
        self.lo = lo
        self.hi = hi
        self.classify = classify
        self.image_sizes = image_sizes

    def replace(self, **changes):
        return replaced(self, self.__slots__, changes)

    def _key(self):
        return self.lo, self.hi, self.classify, self.image_sizes

    def __eq__(self, other):
        if other.__class__ is CaseRule:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def claims(self, m):
        return self.lo <= m and (self.hi is None or m <= self.hi)


class RefinementStatement:
    """A product class with watched sizes against a gap-2 class with case
    rules, linked to a catalog sum side.

    `series_vars` names distinct weight variables, one for each watched
    size; each rule's `image_sizes` are ints >= 1.  The rule found for each
    part count, and the packed key of each rule result, are cached on the
    statement.
    """

    _FIELDS = (
        "id", "params", "product_class", "watched", "diff_class", "rules",
        "linked_id", "linked_param", "linked_subs", "series_vars", "n_min",
    )
    __slots__ = _FIELDS + (
        "_rule_by_parts", "_image", "_staircase_shift", "_shifts", "_keys",
    )

    def __init__(
        self, id, params, product_class, watched, diff_class, rules,
        linked_id, linked_param=None, linked_subs=None, series_vars=(),
        n_min=0,
    ):
        self.id = id
        self.params = params
        self.product_class = product_class
        self.watched = watched
        self.diff_class = diff_class
        self.rules = rules
        self.linked_id = linked_id
        self.linked_param = linked_param
        self.linked_subs = linked_subs
        self.series_vars = series_vars
        self.n_min = n_min
        if len(set(series_vars)) != len(series_vars):
            raise ValueError(
                f"{self.label()}: series_vars {series_vars} name a variable "
                "twice"
            )
        if len(series_vars) != len(watched):
            raise ValueError(
                f"{self.label()}: {len(series_vars)} series_vars for "
                f"{len(watched)} watched sizes"
            )
        for rule in rules:
            for s in rule.image_sizes:
                if type(s) is not int or s < 1:
                    raise ValueError(
                        f"{self.label()}: the case rule from {rule.lo} parts "
                        f"declares image size {s!r}, not an int >= 1"
                    )
        self._shifts = tuple(VARIABLE_SHIFTS[v] for v in series_vars)
        self._keys = {}
        self._rule_by_parts = {}
        star = diff_class.kind == "diff2_star"
        self._image = col_star if star else col
        self._staircase_shift = 1 if star else 0

    def replace(self, **changes):
        """Its rule cache starts empty, so the copy never classifies with
        the rules it replaced."""
        return replaced(self, self._FIELDS, changes)

    def base(self, m):
        """The least total with m parts: m^2 (gap-2), m(m+1) (no ones)."""
        return m * (m + self._staircase_shift)

    def label(self):
        return instance_label(self.id, self.params)

    def key(self, sig):
        """A signature's packed key: sum sig[i] << shift(series_vars[i]),
        the weight monomial that counts it in the sum side."""
        key = self._keys.get(sig)
        if key is None:
            key = self._keys[sig] = _packed(sig, self._shifts)
        return key

    def signature(self, key):
        """The signature tuple of a key from `key` (tuple keys stay)."""
        if isinstance(key, tuple):
            return key
        return tuple(key >> shift & FIELD_MASK for shift in self._shifts)


def _packed(sig, shifts):
    """sum sig[i] << shifts[i], if sig is len(shifts) ints in 0..FIELD_MASK.

    Any other rule result keeps a tuple key, which equals no packed key, so
    its tally disagrees.
    """
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


class _LazyImage(dict):
    """The col images of a run m..top: size -> multiplicity fixed so far.

    `multiplicity` is the dict lookup, and a size not fixed goes to
    `__missing__`.  A size the rule does not declare raises, whatever the
    size, instead of miscounting.  Image parts are at most top, so a
    declared size above top occurs 0 times, and one up to m not fixed yet
    raises `_Unfixed`; none lies in (m, top], where runs split.
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


def _count_images(stmt, m, rule, tally, n_max, width, top=None):
    """Add the members with m..top parts (m >= 2) to a packed tally,
    branching on reads.

    One rule claims the run, and none of its declared sizes lies in
    (m, top], so each j in the run has the same declared sizes <= m and
    one exploration (`_explore`) serves every j.  Its leaves are kept per
    set F of fixed sizes and rule result, as the list of their totals w on
    F.  Each result is packed once, and each total adds the packed run
    kernel K_F (`_run_kernel`) shifted to q^w: one shift-add per leaf,
    linear in the width where a product would be quadratic.
    """
    top = m if top is None else top
    mask = (1 << width * (n_max + 1)) - 1
    keys = stmt._keys   # packed keys of the results seen so far
    for fixed, results in _explore(stmt, m, top, rule, n_max).items():
        if not results:
            continue
        kernel = _run_kernel(stmt, m, top, fixed, n_max, width)
        for result, totals in results.items():
            key = keys.get(result)
            if key is None:
                key = stmt.key(result)
            x = tally.get(key, 0)
            for w in totals:
                x += kernel << width * w
            tally[key] = x & mask


def _explore(stmt, m, top, rule, n_max):
    """Fixed sizes F -> {rule result: [w, ...]} over the leaves of a run,
    w the total of a leaf on F; results None are left out.

    The rule is called with no multiplicity fixed.  When it reads one of
    its declared sizes s <= m that is not fixed, each branch node calls it
    again with s fixed at each k with k * s within the budget n_max -
    base(m).  A call that returns (a leaf) classifies every image agreeing
    with the sizes fixed so far.
    """
    budget = n_max - stmt.base(m)
    label = stmt.label()
    lam = _Unlisted(label, m)
    image = _LazyImage(label, m, top, rule.image_sizes)
    classify = rule.classify
    leaves = {}

    def branch(fixed, w, s):
        fixed = fixed | {s}
        results = leaves.setdefault(fixed, {})
        for k, total in enumerate(range(w, budget + 1, s)):
            image[s] = k
            try:
                result = classify(lam, image)
            except _Unfixed as read:
                branch(fixed, total, read.size)
                continue
            if result is not None:
                totals = results.get(result)
                if totals is None:
                    results[result] = [total]
                else:
                    totals.append(total)
        del image[s]

    try:
        result = classify(lam, image)
    except _Unfixed as read:
        branch(frozenset(), 0, read.size)
    else:
        if result is not None:
            leaves[frozenset()] = {result: [0]}
    return leaves


def _run_kernel(stmt, m, top, fixed, n_max, width):
    """The run's generating function, packed to q^n_max,

        K_F(q) = sum_{j=m..top} q^base(j) prod_{s <= j, s not in F} 1/(1-q^s),

    the terms of the Rogers-Ramanujan sum over q^base(j)/(q;q)_j with the
    fixed sizes F taken out: one division by the free sizes <= m, then one
    by each j in (m, top] (never fixed: F holds sizes <= m).
    """
    fill = geometric_divide(
        1, [s for s in range(1, m + 1) if s not in fixed], width, n_max
    )
    kernel = fill << width * stmt.base(m)
    for j in range(m + 1, top + 1):
        fill = geometric_divide(fill, (j,), width, n_max)
        kernel += fill << width * stmt.base(j)
    return kernel & ((1 << width * (n_max + 1)) - 1)


def _runs(stmt, n_max):
    """(first, top, claiming rules) for each part count m <= 1, and each
    maximal run of part counts m >= 2 with the same claiming rules and none
    of their declared sizes in (first, top], over base(m) <= n_max."""
    m = 0
    while stmt.base(m) <= n_max:
        first, claimed = m, _claimants(stmt, m)
        while (
            m >= 2
            and stmt.base(m + 1) <= n_max
            and _claimants(stmt, m + 1) == claimed
            and not any(m + 1 in rule.image_sizes for rule in claimed)
        ):
            m += 1
        yield first, m, claimed
        m += 1


def rule_calls(stmt, n_max):
    """An upper bound on the classifications `diff_tally` makes.

    One per member with 0 or 1 parts, and for each run first..top with one
    claiming rule one per multiplicity vector of that rule's declared
    sizes <= first with total <= n_max - base(first), counted by a coin
    change.  The budget shrinks from run to run, so one pass serves every
    run with the same declared sizes.  A rule call that returns (a leaf)
    classifies one assignment of the sizes that the rule read, which
    covers one vector or more, so the leaves number at most this.  Calls
    cut short by a read of a size not yet fixed are not counted.
    """
    calls = 1 + max(0, n_max - stmt.base(1) + 1)
    vectors_within = {}   # declared sizes -> vectors with total <= budget
    for first, _, claimed in _runs(stmt, n_max):
        if first < 2 or len(claimed) != 1:
            continue
        budget = n_max - stmt.base(first)
        declared = tuple(
            sorted({s for s in claimed[0].image_sizes if s <= first})
        )
        if declared not in vectors_within:
            vectors_within[declared] = list(
                accumulate(partition_counts(declared, budget))
            )
        calls += vectors_within[declared][budget]
    return calls


def tally_bits(stmt, n_max):
    """The size in bits of the product tally packed to q^n_max at the least
    width, 1 plus the bit length of p(n_max): one int of width * (n_max + 1)
    bits per multiplicity vector of the watched sizes with total <= n_max.
    The other two tallies have its keys when the check passes."""
    watched = [s for s in stmt.watched if stmt.product_class.allows_part(s)]
    keys = sum(partition_counts(watched, n_max))
    return keys * (1 + partition_number(n_max).bit_length()) * (n_max + 1)


def diff_tally(stmt, n_max, width):
    """(tally, unresolved): signature key -> packed count over the gap-2
    class to q^n_max, unlisted, and the ranges of n with members whose
    part count no rule, or several rules, claim.

    `col` (`col_star`) maps the members of n with m parts one to one onto
    the partitions of n - base(m) into parts <= m.  For m >= 2 each run of
    part counts claimed by one rule, split at the rule's declared sizes, is
    explored once (`_count_images`); the members () and (n) are classified
    as partitions.  An unresolved run adds nothing: `count_diff_refined`
    lists its first n and raises the error.
    """
    tally = {}
    unresolved = []
    for m, top, claimed in _runs(stmt, n_max):
        present = range(1) if m == 0 else range(stmt.base(m), n_max + 1)
        if len(claimed) != 1:
            unresolved.append(present)
        elif m >= 2:
            _count_images(stmt, m, claimed[0], tally, n_max, width, top)
        else:
            for n in present:
                sig = classify_diff_partition(stmt, Partition((n,) if m else ()))
                if sig is not None:
                    key = stmt.key(sig)
                    tally[key] = tally.get(key, 0) + (1 << width * n)
    return tally, unresolved


def series_counts(stmt, order):
    """The linked sum side packed (`expand_packed`), its coefficients the
    signature counts as they are, at a width that also holds p(order),
    which bounds every count of the other two legs.

    The monomial of a signature is its packed key (`RefinementStatement.
    key`); a coefficient with a monomial in any variable outside
    `series_vars` raises, naming the first such q^n.
    """
    spec = get_entry(stmt.linked_id).instantiate(stmt.linked_param)
    if stmt.linked_subs:
        spec = spec.substituted(stmt.linked_subs)
    (series,) = expand_packed(
        ((spec.sum_terms, spec.tail),), order, partition_number(order)
    )
    outside = ~sum(FIELD_MASK << shift for shift in stmt._shifts)
    stray = [x for mono, x in series.digits.items() if mono & outside]
    if stray:
        n = min(lowest_digit(x, series.width) for x in stray)
        raise ExtractionError(
            f"{stmt.label()}: unexpected weight variable in coefficient of "
            f"q^{n}"
        )
    return series


class RefinementReport:
    """Outcome of one triple-agreement check; `failure` says where."""

    __slots__ = ("id", "params", "n_min", "n_max", "ok", "failure")

    def __init__(self, id, params, n_min, n_max, ok, failure=None):
        self.id = id
        self.params = params
        self.n_min = n_min
        self.n_max = n_max
        self.ok = ok
        self.failure = failure

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


def _failure(stmt, n, width, a, b, names):
    """The first signature, as a tuple, whose counts at n differ in two
    packed tallies."""
    a = {key: balanced_digit(x, n, width) for key, x in a.items()}
    b = {key: balanced_digit(x, n, width) for key, x in b.items()}
    sig, x, y = min(
        (stmt.signature(key), a.get(key, 0), b.get(key, 0))
        for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)
    )
    return f"n={n} signature {sig}: {names[0]} {x} vs {names[1]} {y}"


def _from_n_min(tally, n_min, width, n_max):
    """A packed tally without its digits below n_min, which are dropped as
    a balanced residue: the digit at n_min gains 1 when those below it are
    negative."""
    if not n_min:
        return tally
    low = width * n_min
    mask = (1 << width * (n_max + 1) - low) - 1
    out = {}
    for key, x in tally.items():
        x = ((x >> low) + (x >> (low - 1) & 1)) & mask
        if x:
            out[key] = x
    return out


def check_refinement(stmt, n_max):
    """Triple agreement for n_min..n_max; reports the first mismatch.

    An empty range raises ValueError rather than pass having checked nothing.
    The three tallies are packed, keyed by signature, at the sum side's
    width: the product class, the gap-2 class through the case rules, and
    the sum side's coefficients.  Agreement is dict equality once the digits
    below n_min are dropped.  Only a mismatch decodes: at the least n where
    a part count lacks one claiming rule (the error is raised), the product
    class disagrees with the rules, or the rules with the sum side, in that
    order at one n.  The sum side goes first, so its errors do.
    """
    if n_max < stmt.n_min:
        raise ValueError(f"{stmt.id} needs n_max >= {stmt.n_min}, got {n_max}")
    series = series_counts(stmt, n_max)
    width = series.width
    diffs, unresolved = diff_tally(stmt, n_max, width)
    products = signature_tally(
        stmt.product_class, stmt.watched, [1 << s for s in stmt._shifts],
        n_max, width,
    )
    n_min = stmt.n_min
    found = [
        (max(r.start, n_min), 0, None) for r in unresolved if r.stop > n_min
    ]
    pairs = (
        (products, diffs, ("product", "case rules")),
        (diffs, series.digits, ("case rules", "series")),
    )
    for rank, (a, b, names) in enumerate(pairs, 1):
        n = first_difference(
            _from_n_min(a, n_min, width, n_max),
            _from_n_min(b, n_min, width, n_max), width,
        )
        if n is not None:
            found.append((n_min + n, rank, (a, b, names)))
    for n, _, pair in sorted(found):
        if pair is None:   # a part count without one claiming rule
            count_diff_refined(stmt, n)   # lists n and raises the error
            continue
        return RefinementReport(
            stmt.id, stmt.params, n_min, n_max, False,
            _failure(stmt, n, width, *pair),
        )
    return RefinementReport(stmt.id, stmt.params, n_min, n_max, True)


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------

class TableRow:
    """A product partition paired with a gap-2 partition and its col image."""

    __slots__ = ("mu", "lam", "image", "signature")

    def __init__(self, mu, lam, image, signature):
        self.mu = mu
        self.lam = lam
        self.image = image
        self.signature = signature


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
    import csv

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

def _classes(b):
    """The product class and the gap-2 class of a baseline."""
    gap2 = DIFF2_STAR if b.staircase else DIFF2
    return PartitionClass.congruence(5, b.residues), gap2


def _stmt_generalmini(id, b, linked_id, M):
    P = M + 1
    first = b.base(1)

    def one_part(lam, image):
        N = lam.parts[0]
        return (N // P if N % P == 0 else (N - first) // P,)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0,)),
        CaseRule(1, 1, one_part),
        CaseRule(
            2, M, lambda lam, image: (image.multiplicity(1) // P,), (1,)
        ),
        CaseRule(P, None, lambda lam, image: (image.multiplicity(P),), (P,)),
    )
    product, gap2 = _classes(b)
    return RefinementStatement(
        id, {"M": M}, product, (P,), gap2, rules, linked_id, M, None, ("t",),
    )


def _stmt_general2part(id, b, linked_id, M):
    small, step = b.small, b.step
    h = M // step
    bumped = {(M - j) // step for j in b.bumps}

    def one_part(lam, image):
        # N in parts of size small, and one 3 when small (2) does not divide N
        N = lam.parts[0]
        return (0, N // small if N % small == 0 else (N - 3) // small)

    def two_parts(lam, image):
        j = image.multiplicity(small)
        k, r = divmod(image.multiplicity(step), h)
        return (k + (r in bumped), j)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0, 0)),
        CaseRule(1, 1, one_part),
        CaseRule(2, 2, two_parts, (small, step)),
        CaseRule(
            3, M - 1,
            lambda lam, image: (
                image.multiplicity(step) // h, image.multiplicity(small),
            ),
            (small, step),
        ),
        CaseRule(
            M, None,
            lambda lam, image: (
                image.multiplicity(M), image.multiplicity(small),
            ),
            (small, M),
        ),
    )
    product, gap2 = _classes(b)
    return RefinementStatement(
        id, {"M": M}, product, (M, small), gap2, rules, linked_id, M, None,
        ("w", "t"),
    )


def _stmt_firstbigcomb():
    def one_part(lam, image):
        ones = image.multiplicity(1)
        if ones % 2 == 0:
            return (ones // 2 + 1, 0, 0)
        return ((ones - 1) // 2, 1, 0)

    def two_parts(lam, image):
        k = image.multiplicity(2)
        ones = image.multiplicity(1)
        r = ones % 3
        if r == 0:
            return (k, ones // 3 + 2, 0)
        if r == 2:
            return (k, (ones - 2) // 3, 0)
        return (k, (ones - 1) // 3, 1)

    def three_parts(lam, image):
        k = image.multiplicity(2)
        j = image.multiplicity(3)
        a, r = divmod(image.multiplicity(1), 7)
        if r == 2:
            return (k, j, a + 2)
        if r == 3:
            return (k, j, a + 1)
        return (k, j, a)

    rules = (
        CaseRule(0, 0, lambda lam, image: (0, 0, 0)),
        CaseRule(1, 1, one_part),
        CaseRule(2, 2, two_parts, (1, 2)),
        CaseRule(3, 3, three_parts, (1, 2, 3)),
        CaseRule(
            4, 6,
            lambda lam, image: (
                image.multiplicity(2), image.multiplicity(3),
                image.multiplicity(1) // 7,
            ),
            (1, 2, 3),
        ),
        CaseRule(
            7, None,
            lambda lam, image: (
                image.multiplicity(2), image.multiplicity(3),
                image.multiplicity(7),
            ),
            (2, 3, 7),
        ),
    )
    return RefinementStatement(
        "firstbigcomb", {}, MOD5_23, (2, 3, 7), DIFF2_STAR, rules,
        "twvthm", None, None, ("t", "w", "v"),
    )


def _stmt_bigcomb():
    def two_parts(lam, image):
        k = image.multiplicity(1)
        b = image.multiplicity(2)
        if b % 2 == 0:
            return (k, b // 2 + 1, 0)
        return (k, (b - 1) // 2, 1)

    def three_parts(lam, image):
        k = image.multiplicity(1)
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
        CaseRule(2, 2, two_parts, (1, 2)),
        CaseRule(3, 3, three_parts, (1, 2, 3)),
        CaseRule(
            4, 5,
            lambda lam, image: (
                image.multiplicity(1), image.multiplicity(4),
                image.multiplicity(3) // 2,
            ),
            (1, 3, 4),
        ),
        CaseRule(
            6, None,
            lambda lam, image: (
                image.multiplicity(1), image.multiplicity(4),
                image.multiplicity(6),
            ),
            (1, 4, 6),
        ),
    )
    return RefinementStatement(
        "bigcomb", {}, MOD5_14, (1, 4, 6), DIFF2, rules,
        "twvx14thm", None, {"x": 1}, ("t", "w", "v"),
    )


def _stmt_spec1():
    def accept(cond):
        return lambda lam, image, _c=cond: () if _c(lam, image) else None

    rules = (
        CaseRule(0, 0, lambda lam, image: ()),
        CaseRule(1, 1, accept(lambda lam, image: lam.parts[0] % 2 == 0)),
        CaseRule(
            2, 2, accept(lambda lam, image: image.multiplicity(1) == 1), (1,)
        ),
        CaseRule(
            3, 3,
            accept(
                lambda lam, image: image.multiplicity(3) == 0
                and image.multiplicity(1) % 7 not in (3, 4)
            ),
            (1, 3),
        ),
        CaseRule(
            4, 4,
            accept(
                lambda lam, image: image.multiplicity(4) == 0
                and image.multiplicity(3) <= 2
                and image.multiplicity(1) % 7 in (2, 3, 4)
            ),
            (1, 3, 4),
        ),
        CaseRule(
            5, 7,
            accept(
                lambda lam, image: image.multiplicity(3) == 0
                and image.multiplicity(4) <= 1
            ),
            (3, 4),
        ),
        CaseRule(
            8, None,
            accept(
                lambda lam, image: image.multiplicity(3) == 0
                and image.multiplicity(8) == 0
            ),
            (3, 8),
        ),
    )
    return RefinementStatement(
        "spec1", {},
        PartitionClass.congruence(5, (2, 3), forbidden=(3, 8)),
        (), DIFF2_STAR, rules, "spec1", None, None, (),
    )


def _stmt_spec2():
    rules = (
        CaseRule(0, 4, lambda lam, image: None),
        CaseRule(
            5, 8,
            lambda lam, image: ()
            if image.multiplicity(1) == 0
            and image.multiplicity(4) == 0
            and image.multiplicity(2) <= 2
            and image.multiplicity(3) <= 2
            else None,
            (1, 2, 3, 4),
        ),
        CaseRule(
            9, None,
            lambda lam, image: ()
            if all(image.multiplicity(s) == 0 for s in (1, 4, 6, 9))
            else None,
            (1, 4, 6, 9),
        ),
    )
    return RefinementStatement(
        "spec2", {},
        PartitionClass.congruence(5, (1, 4), forbidden=(1, 4, 6, 9)),
        (), DIFF2, rules, "spec2", None, None, (), n_min=27,
    )


def _stmt_spec3():
    rules = (
        CaseRule(0, 0, lambda lam, image: ()),
        CaseRule(
            1, 1, lambda lam, image: () if lam.parts[0] != 3 else None
        ),
        CaseRule(
            2, 2,
            lambda lam, image: (
                () if image.multiplicity(1) % 5 in (1, 2, 4) else None
            ),
            (1,),
        ),
        CaseRule(
            3, None,
            lambda lam, image: ()
            if image.multiplicity(2) >= image.multiplicity(3)
            else None,
            (2, 3),
        ),
    )
    return RefinementStatement(
        "spec3", {},
        PartitionClass.congruence(5, (2, 3), forbidden=(3,), extra_allowed=(5,)),
        (), DIFF2_STAR, rules, "spec3_firsttw", None, None, (),
    )


def statements():
    def refining(id, build, baseline, family_id):
        """A statement family over the parameters of the catalog family
        whose identity it refines."""
        family = get_entry(family_id)
        return Family(
            id, partial(build, id, baseline, family_id), family.param_style,
            family.admissible, family.param_hint,
        )

    return [
        refining("generalminithm", _stmt_generalmini, RR2, "partM"),
        refining("generalmini14thm", _stmt_generalmini, RR1, "partMeq"),
        refining("general2partcor", _stmt_general2part, RR2, "twopartM"),
        refining("general2part14cor", _stmt_general2part, RR1, "twopart14"),
        Family("firstbigcomb", _stmt_firstbigcomb),
        Family("bigcomb", _stmt_bigcomb),
        Family("spec1", _stmt_spec1),
        Family("spec2", _stmt_spec2),
        Family("spec3", _stmt_spec3),
    ]


def get_statement(statement_id):
    return lookup(statements(), statement_id, UnknownStatementError)
