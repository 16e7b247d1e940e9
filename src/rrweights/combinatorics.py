"""Brute-force refinement checks and reproduction of the bijection tables.

Each refinement statement pairs a congruence-restricted product class
(with watched part sizes) against a gap-2 class carrying case rules keyed
on the number of parts, each rule a list of cells over the `col`-image
multiplicities.  A rule claims from its first part count up to the next
rule's; rules that do not start at 0 parts and rise are refused when the
statement is built.  Three independent counts must agree signature by
signature: the product class, the gap-2 class through the cells, and the
coefficients of the linked identity's sum side.  Each is a generating
function, a (terms, tail) side as the series kernel takes it (`_legs`):
the linked sum side; one rational term per part count j and cell of the
rule claiming j, the q^base(j)/(q;q)_j term of the Rogers-Ramanujan sum
with the cell's sizes taken out, over one factor per generator of the
cell; and the product class as one term, 1 over one factor per allowed
part size, weighted when the size is watched.  The weight monomial of a
signature is its key (`series.pack_monomial`), so each coefficient is the
signature tally at its q^n.  Neither class is listed.

A statement is decided without expanding anything: the three sides go
over one common denominator U (`series.over_one_denominator`), a unit,
and agree to q^n_max exactly when their numerators are equal.  From
n_min > 0 on, the legs are first made to agree below n_min.  Only a
mismatch expands the three tallies, as `PackedSeries` of one order and
width (`series_counts`), and only to the least n where the numerators
differ, to find the signature there; failures print signatures as tuples.  This module never reads a digit or
a bit field itself.  Tables, and the tests' oracle for the counts, list
both classes.
"""

import io
from collections import Counter
from functools import partial

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
    PartitionClass,
    col,
    col_star,
    enumerate_class,
    partition_counts,
    partition_number,
    signature,
)
from .series import (
    FIELD_MASK,
    MONO_ONE,
    VARIABLES,
    FieldOverflowError,
    RationalTerm,
    WeightPolynomial,
    expand_packed,
    over_one_denominator,
    pack_monomial,
    rational_term,
    unpack_monomial,
)


class ClassificationGapError(ValueError):
    """Some partition is claimed by no case rule."""


class AmbiguousClassificationError(ValueError):
    """Some partition is claimed by more than one case rule."""


class ExtractionError(ValueError):
    """A series coefficient carries an unexpected weight variable."""


class TableError(ValueError):
    """Table rows cannot be paired (unequal class sizes)."""


class UnknownStatementError(KeyError):
    """No refinement statement with the requested id."""


class TallyLimitError(ValueError):
    """A mismatch needs packed tallies of more than MAX_TALLY_BITS bits."""


# A mismatch at q^n expands the three tallies to n, and is refused when the
# product tally would hold more than MAX_TALLY_BITS bits (`tally_bits`):
# just above the largest that refine-check admitted when each rule was
# charged for every size its statement reads (general2part14cor M=36 at
# n = 1413: 5,114,381,440).
MAX_TALLY_BITS = 52 * 10**8


class Cell:
    """The col images whose multiplicities k_s of the sizes in `bases` are

        k_s = c_s + sum_g n_g * step_g[s],   c_s in bases[s], each n_g >= 0,

    each classified as the signature const + sum_g n_g * incr_g.  `gens`
    lists the generators (step, incr), step a {size: count}; a size that a
    step names and `bases` omits has the base values (0,).  The pivot of a
    generator is a size its step counts and no later step counts, so the
    n_g follow one by one from the pivots (`match`); a generator without
    one has the pivot None, which a statement refuses.  Base values must
    not reach one image twice (0..7 with the step {1: 7} reach 7 twice):
    like an image in two cells, it is counted twice and fails the check.
    """

    __slots__ = ("const", "bases", "gens", "pivots")

    def __init__(self, const, bases=None, gens=()):
        self.const = const
        self.gens = tuple(gens)
        self.bases = {s: tuple(values) for s, values in (bases or {}).items()}
        for step, _ in self.gens:
            for s in step:
                self.bases.setdefault(s, (0,))
        self.pivots = tuple(
            next((
                s for s, count in step.items()
                if count and not any(
                    later.get(s) for later, _ in self.gens[g + 1:]
                )
            ), None)
            for g, (step, _) in enumerate(self.gens)
        )

    def _key(self):
        return (
            self.const, tuple(self.bases.items()),
            tuple((tuple(step.items()), incr) for step, incr in self.gens),
        )

    def __eq__(self, other):
        if other.__class__ is Cell:
            return self._key() == other._key()
        return NotImplemented

    def match(self, image):
        """The signature of a col image in the cell, or None: each n_g by
        back-substitution at its pivot, the earlier generators' counts
        taken off first."""
        k = {s: image.multiplicity(s) for s in self.bases}
        sig = self.const
        for (step, incr), p in zip(self.gens, self.pivots):
            r, count = k[p], step[p]
            n = next((
                (r - c) // count for c in self.bases[p]
                if c <= r and (r - c) % count == 0
            ), None)
            if n is None:
                return None
            for s, c in step.items():
                k[s] -= n * c
            sig = tuple(a + n * b for a, b in zip(sig, incr))
        if all(k[s] in values for s, values in self.bases.items()):
            return tuple(sig)
        return None


def _weight(step):
    """The total that one use of a generator's step adds to an image."""
    return sum(s * count for s, count in step.items())


class CaseRule:
    """Claims partitions with lo parts or more, up to one part fewer than
    the next rule of its statement claims from (`RefinementStatement`).

    `classify(image)` returns the signature tuple of a partition from its
    col image: that of the cell holding the image, or None when no cell
    does and the partition is excluded from the refined set (filter-style
    statements).  The cells of a rule must not overlap: an image in two
    cells is classified by the first but counted in each by
    `check_refinement`, whose product and gap-2 legs then disagree.  Rules
    compare by their fields.
    """

    _FIELDS = ("lo", "cells")
    __slots__ = _FIELDS

    def __init__(self, lo, cells=()):
        self.lo = lo
        self.cells = tuple(cells)

    def replace(self, **changes):
        return replaced(self, self._FIELDS, changes)

    def _key(self):
        return self.lo, self.cells

    def __eq__(self, other):
        if other.__class__ is CaseRule:
            return self._key() == other._key()
        return NotImplemented

    def classify(self, image):
        for cell in self.cells:
            sig = cell.match(image)
            if sig is not None:
                return sig
        return None


class RefinementStatement:
    """A product class with watched sizes against a gap-2 class with case
    rules, linked to a catalog sum side.

    `watched` maps each watched size to its own weight variable, in
    signature order: {M: "w", 2: "t"} keys the signature (k_M, k_2) by
    w^k_M t^k_2.  Each cell of each rule is checked (`_check_cell`).  The
    rules start at 0 parts, or ClassificationGapError, and each starts
    above the one before it, or AmbiguousClassificationError; so
    `rule_for(m)` finds the one rule.  The linked entry is instantiated at
    params["M"] (`series_counts`).
    """

    _FIELDS = (
        "id", "params", "product_class", "watched", "diff_class", "rules",
        "linked_id", "linked_subs", "n_min",
    )
    __slots__ = _FIELDS + ("_image", "_staircase_shift", "_units")

    def __init__(
        self, id, params, product_class, watched, diff_class, rules,
        linked_id, linked_subs=None, n_min=0,
    ):
        self.id = id
        self.params = params
        self.product_class = product_class
        self.watched = watched
        self.diff_class = diff_class
        self.rules = rules
        self.linked_id = linked_id
        self.linked_subs = linked_subs
        self.n_min = n_min
        names = list(watched.values())
        if len(set(names)) != len(names) or not set(names) <= set(VARIABLES):
            raise ValueError(
                f"{self.label()}: watched {watched} does not give each size "
                f"its own variable of {', '.join(VARIABLES)}"
            )
        for before, rule in zip(rules, rules[1:]):
            if rule.lo <= before.lo:
                raise AmbiguousClassificationError(
                    f"{self.label()}: the case rule from {rule.lo} parts "
                    f"follows the one from {before.lo} parts"
                )
        if not rules or rules[0].lo != 0:
            raise ClassificationGapError(
                f"{self.label()}: no case rule claims from 0 parts"
            )
        for rule in rules:
            for cell in rule.cells:
                _check_cell(
                    f"{self.label()}: the case rule from {rule.lo} parts",
                    cell, len(names),
                )
        self._units = tuple(pack_monomial(**{v: 1}) for v in names)
        star = diff_class.kind == "diff2_star"
        self._image = col_star if star else col
        self._staircase_shift = 1 if star else 0

    def replace(self, **changes):
        return replaced(self, self._FIELDS, changes)

    def base(self, m):
        """The least total with m parts: m^2 (gap-2), m(m+1) (no ones)."""
        return m * (m + self._staircase_shift)

    def label(self):
        return instance_label(self.id, self.params)

    def rule_for(self, m):
        """The case rule claiming m parts: the last from m parts or fewer."""
        return next(r for r in reversed(self.rules) if r.lo <= m)

    def signature(self, key):
        """The signature tuple of a packed key."""
        exps = dict(zip(VARIABLES, unpack_monomial(key)))
        return tuple(exps[v] for v in self.watched.values())


def _check_cell(where, cell, length):
    """Refuse (ValueError) a cell whose sizes are not ints >= 1, whose
    base values, step counts and signature entries are not ints >= 0, whose
    signatures are not `length` long, or with a generator without a pivot.
    """
    for s in cell.bases:
        if type(s) is not int or s < 1:
            raise ValueError(
                f"{where} declares image size {s!r}, not an int >= 1"
            )
    sigs = [cell.const] + [incr for _, incr in cell.gens]
    for sig in sigs:
        if len(sig) != length:
            raise ValueError(
                f"{where} has the signature {sig!r}, not {length} long"
            )
    values = [c for values in cell.bases.values() for c in values]
    values += [c for step, _ in cell.gens for c in step.values()]
    values += [v for sig in sigs for v in sig]
    for v in values:
        if type(v) is not int or v < 0:
            raise ValueError(f"{where} has the value {v!r}, not an int >= 0")
    for (step, _), pivot in zip(cell.gens, cell.pivots):
        if pivot is None:
            raise ValueError(
                f"{where} has the generator {step!r} without a pivot size"
            )


def classify_diff_partition(stmt, lam):
    """Apply the case rule claiming lam's part count; None means excluded."""
    return stmt.rule_for(len(lam.parts)).classify(stmt._image(lam))


def _pack(sig, units):
    """A signature's packed key, sum sig[i] * units[i] (`stmt._units`): the
    weight monomial that counts it in the sum side."""
    return sum(v * unit for v, unit in zip(sig, units))


def _gap2_terms(stmt, n_max):
    """The gap-2 class's generating function to q^n_max, as rational terms
    keyed by signature monomials: one term per cell of the rule claiming
    each part count j.

    `col` (`col_star`) maps the members of n with j parts one to one onto
    the partitions of n - base(j) into parts <= j.  Those in a cell are its
    base values c and generator counts n_g times any multiplicities of the
    sizes s <= j outside the cell's sizes F, so the cell adds

        q^base(j) mono(const) sum_c q^(sum_s s*c_s)
            / (prod_{s <= j, s not in F} (1 - q^s)
               prod_g (1 - mono(incr_g) q^w_g))

    with w_g the step's weight.  A size above j occurs 0 times: it keeps
    only the base value 0 and drops the generators that count it.
    """
    terms = []
    j = 0
    while stmt.base(j) <= n_max:
        budget = n_max - stmt.base(j)
        for cell in stmt.rule_for(j).cells:
            totals = [0]
            for s, values in cell.bases.items():
                if s > j:
                    values = [0] if 0 in values else []
                totals = [w + s * c for w in totals for c in values
                          if w + s * c <= budget]
            if not totals:
                continue
            key = _pack(cell.const, stmt._units)
            free = [(MONO_ONE, s) for s in range(1, j + 1)
                    if s not in cell.bases]
            gens = [
                (_pack(incr, stmt._units), _weight(step))
                for step, incr in cell.gens
                if all(s <= j for s, count in step.items() if count)
            ]
            terms.append(RationalTerm(
                stmt.base(j),
                {w: WeightPolynomial.monomial(key, c)
                 for w, c in Counter(totals).items()},
                tuple(free + gens),
            ))
        j += 1
    return terms


def signature_reach(stmt, n_max):
    """The largest signature entry a cell can give to n_max: over the
    cells, const + sum_g (n_max // w_g) * incr_g entry by entry, w_g the
    weight of generator g.  A packed key holds each entry in a field of
    FIELD_MASK."""
    reach = 0
    for rule in stmt.rules:
        for cell in rule.cells:
            sig = cell.const
            for step, incr in cell.gens:
                n = n_max // _weight(step)
                sig = [a + n * b for a, b in zip(sig, incr)]
            reach = max([reach, *sig])
    return reach


def tally_bits(stmt, n_max):
    """The size in bits of the product tally packed to q^n_max at the least
    width, 1 plus the bit length of p(n_max): one int of width * (n_max + 1)
    bits per multiplicity vector of the watched sizes with total <= n_max.
    A mismatch at n_max expands the three tallies (`series_counts`) only
    when this is at most MAX_TALLY_BITS; the other two hold its keys where
    they agree with it."""
    watched = [s for s in stmt.watched if stmt.product_class.allows_part(s)]
    keys = sum(partition_counts(watched, n_max))
    return keys * (1 + partition_number(n_max).bit_length()) * (n_max + 1)


def _linked_spec(stmt):
    """The linked entry's instance: at params["M"], or without a parameter,
    then under `linked_subs`."""
    spec = get_entry(stmt.linked_id).instantiate(stmt.params.get("M"))
    if stmt.linked_subs:
        spec = spec.substituted(stmt.linked_subs)
    return spec


def _legs(stmt, spec, order):
    """The three legs to q^order as (terms, tail) sides: the linked sum
    side, the gap-2 class's terms (`_gap2_terms`), and the product class as
    one term, 1 over (1 - mono(s) q^s) for each allowed size s <= order,
    mono(s) the unit of s's field when s is watched and 1 otherwise."""
    units = dict(zip(stmt.watched, stmt._units))
    product = RationalTerm(0, {0: WeightPolynomial.const(1)}, tuple(
        (units.get(s, MONO_ONE), s)
        for s in range(1, order + 1) if stmt.product_class.allows_part(s)
    ))
    return (
        (spec.sum_terms, spec.tail), (_gap2_terms(stmt, order), None),
        ((product,), None),
    )


def _check_variables(stmt, sums):
    """Raise ExtractionError, naming the least such q^n, when a packed sum
    side has a monomial in a variable that `watched` does not name."""
    inside = pack_monomial(**dict.fromkeys(stmt.watched.values(), FIELD_MASK))
    n = sums.least_degree([mono for mono in sums.digits if mono & ~inside])
    if n is not None:
        raise ExtractionError(
            f"{stmt.label()}: unexpected weight variable in coefficient of "
            f"q^{n}"
        )


def series_counts(stmt, order):
    """(sums, diffs, products): the three legs (`_legs`) packed to q^order
    by one `expand_packed` call, at one width, their coefficients the
    signature counts as they are.  The monomial of a signature is its
    packed key (`_pack`); a sum-side coefficient with a monomial in any
    variable that `watched` does not name raises, naming the first such
    q^n.
    """
    legs = expand_packed(_legs(stmt, _linked_spec(stmt), order), order)
    _check_variables(stmt, legs[0])
    return legs


def _below_n_min(stmt, spec):
    """Two polynomial terms that make the sum side and the gap-2 leg agree
    with the product leg below n_min: each the product leg's coefficients
    there minus the leg's own.  The legs are expanded to n_min - 1, and the
    sum side's coefficients there are checked for stray variables
    (`_check_variables`), which the comparison from n_min on cannot see."""
    order = stmt.n_min - 1
    low = expand_packed(_legs(stmt, spec, order), order)
    _check_variables(stmt, low[0])
    sums, diffs, products = (leg.decode().coeffs for leg in low)
    return [
        rational_term(0, {
            n: want - have for n, (want, have) in enumerate(zip(products, leg))
        })
        for leg in (sums, diffs)
    ]


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


def _failure(stmt, n, tallies, pair):
    """The first signature, as a tuple, whose counts at n differ in the
    pair of packed tallies, indices into (sums, diffs, products)."""
    a, b = (tallies[i].coefficient(n).terms for i in pair)
    sig, x, y = min(
        (stmt.signature(key), a.get(key, 0), b.get(key, 0))
        for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)
    )
    names = [("series", "case rules", "product")[i] for i in pair]
    return f"n={n} signature {sig}: {names[0]} {x} vs {names[1]} {y}"


def check_refinement(stmt, n_max):
    """Triple agreement for n_min..n_max; reports the first mismatch.

    An empty range raises ValueError rather than pass having checked
    nothing, and so does a signature entry that could pass its packed
    field (`signature_reach`).  The three legs (`_legs`), from n_min > 0 on
    first made to agree below n_min (`_below_n_min`), go over one common
    denominator U (`series.over_one_denominator`; a FieldOverflowError
    names the statement).  Every factor of U is 1 - m*q^e with e >= 1, so
    U is a unit: the numerators are equal exactly when the legs agree to
    q^n_max, and else first differ where the legs do, at the least n where
    the product class disagrees with the rules, or the rules with the sum
    side, the former first at one n.  Only then are the three tallies
    expanded, to that n (`series_counts`, which names a stray variable in
    the sum side up to n), once TallyLimitError refuses more than
    MAX_TALLY_BITS there.
    """
    if n_max < stmt.n_min:
        raise ValueError(f"{stmt.id} needs n_max >= {stmt.n_min}, got {n_max}")
    reach = signature_reach(stmt, n_max)
    if reach > FIELD_MASK:
        raise ValueError(
            f"{stmt.label()}: a signature entry could reach {reach} by "
            f"n={n_max}, above {FIELD_MASK}"
        )
    spec = _linked_spec(stmt)
    (sum_terms, tail), (gap2, _), product = _legs(stmt, spec, n_max)
    if stmt.n_min:
        low_sums, low_diffs = _below_n_min(stmt, spec)
        sum_terms = [*sum_terms, low_sums]
        gap2 = [*gap2, low_diffs]
    try:
        numerators = over_one_denominator(
            ((sum_terms, tail), (gap2, None), product), n_max,
        )
    except FieldOverflowError as exc:
        raise FieldOverflowError(f"{stmt.label()}: {exc}") from None
    found = [   # (i, j) index (sums, diffs, products)
        (n, (i, j)) for i, j in ((2, 1), (1, 0))
        if (n := numerators[i].first_difference(numerators[j])) is not None
    ]
    if not found:
        return RefinementReport(stmt.id, stmt.params, stmt.n_min, n_max, True)
    n, pair = min(found, key=lambda f: f[0])
    bits = tally_bits(stmt, n)
    if bits > MAX_TALLY_BITS:
        raise TallyLimitError(
            f"{stmt.label()}: the mismatch at n={n} needs {bits} bits of "
            f"packed tallies; the limit is {MAX_TALLY_BITS}"
        )
    return RefinementReport(
        stmt.id, stmt.params, stmt.n_min, n_max, False,
        _failure(stmt, n, series_counts(stmt, n), pair),
    )


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
        sig = tuple(signature(mu, stmt.watched).values())
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
    per_P = [({1: P}, (1,))]   # t^(k_1 // P)
    # the one part is k_1 + first; a multiple of P counts itself, t^(part/P)
    r = -first % P
    # the rule for 2..M parts, left out at M = 1, where it claims nothing
    middle = (
        (CaseRule(2, [Cell((0,), {1: range(P)}, per_P)]),) if M > 1 else ()
    )

    rules = (
        CaseRule(0, [Cell((0,))]),
        CaseRule(1, [
            Cell((0,), {1: [c for c in range(P) if c != r]}, per_P),
            Cell(((r + first) // P,), {1: [r]}, per_P),
        ]),
        *middle,
        CaseRule(P, [Cell((0,), {}, [({P: 1}, (1,))])]),
    )
    product, gap2 = _classes(b)
    return RefinementStatement(
        id, {"M": M}, product, {P: "t"}, gap2, rules, linked_id,
    )


def _stmt_general2part(id, b, linked_id, M):
    small, step = b.small, b.step
    h = M // step
    bumped = {(M - j) // step for j in b.bumps}
    first = b.base(1)

    def one_part(r):
        # the one part N = k_1 + first in parts of size small, and one 3
        # when small (2) does not divide N
        N = r + first
        return (0, N // small if N % small == 0 else (N - 3) // small)

    smalls = ({small: 1}, (0, 1))
    per_h = [({step: h}, (1, 0)), smalls]
    rules = (
        CaseRule(0, [Cell((0, 0))]),
        CaseRule(1, [
            Cell(one_part(r), {1: [r]}, [({1: small}, (0, 1))])
            for r in range(small)
        ]),
        CaseRule(2, [
            Cell(
                (bump, 0),
                {step: [r for r in range(h) if (r in bumped) == bump]}, per_h,
            )
            for bump in (0, 1)
        ]),
        CaseRule(3, [Cell((0, 0), {step: range(h)}, per_h)]),
        CaseRule(M, [Cell((0, 0), {}, [({M: 1}, (1, 0)), smalls])]),
    )
    product, gap2 = _classes(b)
    return RefinementStatement(
        id, {"M": M}, product, {M: "w", small: "t"}, gap2, rules, linked_id,
    )


def _stmt_firstbigcomb():
    twos, threes = ({2: 1}, (1, 0, 0)), ({3: 1}, (0, 1, 0))
    by_3 = [({1: 3}, (0, 1, 0)), twos]
    by_7 = [({1: 7}, (0, 0, 1)), twos, threes]
    rules = (
        CaseRule(0, [Cell((0, 0, 0))]),
        CaseRule(1, [
            Cell((1, 0, 0), {1: [0]}, [({1: 2}, (1, 0, 0))]),
            Cell((0, 1, 0), {1: [1]}, [({1: 2}, (1, 0, 0))]),
        ]),
        CaseRule(2, [
            Cell((0, 2, 0), {1: [0]}, by_3),
            Cell((0, 0, 1), {1: [1]}, by_3),
            Cell((0, 0, 0), {1: [2]}, by_3),
        ]),
        CaseRule(3, [
            Cell((0, 0, 2), {1: [2]}, by_7),
            Cell((0, 0, 1), {1: [3]}, by_7),
            Cell((0, 0, 0), {1: [0, 1, 4, 5, 6]}, by_7),
        ]),
        CaseRule(4, [Cell((0, 0, 0), {1: range(7)}, by_7)]),
        CaseRule(7, [
            Cell((0, 0, 0), {}, [twos, threes, ({7: 1}, (0, 0, 1))]),
        ]),
    )
    return RefinementStatement(
        "firstbigcomb", {}, MOD5_23, {2: "t", 3: "w", 7: "v"}, DIFF2_STAR,
        rules, "twvthm",
    )


def _stmt_bigcomb():
    ones, fours = ({1: 1}, (1, 0, 0)), ({4: 1}, (0, 1, 0))
    pairs = [ones, ({2: 2}, (0, 1, 0)), ({3: 2}, (0, 0, 1))]
    rules = (
        CaseRule(0, [Cell((0, 0, 0))]),
        CaseRule(1, [Cell((1, 0, 0), {}, [ones])]),
        CaseRule(2, [
            Cell((0, 1, 0), {2: [0]}, pairs[:2]),
            Cell((0, 0, 1), {2: [1]}, pairs[:2]),
        ]),
        CaseRule(3, [
            Cell((0, 0, 0), {2: [0, 1], 3: [0]}, pairs),
            Cell((0, 0, 2), {2: [0], 3: [1]}, pairs),
            Cell((0, 0, 0), {2: [1], 3: [1]}, pairs),
        ]),
        CaseRule(4, [
            Cell((0, 0, 0), {3: [0, 1]}, [ones, fours, ({3: 2}, (0, 0, 1))]),
        ]),
        CaseRule(6, [
            Cell((0, 0, 0), {}, [ones, fours, ({6: 1}, (0, 0, 1))]),
        ]),
    )
    return RefinementStatement(
        "bigcomb", {}, MOD5_14, {1: "t", 4: "w", 6: "v"}, DIFF2, rules,
        "twvx14thm", {"x": 1},
    )


def _stmt_spec1():
    sevens = [({1: 7}, ())]
    rules = (
        CaseRule(0, [Cell(())]),
        # the one part, k_1 + 2, is even
        CaseRule(1, [Cell((), {1: [0]}, [({1: 2}, ())])]),
        CaseRule(2, [Cell((), {1: [1]})]),
        CaseRule(3, [Cell((), {1: [0, 1, 2, 5, 6], 3: [0]}, sevens)]),
        CaseRule(4, [
            Cell((), {1: [2, 3, 4], 3: [0, 1, 2], 4: [0]}, sevens),
        ]),
        CaseRule(5, [Cell((), {3: [0], 4: [0, 1]})]),
        CaseRule(8, [Cell((), {3: [0], 8: [0]})]),
    )
    return RefinementStatement(
        "spec1", {},
        PartitionClass.congruence(5, (2, 3), forbidden=(3, 8)),
        {}, DIFF2_STAR, rules, "spec1",
    )


def _stmt_spec2():
    rules = (
        CaseRule(0, []),
        CaseRule(5, [
            Cell((), {1: [0], 2: [0, 1, 2], 3: [0, 1, 2], 4: [0]}),
        ]),
        CaseRule(9, [Cell((), {1: [0], 4: [0], 6: [0], 9: [0]})]),
    )
    return RefinementStatement(
        "spec2", {},
        PartitionClass.congruence(5, (1, 4), forbidden=(1, 4, 6, 9)),
        {}, DIFF2, rules, "spec2", n_min=27,
    )


def _stmt_spec3():
    rules = (
        CaseRule(0, [Cell(())]),
        # the one part, k_1 + 2, is not 3
        CaseRule(1, [
            Cell((), {1: [0]}), Cell((), {1: [2]}, [({1: 1}, ())]),
        ]),
        CaseRule(2, [Cell((), {1: [1, 2, 4]}, [({1: 5}, ())])]),
        # k_2 >= k_3: k_3 = n_1 and k_2 = n_1 + n_2
        CaseRule(3, [Cell((), {}, [({2: 1, 3: 1}, ()), ({2: 1}, ())])]),
    )
    return RefinementStatement(
        "spec3", {},
        PartitionClass.congruence(5, (2, 3), forbidden=(3,), extra_allowed=(5,)),
        {}, DIFF2_STAR, rules, "spec3_firsttw",
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
