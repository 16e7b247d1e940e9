"""Refinement statements: counts, triple agreement and table reproduction."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (
    FunctionRule,
    UndeclaredImageReadError,
    WithTerms,
    count_diff_refined,
    count_product_refined,
    tally_per_n,
    tally_width,
)
from rrweights import combinatorics, partitions
from rrweights.combinatorics import (
    AmbiguousClassificationError,
    CaseRule,
    Cell,
    ClassificationGapError,
    ExtractionError,
    RefinementStatement,
    TableError,
    build_table,
    check_refinement,
    get_statement,
    series_counts,
    signature_reach,
    statements,
    table_csv,
    tally_bits,
    table_text,
)
from rrweights.identities import MAX_PARAM, expand_sum_side, get_entry
from rrweights.partitions import (
    DIFF2,
    Partition,
    PartitionClass,
    col,
    col_star,
    enumerate_class,
    partition_counts,
)
from rrweights.series import (
    FIELD_MASK,
    MAX_ORDER,
    MONO_T,
    MONO_V,
    MONO_X,
    FieldOverflowError,
    WeightPolynomial,
    VARIABLES,
    expand_packed,
    pack_monomial,
    rational_term,
    unpack_monomial,
)

GOLDEN = Path(__file__).parent / "golden"


def _stmt(statement_id, M=None):
    return get_statement(statement_id).instantiate(M)


def _swept_instances():
    return [
        pytest.param(entry.id, M, id=f"{entry.id}-{M}")
        for entry in statements()
        for M in entry.sweep(12)
    ]


def _decoded(stmt, per_n):
    """Packed per-n tallies keyed by signature tuples instead: entry i of a
    key is the exponent of the i-th watched variable, read with
    `unpack_monomial`.  Tuple keys (results that the reference explorer
    cannot pack) stay; no two keys of one tally may decode alike."""
    slots = [VARIABLES.index(v) for v in stmt.watched.values()]
    out = []
    for counts in per_n:
        decoded = {}
        for key, count in counts.items():
            if not isinstance(key, tuple):
                exps = unpack_monomial(key)
                assert not any(e for i, e in enumerate(exps) if i not in slots)
                key = tuple(exps[i] for i in slots)
            assert key not in decoded
            decoded[key] = count
        out.append(decoded)
    return out


def _gap2_leg(stmt, n_max):
    """The gap-2 class's terms (`_gap2_terms`) expanded alone, at the width
    their own majorant needs."""
    (diffs,) = expand_packed(
        ((combinatorics._gap2_terms(stmt, n_max), None),), n_max
    )
    return diffs


def _diff_per_n(stmt, n_max):
    """The gap-2 leg per n: {signature key: count}."""
    diffs = _gap2_leg(stmt, n_max)
    return tally_per_n(diffs.digits, diffs.width, n_max)


def _products_per_n(stmt, n_max):
    """The product leg per n."""
    _, _, products = series_counts(stmt, n_max)
    return tally_per_n(products.digits, products.width, n_max)


def _logged_calls(stmt, n_max):
    """(partial assignment, returned) for each call of the paper's rules
    made by the reference explorer over stmt's runs to n_max, in call
    order."""
    log = []

    def logged(classify):
        def call(image):
            key = (image.m, tuple(sorted(image.items())))
            try:
                sig = classify(image)
            except BaseException:
                log.append((key, False))
                raise
            log.append((key, True))
            return sig

        return call

    rules = reference.paper_rules(stmt)
    for m, top, claimed in reference.runs(stmt, n_max):
        (rule,) = [f for r, f in zip(stmt.rules, rules) if r is claimed]
        reference.explore(
            stmt, m, top, rule._replace(classify=logged(rule.classify)), n_max
        )
    return log


class TestProductCounts:
    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_counting_matches_enumeration(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        per_n = _decoded(stmt, _products_per_n(stmt, 30))
        for n in range(0, 31):
            assert per_n[n] == count_product_refined(stmt, n)

    def test_counting_matches_enumeration_on_broken_class(self):
        stmt = _stmt("firstbigcomb").replace(
            product_class=PartitionClass.congruence(5, (2, 4)),
        )
        per_n = _decoded(stmt, _products_per_n(stmt, 30))
        for n in range(0, 31):
            assert per_n[n] == count_product_refined(stmt, n)

    def test_firstbigcomb_n22_singletons(self):
        counts = count_product_refined(_stmt("firstbigcomb"), 22)
        assert len(counts) == 26
        assert all(v == 1 for v in counts.values())
        assert counts[(11, 0, 0)] == 1
        assert counts[(4, 2, 0)] == 1

    def test_n_zero(self):
        assert count_product_refined(_stmt("firstbigcomb"), 0) == {(0, 0, 0): 1}

    def test_generalminithm_restricted_count(self):
        counts = count_product_refined(_stmt("generalminithm", 2), 22)
        assert counts[(2,)] == 5


class TestDiffCounts:
    def test_bigcomb_n19(self):
        counts = count_diff_refined(_stmt("bigcomb"), 19)
        assert len(counts) == 26
        assert all(v == 1 for v in counts.values())
        assert counts[(1, 0, 3)] == 1  # (9,6,4) -> col (3^3,1)

    def test_n_zero(self):
        assert count_diff_refined(_stmt("bigcomb"), 0) == {(0, 0, 0): 1}

    def test_generalmini14thm_k3_members(self):
        stmt = _stmt("generalmini14thm", 3)
        counts = count_diff_refined(stmt, 23)
        assert counts[(3,)] == 4
        rows = build_table(stmt, 23, restrict=(3,))
        assert [r.lam.parts for r in rows] == [
            (20, 3), (19, 4), (19, 3, 1), (18, 4, 1),
        ]


class TestReplace:
    """`replace` builds each copy through __init__."""

    def test_statement_copy_classifies_with_its_own_rules(self):
        stmt = _stmt("firstbigcomb")
        count_diff_refined(stmt, 12)
        one_rule = stmt.replace(rules=(CaseRule(0, [Cell((9, 9, 9))]),))
        assert count_diff_refined(one_rule, 12) == {
            (9, 9, 9): len(enumerate_class(stmt.diff_class, 12))
        }
        assert count_diff_refined(stmt, 12) != count_diff_refined(one_rule, 12)

    def test_statement_copy_rederives_from_its_fields(self):
        stmt = _stmt("firstbigcomb")   # gap-2 without ones: col_star
        gap2 = stmt.replace(diff_class=DIFF2)
        assert (stmt._image, gap2._image) == (col_star, col)
        assert (stmt.base(3), gap2.base(3)) == (12, 9)
        assert gap2.rules is stmt.rules and gap2.id == stmt.id
        with pytest.raises(TypeError):
            stmt.replace(no_such_field=1)

    def test_case_rules_compare_by_fields(self):
        rule = _stmt("bigcomb").rules[2]
        same = rule.replace()
        assert same == rule and same is not rule
        with pytest.raises(TypeError):   # rules and cells do not hash
            hash(rule)
        with pytest.raises(TypeError):
            hash(rule.cells[0])
        assert rule.replace(lo=5) == CaseRule(5, rule.cells)
        assert rule.replace(lo=5) != rule
        rebuilt = [Cell(c.const, c.bases, c.gens) for c in rule.cells]
        assert CaseRule(rule.lo, rebuilt) == rule
        assert CaseRule(rule.lo, rebuilt[1:]) != rule


class TestDiffCounting:
    """The unlisted gap-2 counts against classifying the listed class."""

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_counting_matches_enumeration(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        per_n = _decoded(stmt, _diff_per_n(stmt, 40))
        for n in range(0, 41):
            assert per_n[n] == count_diff_refined(stmt, n)

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_explorer_classifies_no_assignment_twice(self, statement_id, M):
        # no partial assignment of image multiplicities is classified twice
        stmt = _stmt(statement_id, M)
        for n_max in (0, 1, 2, 9, 40, 100, 153):
            assignments = [key for key, _ in _logged_calls(stmt, n_max)]
            assert len(set(assignments)) == len(assignments), n_max

    def test_calls_over_the_sweep_to_60(self):
        stmts = [_stmt(entry.id, M) for entry in statements()
                 for M in entry.sweep(12)]
        assert len(stmts) == 19
        # spec2's rule for 0..4 parts is one run and one call; each other
        # one-part rule makes one call cut short by its read of the ones;
        # the counts are those of the paper's rules, explored as
        # refine-check explored them before its rules became cells
        calls = [_logged_calls(stmt, 60) for stmt in stmts]
        assert sum(map(len, calls)) == 25835
        assert sum(returned for log in calls for _, returned in log) == 23850

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_cells_miss_no_read(self, statement_id, M, monkeypatch):
        # every size the paper's rule for a part count reads through the
        # lazy image is a size of its cells
        reads = {}

        class LoggedImage(reference.LazyImage):
            __slots__ = ()

            def __missing__(self, s):
                reads.setdefault(self.m, set()).add(s)
                return super().__missing__(s)

        monkeypatch.setattr(reference, "LazyImage", LoggedImage)
        stmt = _stmt(statement_id, M)
        _logged_calls(stmt, 60)
        assert reads
        for m, sizes in reads.items():
            assert sizes <= reference.image_sizes(stmt.rule_for(m)), m

    def test_counting_matches_enumeration_with_other_rules(self):
        # rules of a different shape: parities and residues mod 3, and a
        # filter excluding some images, over claims split at other m; the
        # rule from 5 parts constrains 7, which 5 and 6 parts do not reach
        zero = (0, 0, 0)
        ones_mod_3 = [
            Cell((r, 0, 0), {1: [r]}, [({1: 3}, zero)]) for r in range(3)
        ]
        ones_parity = [
            Cell((r, 0, 0), {1: [r]}, [({1: 2}, zero), ({2: 1}, (0, 1, 0))])
            for r in range(2)
        ]
        three_sevens = [   # k_3 == 1 is excluded
            Cell(
                (r, 0, 0), {7: [r], 3: threes},
                [({7: 3}, zero), ({2: 1}, (0, 0, 1))] + more,
            )
            for r in range(3)
            for threes, more in (([0], []), ([2], [({3: 1}, zero)]))
        ]
        stmt = _stmt("firstbigcomb").replace(
            rules=(
                CaseRule(0, ones_mod_3),
                CaseRule(2, ones_parity),
                CaseRule(5, three_sevens),
            ),
        )
        per_n = _decoded(stmt, _diff_per_n(stmt, 40))
        for n in range(0, 41):
            assert per_n[n] == count_diff_refined(stmt, n)

    def test_undeclared_image_size_raises(self):
        # the reference explorer refuses a read of a size the paper's rule
        # does not declare
        stmt = _stmt("firstbigcomb")
        rules = [
            rule._replace(
                image_sizes=tuple(s for s in rule.image_sizes if s != 3)
            )
            for rule in reference.paper_rules(stmt)
        ]
        with pytest.raises(
            UndeclaredImageReadError,
            match=r"^firstbigcomb: a case rule for 3 parts reads the "
            r"multiplicity of 3, which image_sizes does not declare$",
        ):
            reference.explored_tally(stmt, 30, tally_width(30), rules)

    def test_one_part_rule_reading_undeclared_size_raises(self):
        # the one part is read through the image too, so an undeclared
        # read raises for 1 part as for any other count
        stmt = _stmt("bigcomb")
        rules = [
            rule._replace(image_sizes=()) if rule.lo == 1 else rule
            for rule in reference.paper_rules(stmt)
        ]
        with pytest.raises(
            UndeclaredImageReadError,
            match=r"^bigcomb: a case rule for 1 parts reads the multiplicity "
            r"of 1, which image_sizes does not declare$",
        ):
            reference.explored_tally(stmt, 30, tally_width(30), rules)


# Rule lists that cannot be read as claiming each part count once: each
# rule claims from its own lo up to the next rule's; firstbigcomb's rules
# claim from 0, 1, 2, 3, 4 and 7 parts.
REFUSED_RULES = [
    pytest.param(
        lambda r: (r[0], r[2], r[1]) + r[3:],
        AmbiguousClassificationError,
        "the case rule from 1 parts follows the one from 2 parts",
        id="out-of-order",
    ),
    pytest.param(
        lambda r: r[:3] + (r[3].replace(lo=2),) + r[4:],
        AmbiguousClassificationError,
        "the case rule from 2 parts follows the one from 2 parts",
        id="repeated-lo",
    ),
    pytest.param(
        lambda r: r + (CaseRule(1),),
        AmbiguousClassificationError,
        "the case rule from 1 parts follows the one from 7 parts",
        id="rule-after-open-ended",
    ),
    pytest.param(
        lambda r: r[1:], ClassificationGapError,
        "no case rule claims from 0 parts", id="first-lo-not-0",
    ),
    pytest.param(
        lambda r: (r[0].replace(lo=-1),) + r[1:], ClassificationGapError,
        "no case rule claims from 0 parts", id="negative-lo",
    ),
    pytest.param(
        lambda r: (), ClassificationGapError,
        "no case rule claims from 0 parts", id="empty",
    ),
]


class TestCaseRuleClaims:
    """A statement is built only when its rules start at 0 parts and each
    starts above the one before it."""

    def test_every_instance_builds(self):
        # every admissible M up to MAX_PARAM
        stmts = [
            entry.instantiate(M)
            for entry in statements() for M in entry.sweep(MAX_PARAM)
        ]
        assert len(stmts) == 142
        for stmt in stmts:
            starts = [rule.lo for rule in stmt.rules]
            assert starts[0] == 0 and starts == sorted(set(starts))

    def test_empty_range_claims_nothing(self):
        # generalminithm at M=1 leaves out its rule for 2..M parts
        stmt = _stmt("generalminithm", 1)
        assert [r.lo for r in stmt.rules] == [0, 1, 2]
        assert [stmt.rule_for(m) for m in (0, 1, 2, 9)] == [
            stmt.rules[0], stmt.rules[1], stmt.rules[2], stmt.rules[2],
        ]

    @pytest.mark.parametrize("edit,error,message", REFUSED_RULES)
    def test_refused_when_built(self, edit, error, message):
        stmt = _stmt("firstbigcomb")
        rules = edit(stmt.rules)
        message = rf"^firstbigcomb: {re.escape(message)}$"
        with pytest.raises(error, match=message) as got:
            stmt.replace(rules=rules)
        assert got.type is error
        with pytest.raises(error, match=message):
            RefinementStatement(
                stmt.id, stmt.params, stmt.product_class, stmt.watched,
                stmt.diff_class, rules, stmt.linked_id,
            )

    def test_check_lists_no_partition(self, monkeypatch):
        # the swept statements pass at 60 with listing and col unavailable
        def listing(*args):
            raise AssertionError("a partition class was listed")

        for module in (partitions, combinatorics):
            for name in ("enumerate_class", "col", "col_star"):
                monkeypatch.setattr(module, name, listing)
        stmts = [entry.instantiate(M) for entry in statements()
                 for M in entry.sweep(12)]
        assert len(stmts) == 19
        for stmt in stmts:
            report = check_refinement(stmt, 60)
            assert report.ok, report.text_line()


# The eager classifier that the lazy explorer (`reference.count_images`)
# replaced, kept as the explorer's own oracle: it fixes every declared
# multiplicity before each rule call.

class _EagerImage:
    __slots__ = ("label", "m", "declared", "counts")

    def __init__(self, label, m, declared):
        self.label, self.m, self.declared, self.counts = label, m, declared, {}

    def multiplicity(self, s):
        if s not in self.declared:
            raise UndeclaredImageReadError(
                f"{self.label}: a case rule for {self.m} parts reads the "
                f"multiplicity of {s}, which image_sizes does not declare"
            )
        if s > self.m:
            return 0
        return self.counts[s]


def _multiplicity_vectors(sizes, budget):
    if not sizes:
        yield (), 0
        return
    *rest, s = sizes
    for vector, w in _multiplicity_vectors(rest, budget):
        for k in range((budget - w) // s + 1):
            yield vector + (k,), w + k * s


def _eager_image_counts(stmt, m, rule, n_max):
    """Per n <= n_max: signature -> members with m parts, one rule call per
    multiplicity vector of the declared sizes <= m."""
    base = stmt.base(m)
    budget = n_max - base
    declared = sorted({s for s in rule.image_sizes if s <= m})
    free = [s for s in range(1, m + 1) if s not in declared]
    image = _EagerImage(stmt.label(), m, rule.image_sizes)
    by_sig = {}
    for vector, w in _multiplicity_vectors(declared, budget):
        image.counts = dict(zip(declared, vector))
        sig = rule.classify(image)
        if sig is not None:
            totals = by_sig.setdefault(sig, {})
            totals[w] = totals.get(w, 0) + 1
    fills = partition_counts(free, budget)
    per_n = [{} for _ in range(n_max + 1)]
    for sig, totals in by_sig.items():
        for w, count in totals.items():
            for k in range(budget - w + 1):
                if fills[k]:
                    counts = per_n[base + w + k]
                    counts[sig] = counts.get(sig, 0) + count * fills[k]
    return per_n


def _lazy_image_counts(stmt, m, rule, n_max):
    width, tally = tally_width(n_max), {}
    reference.count_images(stmt, m, rule, tally, n_max, width)
    return _decoded(stmt, tally_per_n(tally, width, n_max))


def _outcome(count, stmt, m, rule, n_max):
    try:
        return count(stmt, m, rule, n_max)
    except UndeclaredImageReadError as exc:
        return str(exc)


def _program_rule(ops, parts, image_sizes):
    """A function rule declaring `image_sizes` and reading image multiplicities
    in the order of `ops`.

    Each op (size, modulus, residue) reads one multiplicity; with a modulus
    it returns None at once when the value is that residue.  Each signature
    component is a weighted sum of values read, reduced by a modulus.
    """
    def classify(image):
        values = []
        for size, modulus, residue in ops:
            value = image.multiplicity(size)
            if modulus and value % modulus == residue:
                return None
            values.append(value)
        return tuple(
            sum(c * values[j] for j, c in picks if j < len(values)) % modulus
            for picks, modulus in parts
        )

    return FunctionRule(0, classify, image_sizes)


@st.composite
def _programs(draw, undeclared=False):
    stmt = _stmt(draw(st.sampled_from(["firstbigcomb", "bigcomb"])))
    m = draw(st.integers(1, 5))
    declared = draw(st.sets(st.integers(1, m + 2), max_size=4))
    readable = sorted({s for s in declared if s <= m} | {m + 1, m + 3})
    op = st.tuples(
        st.sampled_from(readable), st.integers(0, 3), st.integers(0, 2)
    )
    ops = draw(st.lists(op, max_size=5))
    if undeclared:
        missing = [s for s in range(1, m + 1) if s not in declared]
        if not missing:
            declared.discard(m)
            missing = [m]
        at = draw(st.integers(0, len(ops)))
        ops.insert(at, (draw(st.sampled_from(missing)), 0, 0))
    pick = st.tuples(st.integers(0, 5), st.integers(1, 3))
    parts = draw(st.lists(
        st.tuples(st.lists(pick, max_size=3), st.integers(2, 50)), max_size=3
    ))
    n_max = stmt.base(m) + draw(st.integers(0, 24))
    rule = _program_rule(ops, parts, tuple(sorted(declared | {m + 1, m + 3})))
    return stmt, m, rule, n_max


def _eager_run_counts(stmt, first, top, rule, n_max):
    """The members with first..top parts, one m at a time, by the eager
    classifier; the first error in m order is raised."""
    per_n = [{} for _ in range(n_max + 1)]
    for m in range(first, top + 1):
        for total, counts in zip(per_n, _eager_image_counts(stmt, m, rule, n_max)):
            for sig, count in counts.items():
                total[sig] = total.get(sig, 0) + count
    return per_n


def _lazy_run_counts(stmt, first, top, rule, n_max):
    width, tally = tally_width(n_max), {}
    reference.count_images(stmt, first, rule, tally, n_max, width, top)
    return _decoded(stmt, tally_per_n(tally, width, n_max))


@st.composite
def _run_programs(draw):
    """A rule over a run first..top: reads of declared sizes up to first
    and past top, perhaps one read of an undeclared size inside the run
    and one of an undeclared size up to first."""
    stmt = _stmt(draw(st.sampled_from(["firstbigcomb", "bigcomb"])))
    first = draw(st.integers(1, 4))
    top = first + draw(st.integers(0, 3))
    declared = draw(st.sets(st.integers(1, first), max_size=3)) | draw(
        st.sets(st.integers(top + 1, top + 3), max_size=2)
    )
    inside = list(range(first + 1, top + 1))
    below = [s for s in range(1, first + 1) if s not in declared]
    readable = sorted(declared | {top + 1})
    op = st.tuples(
        st.sampled_from(readable), st.integers(0, 3), st.integers(0, 2)
    )
    ops = draw(st.lists(op, max_size=5))
    if below and draw(st.booleans()):
        at = draw(st.integers(0, len(ops)))
        ops.insert(at, (draw(st.sampled_from(below)), 0, 0))
    pick = st.tuples(st.integers(0, 5), st.integers(1, 3))
    parts = draw(st.lists(
        st.tuples(st.lists(pick, max_size=3), st.integers(2, 50)), max_size=3
    ))
    n_max = stmt.base(top) + draw(st.integers(0, 12))
    rule = _program_rule(ops, parts, tuple(sorted(declared)))
    if inside and draw(st.booleans()):
        low = sorted(s for s in declared if s <= first)
        size = draw(st.sampled_from(inside))
        budget = n_max - stmt.base(first)
        gate = draw(
            st.integers(0, budget)
            | st.integers(n_max - stmt.base(size) + 1, budget)
        )
        rule = _gated_read(rule, low, size, gate)
    return stmt, first, top, rule, n_max


def _gated_read(rule, low, size, gate):
    """The rule, after reading `size` when the sizes `low` weigh >= gate.

    A gate above n_max - base(size) reads `size` only where no member of
    size or more parts fits, yet the read raises at the run's first part
    count, as for one m at a time.
    """
    def classify(image):
        if sum(s * image.multiplicity(s) for s in low) >= gate:
            image.multiplicity(size)
        return rule.classify(image)

    return rule._replace(classify=classify)


class TestLazyClassification:
    """The reference explorer branches on reads; the eager classifier is
    its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_programs())
    def test_matches_eager_classifier(self, program):
        stmt, m, rule, n_max = program
        assert _lazy_image_counts(stmt, m, rule, n_max) == _eager_image_counts(
            stmt, m, rule, n_max
        )

    @settings(max_examples=150, deadline=None)
    @given(_programs(undeclared=True))
    def test_undeclared_read_raises_as_eager(self, program):
        stmt, m, rule, n_max = program
        lazy = _outcome(_lazy_image_counts, stmt, m, rule, n_max)
        assert lazy == _outcome(_eager_image_counts, stmt, m, rule, n_max)

    @settings(max_examples=300, deadline=None)
    @given(_run_programs())
    def test_run_matches_eager_classifier_per_part_count(self, program):
        # one exploration for the run against the sum over m: the same
        # counts or the same error, raised at the run's first part count
        stmt, first, top, rule, n_max = program

        def outcome(count):
            try:
                return count(stmt, first, top, rule, n_max)
            except UndeclaredImageReadError as exc:
                return str(exc)

        assert outcome(_lazy_run_counts) == outcome(_eager_run_counts)

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_swept_rules_match_eager_classifier(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        m = 0
        while stmt.base(m) <= 60:
            rule = reference.rule_for(reference.paper_rules(stmt), m)
            assert _lazy_image_counts(stmt, m, rule, 60) == _eager_image_counts(
                stmt, m, rule, 60
            ), m
            m += 1

    def test_one_result_under_two_fixed_sets(self):
        # (0,) is reached with {1} fixed (even ones) and with {1, 2} fixed
        # (odd ones, even twos), at several totals under each
        def rule(image):
            ones = image.multiplicity(1)
            if ones % 2 == 0:
                return (0,)
            return (image.multiplicity(2) % 2,)

        stmt = _stmt("generalminithm", 2)
        rule = FunctionRule(0, rule, (1, 2))
        leaves = reference.explore(stmt, 3, 3, rule, 40)
        assert len(leaves[frozenset({1})][(0,)]) > 1
        assert len(leaves[frozenset({1, 2})][(0,)]) > 1
        assert _lazy_image_counts(stmt, 3, rule, 40) == _eager_image_counts(
            stmt, 3, rule, 40
        )

    def test_undeclared_read_inside_a_run_raises_at_its_first(self):
        # the run 2..5 reads the undeclared 4 once the ones weigh 20 or
        # more, which no member with 4 parts reaches at n_max 30 (base(4)
        # is 20); the read raises for 2 parts all the same
        def rule(image):
            ones = image.multiplicity(1)
            if ones >= 20:
                image.multiplicity(4)
            return (ones % 2,)

        stmt = _stmt("generalminithm", 2)
        assert stmt.base(4) == 20
        rule = FunctionRule(0, rule, (1,))
        with pytest.raises(
            UndeclaredImageReadError,
            match=r"^generalminithm\[M=2\]: a case rule for 2 parts reads the "
            r"multiplicity of 4, which image_sizes does not declare$",
        ):
            _lazy_run_counts(stmt, 2, 5, rule, 30)

    def test_rule_catching_exceptions_still_branches(self):
        def guarded(image):
            try:
                return (image.multiplicity(1) % 3, image.multiplicity(2))
            except Exception:
                return None

        stmt = _stmt("bigcomb")
        rule = FunctionRule(0, guarded, (1, 2))
        lazy = _lazy_image_counts(stmt, 3, rule, 40)
        assert lazy == _eager_image_counts(stmt, 3, rule, 40)
        assert sum(sum(counts.values()) for counts in lazy) > 0


_SIGNATURE = st.tuples(*[st.integers(0, 2)] * 3)


@st.composite
def _cell_statements(draw):
    """A statement with one rule of random cells for every part count, and
    an n_max.  The cells share out the residues of one size s0 mod p, so
    that no two overlap; each also constrains up to two other sizes, by
    exact values or by base values with a period, or both by one two-size
    generator followed by a generator of one of them (as spec3's k_2 >=
    k_3).  The runs split at the sizes, and a size above a run's part
    counts occurs 0 times there."""
    stmt = _stmt(draw(st.sampled_from(["firstbigcomb", "bigcomb"])))
    sizes = range(1, 7)
    s0 = draw(st.sampled_from(sizes))
    others = [s for s in sizes if s != s0]
    p = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(-1, 2), min_size=p, max_size=p))
    cells = []
    for owner in range(3):
        residues = [r for r in range(p) if owners[r] == owner]
        if not residues:
            continue
        bases = {s0: residues}
        gens = [({s0: p}, draw(_SIGNATURE))]
        chosen = draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
        if len(chosen) == 2 and draw(st.booleans()):
            a, b = chosen
            step = {a: draw(st.integers(1, 2)), b: draw(st.integers(1, 2))}
            gens += [(step, draw(_SIGNATURE)), ({a: 1}, draw(_SIGNATURE))]
        else:
            for s in chosen:
                if draw(st.booleans()):   # exact values
                    bases[s] = draw(st.lists(
                        st.integers(0, 3), unique=True, min_size=1, max_size=3
                    ))
                    continue
                period = draw(st.integers(1, 3))
                bases[s] = [   # one value per residue, perhaps past it
                    r + period * draw(st.integers(0, 1))
                    for r in draw(st.lists(
                        st.integers(0, period - 1), unique=True, min_size=1
                    ))
                ]
                gens.append(({s: period}, draw(_SIGNATURE)))
        cells.append(Cell(draw(_SIGNATURE), bases, gens))
    stmt = stmt.replace(rules=(CaseRule(0, cells),))
    return stmt, draw(st.integers(0, 45))


class TestCells:
    """The cells against the paper's rules and the reference explorer."""

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_classify_matches_paper_rules(self, statement_id, M):
        # on every col image with n <= 40, and no image lies in two cells
        stmt = _stmt(statement_id, M)
        paper = reference.paper_rules(stmt)
        assert [(r.lo, reference.image_sizes(r)) for r in stmt.rules] == [
            (f.lo, set(f.image_sizes)) for f in paper
        ]
        for n in range(41):
            for lam in enumerate_class(stmt.diff_class, n):
                m = len(lam.parts)
                i = stmt.rules.index(stmt.rule_for(m))
                image = stmt._image(lam)
                assert stmt.rules[i].classify(image) == (
                    paper[i].classify(image)
                ), lam
                cells = stmt.rules[i].cells
                assert sum(c.match(image) is not None for c in cells) <= 1, lam

    @settings(max_examples=200, deadline=None)
    @given(_cell_statements())
    def test_generating_functions_match_explorer(self, program):
        # the gap-2 leg against the explorer over the derived classify
        stmt, n_max = program
        diffs = _gap2_leg(stmt, n_max)
        assert diffs.digits == reference.explored_tally(
            stmt, n_max, diffs.width, reference.function_rules(stmt)
        )
        # and the statement is decided alike on cleared numerators
        assert check_refinement(stmt, n_max).ok == _expanded_verdict(
            stmt, n_max
        )


def _watching_2_and_3(stmt, picks=(0, 1)):
    """firstbigcomb watching only the sizes 2 and 3, by t and w, its cells'
    signatures cut to their entries at `picks`."""
    def cut(sig):
        return tuple(sig[i] for i in picks)

    rules = tuple(
        rule.replace(cells=[
            Cell(
                cut(cell.const), cell.bases,
                [(step, cut(incr)) for step, incr in cell.gens],
            )
            for cell in rule.cells
        ])
        for rule in stmt.rules
    )
    return stmt.replace(watched={2: "t", 3: "w"}, rules=rules)


def _series_per_n(stmt, order):
    sums, _, _ = series_counts(stmt, order)
    return tally_per_n(sums.digits, sums.width, order)


class TestSeriesExtraction:
    def test_variable_outside_watched_raises(self):
        stmt = _stmt("firstbigcomb")
        spec = get_entry(stmt.linked_id).instantiate()
        series = expand_sum_side(spec, 40)
        first = next(
            n for n in range(41)
            if any(unpack_monomial(mono)[2] for mono in series.coeffs[n].terms)
        )
        no_v = _watching_2_and_3(stmt)
        message = (
            rf"^firstbigcomb: unexpected weight variable in coefficient of "
            rf"q\^{first}$"
        )
        with pytest.raises(ExtractionError, match=message):
            series_counts(no_v, 40)
        with pytest.raises(ExtractionError, match=message):
            check_refinement(no_v, 40)

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_matches_unpacked_extraction(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        spec = get_entry(stmt.linked_id).instantiate(M)
        if stmt.linked_subs:
            spec = spec.substituted(stmt.linked_subs)
        slots = ["twvx".index(v) for v in stmt.watched.values()]
        want = []
        for coeff in expand_sum_side(spec, 60).coeffs:
            counts = {}
            for mono, c in coeff.terms.items():
                exps = unpack_monomial(mono)
                assert not any(e for i, e in enumerate(exps) if i not in slots)
                sig = tuple(exps[i] for i in slots)
                counts[sig] = counts.get(sig, 0) + c
            want.append(counts)
        assert _decoded(stmt, _series_per_n(stmt, 60)) == want


class TestTripleAgreement:
    @pytest.mark.parametrize(
        "statement_id,M",
        [
            ("generalminithm", 2), ("generalmini14thm", 3),
            ("general2partcor", 7), ("general2part14cor", 4),
            ("firstbigcomb", None), ("bigcomb", None),
            ("spec1", None), ("spec2", None), ("spec3", None),
        ],
    )
    def test_statement_passes(self, statement_id, M):
        report = check_refinement(_stmt(statement_id, M), 32)
        assert report.ok, report.text_line()

    @pytest.mark.parametrize(
        "statement_id,M", [("generalminithm", 1), ("generalmini14thm", 3)]
    )
    def test_statement_passes_deep(self, statement_id, M):
        report = check_refinement(_stmt(statement_id, M), 300)
        assert report.ok, report.text_line()

    @pytest.mark.parametrize("statement_id", ["firstbigcomb", "bigcomb"])
    def test_statement_passes_at_100(self, statement_id):
        # firstbigcomb's rules claim runs 4..6 and 7.., bigcomb's 4..5 and 6..
        report = check_refinement(_stmt(statement_id), 100)
        assert report.ok, report.text_line()

    @pytest.mark.parametrize("statement_id", ["firstbigcomb", "bigcomb"])
    def test_statement_passes_at_140(self, statement_id):
        # in-process at depth, where the spread is widest; the CLI golden
        # runs all 19 statements to 153
        report = check_refinement(_stmt(statement_id), 140)
        assert report.ok, report.text_line()

    def test_empty_range_raises(self):
        with pytest.raises(ValueError, match=r"^spec2 needs n_max >= 27, got 26$"):
            check_refinement(_stmt("spec2"), 26)

    def test_injected_fault_breaks_agreement(self):
        stmt = _stmt("firstbigcomb")
        broken = stmt.replace(
            product_class=PartitionClass.congruence(5, (2, 4))
        )
        report = check_refinement(broken, 12)
        assert not report.ok
        assert report.failure == (
            "n=3 signature (0, 1, 0): product 0 vs case rules 1"
        )

    def test_series_leg_counts(self):
        stmt = _stmt("firstbigcomb")
        per_n = _decoded(stmt, _series_per_n(stmt, 22))
        assert per_n[22][(11, 0, 0)] == 1
        assert sum(per_n[22].values()) == 26

    def test_spec3_melded_parts_counts(self):
        # partitions into {2,3 mod 5} plus 5's minus 3's vs the filtered
        # gap-2 class: equality is the product-vs-rules legs at each n
        stmt = _stmt("spec3")
        for n in range(0, 41):
            assert count_product_refined(stmt, n) == count_diff_refined(stmt, n)

    def test_spec2_explicit_terms_bounded_by_q26(self):
        from rrweights.identities import get_entry

        spec = get_entry("spec2").instantiate()
        polynomial_terms = [t for t in spec.sum_terms if not t.denominator]
        assert polynomial_terms
        top = max(t.q_shift + max(t.numerator) for t in polynomial_terms)
        assert top <= 26


def _with_rule(stmt, lo, cells):
    """The statement with the cells of its case rule from `lo` parts
    replaced."""
    return stmt.replace(rules=tuple(
        rule.replace(cells=cells) if rule.lo == lo else rule
        for rule in stmt.rules
    ))


def _swapped_general2partcor():
    # the rule for 3..6 parts gives (2-count, 1-count // 7) for
    # (1-count // 7, 2-count)
    return _with_rule(
        _stmt("general2partcor", 7), 3,
        [Cell((0, 0), {1: range(7)}, [({2: 1}, (1, 0)), ({1: 7}, (0, 1))])],
    )


def _moved_residue_firstbigcomb():
    # the 3-part cell of ones = 4 mod 7 joins that of 3 mod 7
    by_7 = _stmt("firstbigcomb").rules[3].cells[0].gens
    return _with_rule(_stmt("firstbigcomb"), 3, [
        Cell((0, 0, 2), {1: [2]}, by_7),
        Cell((0, 0, 1), {1: [3, 4]}, by_7),
        Cell((0, 0, 0), {1: [0, 1, 5, 6]}, by_7),
    ])


def _overlapping_cells_firstbigcomb():
    # the 3-part cell of ones = 3 mod 7 also takes 4 mod 7, which the cell
    # of (0, 0, 0) keeps
    by_7 = _stmt("firstbigcomb").rules[3].cells[0].gens
    return _with_rule(_stmt("firstbigcomb"), 3, [
        Cell((0, 0, 2), {1: [2]}, by_7),
        Cell((0, 0, 1), {1: [3, 4]}, by_7),
        Cell((0, 0, 0), {1: [0, 1, 4, 5, 6]}, by_7),
    ])


# The FAIL lines the tuple-keyed tallies printed for these perturbations,
# and one for a moved residue.
GOLDEN_FAILURES = [
    pytest.param(
        lambda: _with_rule(   # (k_1 + 1) // 3
            _stmt("generalminithm", 2), 2, [
                Cell((0,), {1: [0, 1]}, [({1: 3}, (1,))]),
                Cell((1,), {1: [2]}, [({1: 3}, (1,))]),
            ],
        ),
        "FAIL generalminithm[M=2]: n=8 signature (0,): product 2 vs case "
        "rules 1",
        id="product-vs-rules",
    ),
    pytest.param(
        lambda: _stmt("generalminithm", 2).replace(params={"M": 6}),
        "FAIL generalminithm[M=6]: n=3 signature (0,): case rules 0 vs "
        "series 1",
        id="rules-vs-series",
    ),
    pytest.param(
        _swapped_general2partcor,
        "FAIL general2partcor[M=7]: n=14 signature (0, 1): product 2 vs case "
        "rules 1",
        id="general2partcor",
    ),
    pytest.param(
        _moved_residue_firstbigcomb,
        "FAIL firstbigcomb: n=16 signature (0, 0, 0): product 1 vs case "
        "rules 0",
        id="moved-residue",
    ),
]


class TestPackedSignatures:
    """A signature's key is the sum side's monomial for it; FAIL lines
    print signature tuples as before."""

    @pytest.mark.parametrize("perturbed,line", GOLDEN_FAILURES)
    def test_failure_lines_unchanged(self, perturbed, line):
        assert check_refinement(perturbed(), 60).text_line() == line

    def test_overlapping_cells_fail(self):
        # (10,4,2), n = 16, has the least image in two cells, 1^4; the
        # gap-2 leg counts it in each
        stmt = _overlapping_cells_firstbigcomb()
        image = col_star(Partition((10, 4, 2)))
        assert [cell.match(image) for cell in stmt.rules[3].cells] == [
            None, (0, 0, 1), (0, 0, 0),
        ]
        assert check_refinement(stmt, 60).text_line() == (
            "FAIL firstbigcomb: n=16 signature (0, 0, 1): product 0 vs case "
            "rules 1"
        )

    def test_two_base_values_reaching_one_image_fail(self):
        # the ones of 4..6 parts take the base values 0..7: k_1 = 7 is the
        # base value 7 and the base value 0 plus one step {1: 7}, and the
        # gap-2 leg counts its images under both
        stmt = _stmt("firstbigcomb")
        (cell,) = stmt.rules[4].cells
        stmt = _with_rule(
            stmt, 4, [Cell(cell.const, {1: range(8)}, cell.gens)]
        )
        assert check_refinement(stmt, 60).text_line() == (
            "FAIL firstbigcomb: n=27 signature (0, 0, 0): product 1 vs case "
            "rules 2"
        )

    def test_first_difference_sorts_as_tuples(self):
        # w is the lower field of ("w", "t"): packed order reads t first
        stmt = _swapped_general2partcor()
        products = _products_per_n(stmt, 14)[14]
        diffs = _diff_per_n(stmt, 14)[14]
        differing = [
            key for key in products.keys() | diffs.keys()
            if products.get(key, 0) != diffs.get(key, 0)
        ]
        assert stmt.signature(min(differing)) == (1, 0)
        assert min(map(stmt.signature, differing)) == (0, 1)

    def test_key_is_the_monomial(self):
        stmt = _stmt("general2partcor", 7)   # watched {7: "w", 2: "t"}
        key = combinatorics._pack((2, 3), stmt._units)
        assert key == pack_monomial(t=3, w=2)
        assert stmt.signature(key) == (2, 3)
        assert combinatorics._pack((FIELD_MASK, 0), stmt._units) == (
            pack_monomial(w=FIELD_MASK)
        )

    @pytest.mark.parametrize(
        "cell,message",
        [
            (Cell((1.0,)), "has the value 1.0, not an int >= 0"),
            (Cell((-1,)), "has the value -1, not an int >= 0"),
            (Cell((True,)), "has the value True, not an int >= 0"),
            (Cell((0,), {1: [0.0]}), "has the value 0.0, not an int >= 0"),
            (Cell((0,), {1: [-1]}), "has the value -1, not an int >= 0"),
            (Cell((0,), {}, [({1: 2.0}, (1,))]),
             "has the value 2.0, not an int >= 0"),
            (Cell((0,), {}, [({1: 1}, (-1,))]),
             "has the value -1, not an int >= 0"),
            (Cell((0, 0)), r"has the signature \(0, 0\), not 1 long"),
            (Cell((0,), {}, [({1: 1}, ())]),
             r"has the signature \(\), not 1 long"),
            (Cell((0,), {}, [({1: 1}, (1,)), ({1: 2}, (0,))]),
             r"has the generator \{1: 1\} without a pivot size"),
            (Cell((0,), {}, [({1: 0}, (1,))]),
             r"has the generator \{1: 0\} without a pivot size"),
            (Cell((0,), {}, [({}, (1,))]),
             r"has the generator \{\} without a pivot size"),
        ],
        ids=[
            "float", "negative", "bool", "float-base", "negative-base",
            "float-step", "negative-increment", "long", "short-increment",
            "pivot-taken-later", "zero-step", "empty-step",
        ],
    )
    def test_bad_cells_are_refused(self, cell, message):
        # a float or bool equal to an int, or a negative entry that would
        # borrow from the next field, never reaches a packed key
        with pytest.raises(
            ValueError,
            match=rf"^generalminithm\[M=2\]: the case rule from 2 parts "
            rf"{message}$",
        ):
            _with_rule(_stmt("generalminithm", 2), 2, [cell])

    def test_signature_reach_refuses_a_passing_field(self):
        # (k_1 // 3) + FIELD_MASK - 13 reaches FIELD_MASK + 1 at k_1 = 42,
        # a member with 2 parts of n = 46
        stmt = _with_rule(
            _stmt("generalminithm", 2), 2,
            [Cell((FIELD_MASK - 13,), {1: range(3)}, [({1: 3}, (1,))])],
        )
        assert signature_reach(stmt, 41) == FIELD_MASK
        assert check_refinement(stmt, 41).ok is False
        assert signature_reach(stmt, 42) == FIELD_MASK + 1
        with pytest.raises(
            ValueError,
            match=rf"^generalminithm\[M=2\]: a signature entry could reach "
            rf"{FIELD_MASK + 1} by n=42, above {FIELD_MASK}$",
        ):
            check_refinement(stmt, 42)

    def test_shipped_statements_stay_in_their_fields(self):
        for entry in statements():
            for M in entry.sweep(40):
                stmt = entry.instantiate(M)
                assert signature_reach(stmt, MAX_ORDER) <= FIELD_MASK

    @pytest.mark.parametrize(
        "watched",
        [{7: "t", 2: "t"}, {7: "w", 2: "z"}],
        ids=["repeated-variable", "unknown-variable"],
    )
    def test_bad_watched_map_is_refused(self, watched):
        with pytest.raises(
            ValueError,
            match=rf"^general2partcor\[M=7\]: watched "
            rf"{re.escape(str(watched))} does not give each size its own "
            r"variable of t, w, v, x$",
        ):
            _stmt("general2partcor", 7).replace(watched=watched)

    @pytest.mark.parametrize("size", ["1", 0], ids=["str", "zero"])
    def test_image_sizes_must_be_positive_ints(self, size):
        with pytest.raises(
            ValueError,
            match=rf"^generalminithm\[M=2\]: the case rule from 2 parts "
            rf"declares image size {size!r}, not an int >= 1$",
        ):
            _with_rule(_stmt("generalminithm", 2), 2, [Cell((0,), {size: [0]})])


class TestRuleAgainstSeries:
    def test_three_part_ones_rule_matches_numerator(self):
        # coefficient of q^ones in (1+q+v^2 q^2+v q^3+q^4+q^5+q^6)/(1-v q^7)
        # must be v^(rule's count) for every ones value
        stmt = _stmt("firstbigcomb")
        rule = next(r for r in stmt.rules if r.lo == 3)   # 3 parts only
        from rrweights.series import WeightPolynomial

        V = WeightPolynomial.variable("v")
        term = rational_term(
            0, {0: 1, 1: 1, 2: V * V, 3: V, 4: 1, 5: 1, 6: 1}, ((MONO_V, 7),)
        )
        series = term.expand(60)
        for ones in range(61):
            coeff = series.coeffs[ones]
            assert len(coeff.terms) == 1
            ((mono, c),) = coeff.terms.items()
            assert c == 1
            expected_ell = unpack_monomial(mono)[2]
            image = Partition((3,) * 0 + (1,) * ones if ones else ())
            got = rule.classify(image)
            assert got == (0, 0, expected_ell)


class TestTables:
    @pytest.mark.parametrize(
        "statement_id,M,n,restrict,golden",
        [
            ("generalminithm", 2, 22, (2,), "table_generalminithm_M3_k2_n22.csv"),
            ("generalmini14thm", 3, 23, (3,), "table_generalmini14thm_M4_k3_n23.csv"),
            ("firstbigcomb", None, 22, None, "table_firstbigcomb_n22.csv"),
            ("bigcomb", None, 19, None, "table_bigcomb_n19.csv"),
            ("general2partcor", 7, 24, None, "table_general2partcor_M7_n24.csv"),
            ("general2part14cor", 4, 20, None,
             "table_general2part14cor_M4_n20.csv"),
        ],
    )
    def test_golden_tables(self, statement_id, M, n, restrict, golden):
        rows = build_table(_stmt(statement_id, M), n, restrict=restrict)
        want = (GOLDEN / golden).read_text(encoding="utf-8")
        assert table_csv(rows) == want

    def test_row_invariants(self):
        for row in build_table(_stmt("bigcomb"), 19):
            assert row.mu.size == row.lam.size == 19
            watched = (1, 4, 6)
            assert row.signature == tuple(
                row.mu.multiplicity(s) for s in watched
            )

    def test_rows_sorted_by_decreasing_mu(self):
        rows = build_table(_stmt("firstbigcomb"), 22)
        keys = [r.mu.parts for r in rows]
        assert keys == sorted(keys, reverse=True)

    def test_text_format_shape(self):
        rows = build_table(_stmt("bigcomb"), 19)
        text = table_text(rows)
        lines = text.splitlines()
        assert lines[0].startswith("mu")
        assert len(lines) == 27
        assert text == table_text(rows)  # deterministic

    def test_unpaired_signature_raises(self):
        stmt = _stmt("firstbigcomb")
        broken = _watching_2_and_3(stmt, picks=(0, 2))
        # the product class splits by the 2- and 3-counts, the case rules
        # still by the 2- and 7-counts, so some class sizes cannot match
        with pytest.raises(TableError):
            build_table(broken, 22)


class TestStatementCatalog:
    def test_sweeps(self):
        by_id = {e.id: e for e in statements()}
        assert [M + 1 for M in by_id["generalminithm"].sweep(12)] == [2, 3, 7, 8, 12]
        assert by_id["general2partcor"].sweep(12) == [7, 8, 12]
        assert by_id["general2part14cor"].sweep(12) == [4, 6]
        assert by_id["bigcomb"].sweep(12) == [None]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            get_statement("general2partcor").instantiate(5)
        with pytest.raises(ValueError):
            get_statement("bigcomb").instantiate(4)


class TestPackedTallies:
    """The packed gap-2 leg against the reference explorer's tally over the
    paper's rules, and the packed product leg against the per-n tally it
    replaced (`reference`), at the width that `check_refinement` derives."""

    @pytest.mark.parametrize("n_max", [60, 100])
    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_match_per_n_reference(self, statement_id, M, n_max):
        stmt = _stmt(statement_id, M)
        sums, diffs, products = series_counts(stmt, n_max)
        width = sums.width
        assert diffs.width == products.width == width
        assert diffs.digits == reference.explored_tally(
            stmt, n_max, width, reference.paper_rules(stmt)
        )
        assert products.digits == reference.pack_per_n(
            reference.signature_counts(
                stmt.product_class, dict(zip(stmt.watched, stmt._units)),
                n_max,
            ),
            width,
        )

    @pytest.mark.parametrize("n_max", [0, 7, 60])
    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_tally_bits_is_the_product_tally_size(self, statement_id, M,
                                                  n_max):
        # its keys, each an int of the least width per digit
        stmt = _stmt(statement_id, M)
        _, _, products = series_counts(stmt, n_max)
        assert tally_bits(stmt, n_max) == (
            len(products.digits) * tally_width(n_max) * (n_max + 1)
        )

    def test_width_follows_the_sum_side_majorant(self):
        # p(n) has 20, 28 and 94 bits at n = 60, 100 and 818; this sum
        # side's majorant has 23, 32 and 102, and sets the width
        stmt = _stmt("generalmini14thm", 3)
        widths = [series_counts(stmt, n)[0].width for n in (60, 100, 818)]
        assert widths == [24, 33, 103]
        assert [tally_width(n) for n in (60, 100, 818)] == [21, 29, 95]


def _wrong_products(stmt):
    return stmt.replace(product_class=PartitionClass.congruence(5, (2, 4)))


_X = WeightPolynomial.monomial(MONO_X)

# Outcomes recorded from the per-n tallies, for perturbed statements and
# sum sides with extra terms: which leg's line wins, and which error.
GOLDEN_OUTCOMES = [
    pytest.param(
        lambda: _stmt("spec2"),
        (rational_term(26, -1), rational_term(5, {0: -3, 2: 1}),
         rational_term(0, -1)),
        60, "PASS spec2 n=27..60 triple agreement",
        id="series-differs-only-below-n_min",
    ),
    pytest.param(
        lambda: _stmt("spec2"),
        (rational_term(26, -1), rational_term(27, 1)),
        60, "FAIL spec2: n=27 signature (): case rules 1 vs series 2",
        id="series-differs-at-n_min",
    ),
    pytest.param(
        lambda: _wrong_products(_stmt("firstbigcomb")),
        (rational_term(3, 1),), 30,
        "FAIL firstbigcomb: n=3 signature (0, 1, 0): product 0 vs case "
        "rules 1",
        id="product-wins-over-series",
    ),
    pytest.param(
        lambda: _watching_2_and_3(_stmt("firstbigcomb")),
        (), 40,
        "ExtractionError: firstbigcomb: unexpected weight variable in "
        "coefficient of q^7",
        id="extraction",
    ),
    pytest.param(
        lambda: _stmt("generalminithm", 2), (rational_term(37, _X),), 40,
        "ExtractionError: generalminithm[M=2]: unexpected weight variable "
        "in coefficient of q^37",
        id="extraction-late",
    ),
    pytest.param(
        lambda: _stmt("generalminithm", 2), (rational_term(37, _X),), 36,
        "PASS generalminithm[M=2] n=0..36 triple agreement",
        id="extraction-past-n_max",
    ),
    pytest.param(
        lambda: _stmt("spec2"), (rational_term(5, _X),), 60,
        "ExtractionError: spec2: unexpected weight variable in coefficient "
        "of q^5",
        id="extraction-below-n_min",
    ),
    pytest.param(
        lambda: _stmt("spec2"), (rational_term(30, _X),), 60,
        "ExtractionError: spec2: unexpected weight variable in coefficient "
        "of q^30",
        id="extraction-from-n_min",
    ),
]


@pytest.mark.parametrize("build,terms,n_max,outcome", GOLDEN_OUTCOMES)
def test_failure_path_outcomes_unchanged(build, terms, n_max, outcome,
                                         monkeypatch):
    stmt = build()
    get_entry = combinatorics.get_entry
    monkeypatch.setattr(
        combinatorics, "get_entry", lambda id: WithTerms(get_entry(id), terms)
    )
    try:
        got = check_refinement(stmt, n_max).text_line()
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == outcome


def _expanded_verdict(stmt, n_max):
    """Whether the three tallies from `series_counts` agree from n_min on,
    decoded."""
    sums, diffs, products = (
        leg.decode().coeffs[stmt.n_min:] for leg in series_counts(stmt, n_max)
    )
    return products == diffs == sums


def _spy_series_counts(monkeypatch):
    """The orders `combinatorics.series_counts` is called at, from now on."""
    orders = []
    counts = combinatorics.series_counts

    def spy(stmt, order):
        orders.append(order)
        return counts(stmt, order)

    monkeypatch.setattr(combinatorics, "series_counts", spy)
    return orders


class TestClearedVerdict:
    """check_refinement decides a statement over one common denominator and
    expands the tallies only on a mismatch."""

    def test_matches_expanded_verdict_over_sweep_100(self):
        instances = [
            entry.instantiate(M)
            for entry in statements() for M in entry.sweep(100)
        ]
        assert len(instances) == 142
        for stmt in instances:
            assert check_refinement(stmt, 60).ok, stmt.label()
            assert _expanded_verdict(stmt, 60), stmt.label()

    @pytest.mark.parametrize("perturbed,line", GOLDEN_FAILURES)
    def test_golden_failures_decided_alike(self, perturbed, line):
        stmt = perturbed()
        assert not check_refinement(stmt, 60).ok
        assert not _expanded_verdict(stmt, 60)

    def test_pass_expands_no_tally(self, monkeypatch):
        orders = _spy_series_counts(monkeypatch)
        for entry in statements():
            for M in entry.sweep(12):
                assert check_refinement(entry.instantiate(M), 60).ok
        assert orders == []
        # a mismatch expands the three tallies once, to its own n = 8
        perturbed, line = GOLDEN_FAILURES[0].values
        assert check_refinement(perturbed(), 60).text_line() == line
        assert orders == [8]

    @pytest.mark.parametrize(
        "terms,line",
        [
            ((rational_term(26, 1),), "PASS spec2 n=27..80 triple agreement"),
            ((rational_term(27, -1),),
             "FAIL spec2: n=27 signature (): case rules 1 vs series 0"),
            ((rational_term(30, 1),),
             "FAIL spec2: n=30 signature (): case rules 2 vs series 3"),
        ],
        ids=["below-n_min", "at-n_min", "past-n_min"],
    )
    def test_n_min_decides_exactly_from_n_min(self, terms, line,
                                              monkeypatch):
        # the legs are made to agree below n_min, so a term there goes
        # unseen and one from n_min on is located as the tallies locate it
        get = combinatorics.get_entry
        monkeypatch.setattr(
            combinatorics, "get_entry", lambda id: WithTerms(get(id), terms)
        )
        orders = _spy_series_counts(monkeypatch)
        assert check_refinement(_stmt("spec2"), 80).text_line() == line
        # a mismatch expands the tallies to its own n
        mismatch = re.match(r"FAIL spec2: n=(\d+) ", line)
        assert orders == ([int(mismatch[1])] if mismatch else [])

    def test_mismatch_expands_tallies_to_its_own_n(self, monkeypatch):
        # located on the numerators at q^4096, expanded only to q^100
        get = combinatorics.get_entry
        monkeypatch.setattr(
            combinatorics, "get_entry",
            lambda id: WithTerms(get(id), (rational_term(100, 1),)),
        )
        orders = _spy_series_counts(monkeypatch)
        assert check_refinement(_stmt("bigcomb"), MAX_ORDER).text_line() == (
            "FAIL bigcomb: n=100 signature (0, 0, 0): case rules 424 vs "
            "series 425"
        )
        assert orders == [100]

    def test_stray_variable_past_the_mismatch_unseen(self, monkeypatch):
        # x*q^37 alone raises ExtractionError (GOLDEN_OUTCOMES); past a
        # mismatch at q^20 the tallies stop at 20, and the FAIL line stands
        get = combinatorics.get_entry
        terms = (rational_term(20, 1), rational_term(37, _X))
        monkeypatch.setattr(
            combinatorics, "get_entry", lambda id: WithTerms(get(id), terms)
        )
        assert check_refinement(_stmt("generalminithm", 2), 40).text_line() == (
            "FAIL generalminithm[M=2]: n=20 signature (0,): case rules 8 vs "
            "series 9"
        )

    @pytest.mark.parametrize("power", [FIELD_MASK - 1, FIELD_MASK])
    def test_exponent_past_its_field_refused(self, power, monkeypatch):
        # t^power / (1 - t*q): t reaches power + 1 over the common
        # denominator
        term = rational_term(
            0, WeightPolynomial.monomial(pack_monomial(t=power)),
            ((MONO_T, 1),),
        )
        get = combinatorics.get_entry
        monkeypatch.setattr(
            combinatorics, "get_entry", lambda id: WithTerms(get(id), (term,))
        )
        if power < FIELD_MASK:
            # within the field: decided, and the stray t is named
            with pytest.raises(ExtractionError, match=r"coefficient of q\^0$"):
                check_refinement(_stmt("spec1"), 20)
            return
        with pytest.raises(FieldOverflowError) as info:
            check_refinement(_stmt("spec1"), 20)
        assert str(info.value) == (
            f"spec1: the exponent of t could reach {FIELD_MASK + 1} over the "
            f"common denominator at order 20, above {FIELD_MASK}"
        )
