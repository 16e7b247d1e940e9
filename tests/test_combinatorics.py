"""Refinement statements: counts, triple agreement and table reproduction."""

from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import tally_per_n, tally_width
from rrweights import combinatorics
from rrweights.combinatorics import (
    AmbiguousClassificationError,
    CaseRule,
    ClassificationGapError,
    ExtractionError,
    TableError,
    UndeclaredImageReadError,
    build_table,
    check_refinement,
    count_diff_refined,
    count_product_refined,
    diff_tally,
    get_statement,
    rule_calls,
    series_counts,
    statements,
    table_csv,
    tally_bits,
    table_text,
)
from rrweights.identities import expand_sum_side, get_entry
from rrweights.partitions import (
    DIFF2,
    Partition,
    PartitionClass,
    col,
    col_star,
    enumerate_class,
    partition_counts,
    signature_tally,
)
from rrweights.series import (
    FIELD_MASK,
    MONO_V,
    MONO_X,
    WeightPolynomial,
    VARIABLES,
    VARIABLE_SHIFTS,
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


def _units(stmt):
    return [1 << VARIABLE_SHIFTS[v] for v in stmt.series_vars]


def _decoded(stmt, per_n):
    """Packed per-n tallies keyed by signature tuples instead: field i of a
    key is the exponent of series_vars[i], read with `unpack_monomial`.
    Tuple keys (rule results that do not pack) stay; no two keys of one
    tally may decode alike."""
    slots = [VARIABLES.index(v) for v in stmt.series_vars]
    out = []
    for counts in per_n:
        if counts is None:
            out.append(None)
            continue
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


def _diff_per_n(stmt, n_max):
    """`diff_tally` per n: {signature key: count}, None at each n with
    members that no rule, or several rules, claim."""
    width = tally_width(n_max)
    tally, unresolved = diff_tally(stmt, n_max, width)
    per_n = tally_per_n(tally, width, n_max)
    for present in unresolved:
        for n in present:
            per_n[n] = None
    return per_n


def _products_per_n(stmt, n_max):
    """`signature_tally` of the product class per n."""
    width = tally_width(n_max)
    return tally_per_n(
        signature_tally(
            stmt.product_class, stmt.watched, _units(stmt), n_max, width
        ),
        width, n_max,
    )


def _logged_calls(stmt, n_max):
    """(partial assignment, returned) for each case-rule call made by
    `diff_tally(stmt, n_max, ...)`, in call order."""
    log = []

    def logged(classify):
        def call(lam, image):
            if isinstance(image, Partition):   # a member with 0 or 1 parts
                key = lam.parts
            else:
                key = (image.m, tuple(sorted(image.items())))
            try:
                sig = classify(lam, image)
            except BaseException:
                log.append((key, False))
                raise
            log.append((key, True))
            return sig

        return call

    _diff_per_n(stmt.replace(rules=tuple(
        rule.replace(classify=logged(rule.classify))
        for rule in stmt.rules
    )), n_max)
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

    def test_statement_copy_gets_a_fresh_rule_cache(self):
        stmt = _stmt("firstbigcomb")
        count_diff_refined(stmt, 12)
        assert stmt._rule_by_parts   # the claiming rule of each part count
        one_rule = stmt.replace(
            rules=(CaseRule(0, None, lambda lam, image: ("one",)),)
        )
        assert one_rule._rule_by_parts == {}
        assert count_diff_refined(one_rule, 12) == {
            ("one",): len(enumerate_class(stmt.diff_class, 12))
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

    def test_case_rules_compare_and_hash_by_fields(self):
        rule = _stmt("bigcomb").rules[2]
        same = rule.replace()
        assert same == rule and same is not rule and hash(same) == hash(rule)
        assert rule.replace(hi=5) == CaseRule(
            rule.lo, 5, rule.classify, rule.image_sizes
        )
        assert rule.replace(hi=5) != rule


class TestDiffCounting:
    """The unlisted gap-2 counts against classifying the listed class."""

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_counting_matches_enumeration(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        per_n = _decoded(stmt, _diff_per_n(stmt, 40))
        for n in range(0, 41):
            assert per_n[n] == count_diff_refined(stmt, n)

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_rule_calls_counts_the_calls_made(self, statement_id, M):
        # rule_calls bounds the calls that return (the leaves), and no
        # partial assignment of image multiplicities is classified twice
        stmt = _stmt(statement_id, M)
        for n_max in (0, 1, 2, 9, 40, 100, 153):
            calls = _logged_calls(stmt, n_max)
            leaves = sum(returned for _, returned in calls)
            assert leaves <= rule_calls(stmt, n_max), n_max
            assignments = [key for key, _ in calls]
            assert len(set(assignments)) == len(assignments), n_max

    def test_calls_over_the_sweep_to_60(self):
        stmts = [_stmt(entry.id, M) for entry in statements()
                 for M in entry.sweep(12)]
        assert len(stmts) == 19
        calls = [_logged_calls(stmt, 60) for stmt in stmts]
        assert sum(map(len, calls)) == 25878
        assert sum(returned for log in calls for _, returned in log) == 23911
        assert sum(rule_calls(stmt, 60) for stmt in stmts) == 29919

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_declared_sizes_are_the_sizes_read(self, statement_id, M,
                                               monkeypatch):
        # every size a rule reads through the lazy image is declared, and
        # every declared size up to the run's first part count is read, so
        # a declaration neither misses a read nor loosens `rule_calls`
        reads = {}

        class LoggedImage(combinatorics._LazyImage):
            __slots__ = ()

            def __missing__(self, s):
                reads.setdefault(self.m, set()).add(s)
                return super().__missing__(s)

        monkeypatch.setattr(combinatorics, "_LazyImage", LoggedImage)
        stmt = _stmt(statement_id, M)
        _diff_per_n(stmt, 60)
        for first, _, (rule,) in combinatorics._runs(stmt, 60):
            if first >= 2:
                declared = {s for s in rule.image_sizes if s <= first}
                assert reads.get(first, set()) == declared, first

    def test_counting_matches_enumeration_with_other_rules(self):
        # rules of a different shape: parities and a residue mod 3, and a
        # filter excluding some images, over claims split at other m
        def ones_parity(lam, image):
            return (image.multiplicity(1) % 2, image.multiplicity(2), 0)

        def three_sevens(lam, image):
            if image.multiplicity(3) == 1:
                return None
            return (image.multiplicity(7) % 3, 0, image.multiplicity(2))

        stmt = _stmt("firstbigcomb").replace(
            rules=(
                CaseRule(0, 1, lambda lam, image: (len(lam.parts), 0, 0)),
                CaseRule(2, 4, ones_parity, (1, 2)),
                CaseRule(5, None, three_sevens, (2, 3, 7)),
            ),
        )
        per_n = _decoded(stmt, _diff_per_n(stmt, 40))
        for n in range(0, 41):
            assert per_n[n] == count_diff_refined(stmt, n)

    def test_undeclared_image_size_raises(self):
        stmt = _stmt("firstbigcomb")
        stmt = stmt.replace(rules=tuple(
            rule.replace(
                image_sizes=tuple(s for s in rule.image_sizes if s != 3)
            )
            for rule in stmt.rules
        ))
        with pytest.raises(
            UndeclaredImageReadError,
            match=r"^firstbigcomb: a case rule for 3 parts reads the "
            r"multiplicity of 3, which image_sizes does not declare$",
        ):
            check_refinement(stmt, 30)

    def test_reading_lam_for_two_parts_raises(self):
        stmt = _stmt("bigcomb")
        rules = tuple(
            CaseRule(2, 2, lambda lam, image: (lam.parts[0], 0, 0))
            if rule.lo == 2 else rule
            for rule in stmt.rules
        )
        with pytest.raises(
            UndeclaredImageReadError,
            match=r"^bigcomb: a case rule for 2 parts reads lam\.parts; ",
        ):
            _diff_per_n(stmt.replace(rules=rules), 30)

    def test_gap_raises_at_its_first_total(self):
        stmt = _stmt("firstbigcomb")
        gappy = stmt.replace(
            rules=tuple(r for r in stmt.rules if r.lo != 2)
        )
        per_n = _decoded(gappy, _diff_per_n(gappy, 8))
        assert per_n[5] == count_diff_refined(stmt, 5)   # m <= 1 only
        assert per_n[6] is None   # (4,2) is the first member with 2 parts
        with pytest.raises(
            ClassificationGapError,
            match=r"^firstbigcomb: no case rule claims \(4,2\) with 2 parts$",
        ):
            check_refinement(gappy, 8)

    def test_overlap_raises_at_its_first_total(self):
        stmt = _stmt("firstbigcomb")
        extra = CaseRule(1, 3, lambda lam, image: (0, 0, 0))
        with pytest.raises(
            AmbiguousClassificationError,
            match=r"^firstbigcomb: 2 case rules claim \(2\)$",
        ):
            check_refinement(
                stmt.replace(rules=stmt.rules + (extra,)), 8
            )


# The eager classifier that `_count_images` replaced, kept as an oracle: it
# fixes every declared multiplicity before each rule call.

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
    lam = combinatorics._Unlisted(stmt.label(), m)
    image = _EagerImage(stmt.label(), m, rule.image_sizes)
    by_sig = {}
    for vector, w in _multiplicity_vectors(declared, budget):
        image.counts = dict(zip(declared, vector))
        sig = rule.classify(lam, image)
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
    combinatorics._count_images(stmt, m, rule, tally, n_max, width)
    return _decoded(stmt, tally_per_n(tally, width, n_max))


def _outcome(count, stmt, m, rule, n_max):
    try:
        return count(stmt, m, rule, n_max)
    except UndeclaredImageReadError as exc:
        return str(exc)


def _program_rule(ops, parts, image_sizes):
    """A case rule declaring `image_sizes` and reading image multiplicities
    in the order of `ops`.

    Each op (size, modulus, residue) reads one multiplicity; with a modulus
    it returns None at once when the value is that residue.  Each signature
    component is a weighted sum of values read, reduced by a modulus.
    """
    def classify(lam, image):
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

    return CaseRule(0, None, classify, image_sizes)


@st.composite
def _programs(draw, undeclared=False):
    stmt = _stmt(draw(st.sampled_from(["firstbigcomb", "bigcomb"])))
    m = draw(st.integers(2, 5))
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
    combinatorics._count_images(stmt, first, rule, tally, n_max, width, top)
    return _decoded(stmt, tally_per_n(tally, width, n_max))


@st.composite
def _run_programs(draw):
    """A rule over a run first..top: reads of declared sizes up to first
    and past top, perhaps one read of an undeclared size inside the run
    and one of an undeclared size up to first."""
    stmt = _stmt(draw(st.sampled_from(["firstbigcomb", "bigcomb"])))
    first = draw(st.integers(2, 4))
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
    def classify(lam, image):
        if sum(s * image.multiplicity(s) for s in low) >= gate:
            image.multiplicity(size)
        return rule.classify(lam, image)

    return rule.replace(classify=classify)


class TestLazyClassification:
    """`_count_images` branches on reads; the eager classifier is its oracle."""

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
        m = 2
        while stmt.base(m) <= 60:
            (rule,) = combinatorics._claimants(stmt, m)
            assert _lazy_image_counts(stmt, m, rule, 60) == _eager_image_counts(
                stmt, m, rule, 60
            ), m
            m += 1

    def test_one_result_under_two_fixed_sets(self):
        # (0,) is reached with {1} fixed (even ones) and with {1, 2} fixed
        # (odd ones, even twos), at several totals under each
        def rule(lam, image):
            ones = image.multiplicity(1)
            if ones % 2 == 0:
                return (0,)
            return (image.multiplicity(2) % 2,)

        stmt = _stmt("generalminithm", 2)
        rule = CaseRule(0, None, rule, (1, 2))
        leaves = combinatorics._explore(stmt, 3, 3, rule, 40)
        assert len(leaves[frozenset({1})][(0,)]) > 1
        assert len(leaves[frozenset({1, 2})][(0,)]) > 1
        assert _lazy_image_counts(stmt, 3, rule, 40) == _eager_image_counts(
            stmt, 3, rule, 40
        )

    def test_undeclared_read_inside_a_run_raises_at_its_first(self):
        # the run 2..5 reads the undeclared 4 once the ones weigh 20 or
        # more, which no member with 4 parts reaches at n_max 30 (base(4)
        # is 20); the read raises for 2 parts all the same
        def rule(lam, image):
            ones = image.multiplicity(1)
            if ones >= 20:
                image.multiplicity(4)
            return (ones % 2,)

        stmt = _stmt("generalminithm", 2)
        assert stmt.base(4) == 20
        rule = CaseRule(0, None, rule, (1,))
        with pytest.raises(
            UndeclaredImageReadError,
            match=r"^generalminithm\[M=2\]: a case rule for 2 parts reads the "
            r"multiplicity of 4, which image_sizes does not declare$",
        ):
            _lazy_run_counts(stmt, 2, 5, rule, 30)

    def test_rule_catching_exceptions_still_branches(self):
        def guarded(lam, image):
            try:
                return (image.multiplicity(1) % 3, image.multiplicity(2))
            except Exception:
                return None

        stmt = _stmt("bigcomb")
        rule = CaseRule(0, None, guarded, (1, 2))
        lazy = _lazy_image_counts(stmt, 3, rule, 40)
        assert lazy == _eager_image_counts(stmt, 3, rule, 40)
        assert sum(sum(counts.values()) for counts in lazy) > 0


def _series_per_n(stmt, order):
    series = series_counts(stmt, order)
    return tally_per_n(series.digits, series.width, order)


class TestSeriesExtraction:
    def test_variable_outside_series_vars_raises(self):
        stmt = _stmt("firstbigcomb")
        spec = get_entry(stmt.linked_id).instantiate(stmt.linked_param)
        series = expand_sum_side(spec, 40)
        first = next(
            n for n in range(41)
            if any(unpack_monomial(mono)[2] for mono in series.coeffs[n].terms)
        )
        no_v = stmt.replace(watched=(2, 3), series_vars=("t", "w"))
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
        spec = get_entry(stmt.linked_id).instantiate(stmt.linked_param)
        if stmt.linked_subs:
            spec = spec.substituted(stmt.linked_subs)
        slots = ["twvx".index(v) for v in stmt.series_vars]
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

    def test_gap_in_case_rules_raises(self):
        stmt = _stmt("firstbigcomb")
        gappy = stmt.replace(
            rules=tuple(r for r in stmt.rules if r.lo != 2)
        )
        with pytest.raises(
            ClassificationGapError,
            match=r"^firstbigcomb: no case rule claims \(6,2\) with 2 parts$",
        ):
            count_diff_refined(gappy, 8)

    def test_overlapping_case_rules_raise(self):
        stmt = _stmt("firstbigcomb")
        extra = CaseRule(1, 3, lambda lam, image: (0, 0, 0))
        with pytest.raises(
            AmbiguousClassificationError,
            match=r"^firstbigcomb: 2 case rules claim \(8\)$",
        ):
            count_diff_refined(
                stmt.replace(rules=stmt.rules + (extra,)), 8
            )

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


def _with_rule(stmt, lo, classify):
    """The statement with its case rule from `lo` parts on reclassifying."""
    return stmt.replace(rules=tuple(
        rule.replace(classify=classify) if rule.lo == lo else rule
        for rule in stmt.rules
    ))


_Pair = namedtuple("_Pair", "k j")


def _swapped_general2partcor():
    # the rule for 3..6 parts returns (2-count, 1-count) for (1-count, 2-count)
    return _with_rule(
        _stmt("general2partcor", 7), 3,
        lambda lam, image: (image.multiplicity(2), image.multiplicity(1) // 7),
    )


def _above_mask(lam, image):
    # (k, j) as (k + 2^16, j - 1): packed, the overflow would carry into j
    k, j = image.multiplicity(1) // 7, image.multiplicity(2)
    return (k + FIELD_MASK + 1, j - 1) if j else (k, j)


def _borrowing(lam, image):
    # (k, j) as (k - 2^16, j + 1): packed, the negative k would borrow from j
    k, j = image.multiplicity(1) // 7, image.multiplicity(2)
    return (k - FIELD_MASK - 1, j + 1) if k else (k, j)


# The FAIL lines the tuple-keyed tallies printed for these perturbations.
GOLDEN_FAILURES = [
    pytest.param(
        lambda: _with_rule(
            _stmt("generalminithm", 2), 2,
            lambda lam, image: ((image.multiplicity(1) + 1) // 3,),
        ),
        "FAIL generalminithm[M=2]: n=8 signature (0,): product 2 vs case "
        "rules 1",
        id="product-vs-rules",
    ),
    pytest.param(
        lambda: _stmt("generalminithm", 2).replace(linked_param=6),
        "FAIL generalminithm[M=2]: n=3 signature (0,): case rules 0 vs "
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
        lambda: _with_rule(
            _stmt("generalminithm", 2), 2, lambda lam, image: (-1,)
        ),
        "FAIL generalminithm[M=2]: n=6 signature (-1,): product 0 vs case "
        "rules 1",
        id="negative",
    ),
    pytest.param(
        lambda: _with_rule(
            _stmt("generalminithm", 2), 2,
            lambda lam, image: (image.multiplicity(1) // 3,) * 2,
        ),
        "FAIL generalminithm[M=2]: n=6 signature (0,): product 1 vs case "
        "rules 0",
        id="too-long",
    ),
    pytest.param(
        lambda: _with_rule(_stmt("general2partcor", 7), 3, _above_mask),
        "FAIL general2partcor[M=7]: n=14 signature (0, 1): product 2 vs case "
        "rules 1",
        id="above-field-mask",
    ),
    pytest.param(
        lambda: _with_rule(_stmt("general2partcor", 7), 3, _borrowing),
        "FAIL general2partcor[M=7]: n=19 signature (-65535, 1): product 0 vs "
        "case rules 1",
        id="negative-borrow",
    ),
]


class TestPackedSignatures:
    """A signature's key is the sum side's monomial for it; FAIL lines
    print signature tuples as before."""

    @pytest.mark.parametrize("perturbed,line", GOLDEN_FAILURES)
    def test_failure_lines_unchanged(self, perturbed, line):
        assert check_refinement(perturbed(), 60).text_line() == line

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
        stmt = _stmt("general2partcor", 7)   # series_vars ("w", "t")
        assert stmt.key((2, 3)) == pack_monomial(t=3, w=2)
        assert stmt.signature(stmt.key((2, 3))) == (2, 3)
        assert stmt.key((FIELD_MASK, 0)) == pack_monomial(w=FIELD_MASK)

    @pytest.mark.parametrize(
        "statement_id,M,sig",
        [
            ("generalminithm", 2, (-1,)),
            ("generalminithm", 2, (3, 3)),
            ("generalminithm", 2, ()),
            ("generalminithm", 2, (FIELD_MASK + 1,)),
            ("generalminithm", 2, (1.0,)),
            ("general2partcor", 7, (1 - FIELD_MASK - 1, 1)),
            ("general2partcor", 7, (FIELD_MASK + 1, 0)),
            ("spec1", None, (0,)),
        ],
    )
    def test_unpackable_results_keep_tuple_keys(self, statement_id, M, sig):
        stmt = _stmt(statement_id, M)
        assert stmt.key(sig) == sig
        assert stmt.signature(stmt.key(sig)) == sig

    @pytest.mark.parametrize(
        "statement_id,M,result",
        [
            ("general2partcor", 7, (1, 2)),
            ("general2partcor", 7, (True, 0)),
            ("generalminithm", 2, (1.0,)),
            ("generalminithm", 2, (-1,)),
            ("generalminithm", 2, (FIELD_MASK + 1,)),
            ("general2partcor", 7, (1, 2, 3)),
            ("general2partcor", 7, _Pair(1, 2)),
            ("generalminithm", 2, 5),
            ("generalminithm", 2, None),
        ],
        ids=[
            "ints", "bool", "float", "negative", "above-field-mask",
            "wrong-length", "namedtuple", "bare-int", "none",
        ],
    )
    def test_leaf_keys_match_reference(self, statement_id, M, result):
        # every member with 2 parts classified as `result`, through a branch
        # node over the ones: at each n the tally holds the reference key of
        # the result, and no key at all for None (the members are excluded)
        stmt = _stmt(statement_id, M)

        def constant(lam, image):
            image.multiplicity(1)
            return result

        rule, n_max = CaseRule(2, 2, constant, (1,)), 30
        width, tally = tally_width(n_max), {}
        combinatorics._count_images(stmt, 2, rule, tally, n_max, width)
        assert stmt.key(result) == reference.packed_key(result, stmt._shifts)
        want = [
            {
                reference.packed_key(sig, stmt._shifts): count
                for sig, count in counts.items()
            }
            for counts in _eager_image_counts(stmt, 2, rule, n_max)
        ]
        assert tally_per_n(tally, width, n_max) == want
        assert any(want) == (result is not None)

    def test_non_tuple_result_is_no_packed_key(self):
        stmt = _stmt("spec1")   # no series_vars: every signature packs to 0
        assert stmt.key(()) == 0
        assert stmt.key(0) == (0,)

    def test_repeated_series_variable_is_refused(self):
        with pytest.raises(
            ValueError,
            match=r"^general2partcor\[M=7\]: series_vars \('t', 't'\) name a "
            r"variable twice$",
        ):
            _stmt("general2partcor", 7).replace(series_vars=("t", "t"))

    def test_series_vars_must_match_watched_sizes(self):
        with pytest.raises(
            ValueError,
            match=r"^firstbigcomb: 2 series_vars for 3 watched sizes$",
        ):
            _stmt("firstbigcomb").replace(series_vars=("t", "w"))

    @pytest.mark.parametrize("size", ["1", 0], ids=["str", "zero"])
    def test_image_sizes_must_be_positive_ints(self, size):
        stmt = _stmt("generalminithm", 2)
        rules = tuple(
            rule.replace(image_sizes=(size,)) if rule.lo == 2 else rule
            for rule in stmt.rules
        )
        with pytest.raises(
            ValueError,
            match=rf"^generalminithm\[M=2\]: the case rule from 2 parts "
            rf"declares image size {size!r}, not an int >= 1$",
        ):
            stmt.replace(rules=rules)


class TestRuleAgainstSeries:
    def test_three_part_ones_rule_matches_numerator(self):
        # coefficient of q^ones in (1+q+v^2 q^2+v q^3+q^4+q^5+q^6)/(1-v q^7)
        # must be v^(rule's count) for every ones value
        stmt = _stmt("firstbigcomb")
        rule = next(r for r in stmt.rules if r.lo == 3 and r.hi == 3)
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
            got = rule.classify(Partition((99, 97, 95)), image)
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
        broken = stmt.replace(watched=(2, 3), series_vars=("t", "w"))
        # dropping the 7-count merges product classes that the unchanged
        # case rules still split, so some class sizes cannot match
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
    """The packed gap-2 and product tallies, decoded at every n, against
    the per-n tallies they replaced (`reference`), at the width that
    `check_refinement` derives."""

    @pytest.mark.parametrize("n_max", [60, 100])
    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_match_per_n_reference(self, statement_id, M, n_max):
        stmt = _stmt(statement_id, M)
        width = series_counts(stmt, n_max).width
        assert width >= tally_width(n_max)
        diffs, unresolved = diff_tally(stmt, n_max, width)
        assert unresolved == []
        assert tally_per_n(diffs, width, n_max) == (
            reference.diff_signature_counts(stmt, n_max)
        )
        units = _units(stmt)
        products = signature_tally(
            stmt.product_class, stmt.watched, units, n_max, width
        )
        assert tally_per_n(products, width, n_max) == (
            reference.signature_counts(
                stmt.product_class, stmt.watched, units, n_max
            )
        )

    @pytest.mark.parametrize("n_max", [0, 7, 60])
    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_tally_bits_is_the_product_tally_size(self, statement_id, M,
                                                  n_max):
        stmt = _stmt(statement_id, M)
        width = tally_width(n_max)
        products = signature_tally(
            stmt.product_class, stmt.watched, _units(stmt), n_max, width
        )
        assert tally_bits(stmt, n_max) == (
            len(products) * width * (n_max + 1)
        )

    def test_width_follows_the_sum_side_majorant(self):
        # p(n) has 20, 28 and 94 bits at n = 60, 100 and 818; this sum
        # side's majorant has 23, 32 and 102, and sets the width
        stmt = _stmt("generalmini14thm", 3)
        widths = [series_counts(stmt, n).width for n in (60, 100, 818)]
        assert widths == [24, 33, 103]
        assert [tally_width(n) for n in (60, 100, 818)] == [21, 29, 95]


class _WithTerms:
    """A catalog entry whose instances' sum sides gain `terms`."""

    def __init__(self, entry, terms):
        self.entry = entry
        self.terms = terms

    def __getattr__(self, name):
        return getattr(self.entry, name)

    def instantiate(self, param=None):
        spec = self.entry.instantiate(param)
        return spec.replace(sum_terms=spec.sum_terms + self.terms)


def _gappy():
    stmt = _stmt("firstbigcomb")
    return stmt.replace(rules=tuple(r for r in stmt.rules if r.lo != 2))


def _overlapping():
    stmt = _stmt("firstbigcomb")
    extra = CaseRule(1, 3, lambda lam, image: (0, 0, 0))
    return stmt.replace(rules=stmt.rules + (extra,))


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
        _gappy, (rational_term(3, 1),), 30,
        "FAIL firstbigcomb: n=3 signature (0, 0, 0): case rules 0 vs series 1",
        id="mismatch-before-gap",
    ),
    pytest.param(
        _gappy, (rational_term(10, 1),), 30,
        "ClassificationGapError: firstbigcomb: no case rule claims (4,2) "
        "with 2 parts",
        id="gap-before-mismatch",
    ),
    pytest.param(
        lambda: _wrong_products(_gappy()), (), 30,
        "FAIL firstbigcomb: n=3 signature (0, 1, 0): product 0 vs case "
        "rules 1",
        id="product-mismatch-before-gap",
    ),
    pytest.param(
        _overlapping, (rational_term(1, 1),), 30,
        "FAIL firstbigcomb: n=1 signature (0, 0, 0): case rules 0 vs series 1",
        id="mismatch-before-overlap",
    ),
    pytest.param(
        _overlapping, (rational_term(5, 1),), 30,
        "AmbiguousClassificationError: firstbigcomb: 2 case rules claim (2)",
        id="overlap-before-mismatch",
    ),
    pytest.param(
        lambda: _stmt("firstbigcomb").replace(
            watched=(2, 3), series_vars=("t", "w")
        ),
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
]


@pytest.mark.parametrize("build,terms,n_max,outcome", GOLDEN_OUTCOMES)
def test_failure_path_outcomes_unchanged(build, terms, n_max, outcome,
                                         monkeypatch):
    stmt = build()
    get_entry = combinatorics.get_entry
    monkeypatch.setattr(
        combinatorics, "get_entry", lambda id: _WithTerms(get_entry(id), terms)
    )
    try:
        got = check_refinement(stmt, n_max).text_line()
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == outcome
