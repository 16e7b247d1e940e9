"""Refinement statements: counts, triple agreement and table reproduction."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    diff_signature_counts,
    get_statement,
    rule_calls,
    series_counts,
    statements,
    table_csv,
    table_text,
)
from rrweights.identities import expand_sum_side, get_entry
from rrweights.partitions import (
    Partition,
    PartitionClass,
    partition_counts,
    signature_counts,
)
from rrweights.series import MONO_V, rational_term, unpack_monomial

GOLDEN = Path(__file__).parent / "golden"


def _stmt(statement_id, M=None):
    return get_statement(statement_id).instantiate(M)


def _swept_instances():
    return [
        pytest.param(entry.id, M, id=f"{entry.id}-{M}")
        for entry in statements()
        for M in entry.sweep(12)
    ]


def _logged_calls(stmt, n_max):
    """(partial assignment, returned) for each case-rule call made by
    `diff_signature_counts(stmt, n_max)`, in call order."""
    log = []

    def logged(classify):
        def call(lam, image):
            if isinstance(image, Partition):   # a member with 0 or 1 parts
                key = lam.parts
            else:
                key = (image.m, tuple(sorted(image.fixed.items())))
            try:
                sig = classify(lam, image)
            except BaseException:
                log.append((key, False))
                raise
            log.append((key, True))
            return sig

        return call

    diff_signature_counts(dataclasses.replace(stmt, rules=tuple(
        dataclasses.replace(rule, classify=logged(rule.classify))
        for rule in stmt.rules
    )), n_max)
    return log


class TestProductCounts:
    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_counting_matches_enumeration(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        per_n = signature_counts(stmt.product_class, stmt.watched, 30)
        for n in range(0, 31):
            assert per_n[n] == count_product_refined(stmt, n)

    def test_counting_matches_enumeration_on_broken_class(self):
        stmt = dataclasses.replace(
            _stmt("firstbigcomb"),
            product_class=PartitionClass.congruence(5, (2, 4)),
        )
        per_n = signature_counts(stmt.product_class, stmt.watched, 30)
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


class TestDiffCounting:
    """The unlisted gap-2 counts against classifying the listed class."""

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_counting_matches_enumeration(self, statement_id, M):
        stmt = _stmt(statement_id, M)
        per_n = diff_signature_counts(stmt, 40)
        for n in range(0, 41):
            assert per_n[n] == count_diff_refined(stmt, n)

    @pytest.mark.parametrize("statement_id,M", _swept_instances())
    def test_rule_calls_counts_the_calls_made(self, statement_id, M):
        # rule_calls bounds the calls that return (the leaves), and no
        # partial assignment of image multiplicities is classified twice
        stmt = _stmt(statement_id, M)
        for n_max in (0, 1, 2, 9, 40):
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
        assert sum(map(len, calls)) == 25950
        assert sum(returned for log in calls for _, returned in log) == 23977
        assert sum(rule_calls(stmt, 60) for stmt in stmts) == 66800

    def test_counting_matches_enumeration_with_other_rules(self):
        # rules of a different shape: parities and a residue mod 3, and a
        # filter excluding some images, over claims split at other m
        def ones_parity(lam, image):
            return (image.multiplicity(1) % 2, image.multiplicity(2), 0)

        def three_sevens(lam, image):
            if image.multiplicity(3) == 1:
                return None
            return (image.multiplicity(7) % 3, 0, image.multiplicity(2))

        stmt = dataclasses.replace(
            _stmt("firstbigcomb"),
            rules=(
                CaseRule(0, 1, lambda lam, image: (len(lam.parts), 0, 0)),
                CaseRule(2, 4, ones_parity),
                CaseRule(5, None, three_sevens),
            ),
        )
        per_n = diff_signature_counts(stmt, 40)
        for n in range(0, 41):
            assert per_n[n] == count_diff_refined(stmt, n)

    def test_undeclared_image_size_raises(self):
        stmt = dataclasses.replace(_stmt("firstbigcomb"), image_sizes=(1, 2, 7))
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
            diff_signature_counts(dataclasses.replace(stmt, rules=rules), 30)

    def test_gap_raises_at_its_first_total(self):
        stmt = _stmt("firstbigcomb")
        gappy = dataclasses.replace(
            stmt, rules=tuple(r for r in stmt.rules if r.lo != 2)
        )
        per_n = diff_signature_counts(gappy, 8)
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
                dataclasses.replace(stmt, rules=stmt.rules + (extra,)), 8
            )


# The eager classifier that `_count_images` replaced, kept as an oracle: it
# fixes every declared multiplicity before each rule call.

class _EagerImage:
    __slots__ = ("label", "m", "counts")

    def __init__(self, label, m):
        self.label, self.m, self.counts = label, m, {}

    def multiplicity(self, s):
        if s > self.m:
            return 0
        if s not in self.counts:
            raise UndeclaredImageReadError(
                f"{self.label}: a case rule for {self.m} parts reads the "
                f"multiplicity of {s}, which image_sizes does not declare"
            )
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
    declared = sorted({s for s in stmt.image_sizes if 1 <= s <= m})
    free = [s for s in range(1, m + 1) if s not in declared]
    lam = combinatorics._Unlisted(stmt.label(), m)
    image = _EagerImage(stmt.label(), m)
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
    per_n = [{} for _ in range(n_max + 1)]
    combinatorics._count_images(stmt, m, rule, per_n, n_max)
    return per_n


def _outcome(count, stmt, m, rule, n_max):
    try:
        return count(stmt, m, rule, n_max)
    except UndeclaredImageReadError as exc:
        return str(exc)


def _program_rule(ops, parts):
    """A case rule reading image multiplicities in the order of `ops`.

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

    return CaseRule(0, None, classify)


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
    stmt = dataclasses.replace(stmt, image_sizes=tuple(sorted(declared)))
    n_max = stmt.base(m) + draw(st.integers(0, 24))
    return stmt, m, _program_rule(ops, parts), n_max


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
    per_n = [{} for _ in range(n_max + 1)]
    combinatorics._count_images(stmt, first, rule, per_n, n_max, top)
    return per_n


@st.composite
def _run_programs(draw):
    """A rule over a run first..top: reads of declared sizes up to first
    and past top, perhaps one read of an undeclared size inside the run
    (which splits it) and one of an undeclared size up to first."""
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
    stmt = dataclasses.replace(stmt, image_sizes=tuple(sorted(declared)))
    n_max = stmt.base(top) + draw(st.integers(0, 12))
    rule = _program_rule(ops, parts)
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

    A gate above n_max - base(size) splits the run with no error past it.
    """
    def classify(lam, image):
        if sum(s * image.multiplicity(s) for s in low) >= gate:
            image.multiplicity(size)
        return rule.classify(lam, image)

    return CaseRule(0, None, classify)


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
        # one exploration for the run, split at undeclared reads inside it,
        # against the sum over m: the same counts or the same error
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

    def test_rule_catching_exceptions_still_branches(self):
        def guarded(lam, image):
            try:
                return (image.multiplicity(1) % 3, image.multiplicity(2))
            except Exception:
                return None

        stmt = dataclasses.replace(_stmt("bigcomb"), image_sizes=(1, 2))
        rule = CaseRule(0, None, guarded)
        lazy = _lazy_image_counts(stmt, 3, rule, 40)
        assert lazy == _eager_image_counts(stmt, 3, rule, 40)
        assert sum(sum(counts.values()) for counts in lazy) > 0


class TestSeriesExtraction:
    def test_variable_outside_series_vars_raises(self):
        stmt = _stmt("firstbigcomb")
        spec = get_entry(stmt.linked_id).instantiate(stmt.linked_param)
        series = expand_sum_side(spec, 40)
        first = next(
            n for n in range(41)
            if any(unpack_monomial(mono)[2] for mono in series.coeffs[n].terms)
        )
        no_v = dataclasses.replace(stmt, series_vars=("t", "w"))
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
        assert series_counts(stmt, 60) == want


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

    def test_empty_range_raises(self):
        with pytest.raises(ValueError, match=r"^spec2 needs n_max >= 27, got 26$"):
            check_refinement(_stmt("spec2"), 26)

    def test_gap_in_case_rules_raises(self):
        stmt = _stmt("firstbigcomb")
        gappy = dataclasses.replace(
            stmt, rules=tuple(r for r in stmt.rules if r.lo != 2)
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
                dataclasses.replace(stmt, rules=stmt.rules + (extra,)), 8
            )

    def test_injected_fault_breaks_agreement(self):
        stmt = _stmt("firstbigcomb")
        broken = dataclasses.replace(
            stmt, product_class=PartitionClass.congruence(5, (2, 4))
        )
        report = check_refinement(broken, 12)
        assert not report.ok
        assert report.failure == (
            "n=3 signature (0, 1, 0): product 0 vs case rules 1"
        )

    def test_series_leg_counts(self):
        per_n = series_counts(_stmt("firstbigcomb"), 22)
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
            coeff = series.coefficient(ones)
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
        broken = dataclasses.replace(stmt, watched=(2, 3), series_vars=("t", "w"))
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
