"""Command-line surface: formats, exit codes, determinism."""

import ast
import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from rrweights import cli, combinatorics, identities, partitions
from rrweights.cli import (
    EXIT_ARITHMETIC,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_OUT_OF_MEMORY,
    EXIT_USAGE,
    MAX_LISTED,
    main,
)
from rrweights.combinatorics import MAX_TALLY_BITS
from rrweights.series import (
    FIELD_MASK,
    MAX_ORDER,
    MONO_T,
    WeightPolynomial,
    pack_monomial,
    rational_term,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "miniprop", "--order", "40"
        )
        assert code == EXIT_OK
        assert "PASS miniprop order=60" in out
        assert out.endswith("1 passed, 0 failed\n")

    def test_param_binding(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "twopartM", "--param", "7", "--order", "40"
        )
        assert code == EXIT_OK
        assert "twopartM[M=7]" in out

    def test_order_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--id", "rr2", "--order", "20"
        )
        assert code == EXIT_USAGE
        assert "at least 30" in err

    def test_unknown_id_rejected_before_compute(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "made_up")
        assert code == EXIT_USAGE
        assert "unknown identity id" in err

    def test_inadmissible_param(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--id", "twopartM", "--param", "3"
        )
        assert code == EXIT_USAGE

    def test_every_instance_built_before_any_verified(self, capsys, monkeypatch):
        # partM[M=31] is admissible, twopartM[M=31] is not: the refusal
        # must come before partM is verified
        def verify(spec, order):
            raise AssertionError(f"verified {spec.id} before refusing")

        monkeypatch.setattr(identities, "verify", verify)
        code, out, err = run_cli(
            capsys, "verify", "--id", "partM", "--id", "twopartM",
            "--param", "31", "--order", "1500",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: identity twopartM needs admissible M "
            "(M >= 7, = 2 or 3 mod 5), got 31\n"
        )

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "weirdeq", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["failed"] == 0
        (result,) = doc["results"]
        assert result == {
            "id": "weirdeq", "params": {}, "order": 60, "status": "pass",
        }

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--id", "firsttw")
        _, second, _ = run_cli(capsys, "verify", "--id", "firsttw")
        assert first == second

    def test_empty_sweep_is_usage_error(self, capsys):
        # twopartM's least admissible M is 7
        code, out, err = run_cli(
            capsys, "verify", "--id", "twopartM", "--max-param", "6"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: verify --id twopartM has no admissible M up to "
            "--max-param 6\n"
        )
        code, out, _ = run_cli(
            capsys, "verify", "--id", "twopartM", "--max-param", "7"
        )
        assert code == EXIT_OK
        assert out.endswith("verified 1 instances: 1 passed, 0 failed\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--id", "partM", "--param", "1000000001"],
             "identity partM takes M <= 100, got 1000000001"),
            (["--id", "parts2Meq", "--param", "100000000000"],
             "identity parts2Meq takes M <= 100, got 100000000000"),
            (["--id", "weirdeq_general", "--param", "100000000"],
             "identity weirdeq_general takes M <= 100, got 100000000"),
            (["--max-param", str(10**12)],
             "identity weirdeq_general sweeps M up to 100, "
             "got a bound of 1000000000000"),
            (["--id", "parts2Meq", "--max-param", "101"],
             "identity parts2Meq sweeps M up to 100, got a bound of 101"),
        ],
    )
    def test_param_above_bound_refused_at_once(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_param_bound_is_admissible(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "weirdeq_general", "--param", "100"
        )
        assert code == EXIT_OK
        assert out.startswith("PASS weirdeq_general[M=100] order=60\n")
        code, out, _ = run_cli(
            capsys, "verify", "--id", "parts2Meq", "--max-param", "100"
        )
        assert code == EXIT_OK
        assert out.endswith("verified 100 instances: 100 passed, 0 failed\n")

    def test_env_default_order(self, capsys, monkeypatch):
        monkeypatch.setenv("RRWEIGHTS_ORDER", "45")
        code, out, _ = run_cli(capsys, "verify", "--id", "weirdeq")
        assert code == EXIT_OK
        assert "order=60" in out  # raised to the entry minimum
        monkeypatch.setenv("RRWEIGHTS_ORDER", "65")
        code, out, _ = run_cli(capsys, "verify", "--id", "weirdeq")
        assert "order=65" in out

    def test_order_above_ceiling_refused_at_once(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys, "verify", "--id", "miniprop", "--order", "100000"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: --order must be at most {MAX_ORDER} for verify\n"
        monkeypatch.setenv("RRWEIGHTS_ORDER", str(MAX_ORDER + 1))
        code, out, _ = run_cli(capsys, "verify", "--id", "rr1")
        assert (code, out) == (EXIT_USAGE, "")

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("RRWEIGHTS_ORDER", "lots")
        code, _, err = run_cli(capsys, "verify", "--id", "weirdeq")
        assert code == EXIT_USAGE


class TestEnumerateCommand:
    def test_empty_partition_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--class", "diff2_star", "--n", "0"
        )
        assert code == EXIT_OK
        assert out == "()\n"

    def test_text_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--class", "mod5_23", "--n", "7"
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["(7)", "(3,2^2)"]

    def test_custom_congruence_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--modulus", "5", "--residues", "2,3",
            "--forbid", "3", "--allow", "5", "--n", "5",
        )
        assert code == EXIT_OK
        assert out == "(5)\n"

    def test_csv_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--class", "diff2", "--n", "5",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == '"partition"'
        code, out, _ = run_cli(
            capsys, "enumerate", "--class", "diff2", "--n", "5",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["partitions"] == ["5", "4,1"]

    def test_unknown_class(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--class", "zzz", "--n", "3")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("rule", [
        ("--modulus", "5"), ("--residues", "1"), ("--forbid", "2"),
        ("--allow", "4"), ("--modulus", "5", "--residues", "1"),
    ])
    def test_class_with_a_rule_is_usage_error(self, capsys, rule):
        code, out, err = run_cli(
            capsys, "enumerate", "--class", "diff2", *rule, "--n", "3"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: give --class or a --modulus/--residues rule, not both\n"
        )

    @pytest.mark.parametrize(
        "flag,value", [("--allow", "0"), ("--forbid", "-2"), ("--allow", "3,0")]
    )
    def test_non_positive_part_size_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "enumerate", "--modulus", "5", "--residues", "1,4",
            f"{flag}={value}", "--n", "6",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(
            "error: forbidden and extra-allowed sizes must be positive, got ["
        )
        assert err.count("\n") == 1

    def test_zero_modulus_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--modulus", "0", "--residues", "0", "--n", "5"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: congruence class needs a positive modulus\n"

    def test_residue_out_of_range_is_usage_error(self, capsys):
        for residues in ("7", "5", "1,-1"):
            code, out, err = run_cli(
                capsys, "enumerate", "--modulus", "5",
                f"--residues={residues}", "--n", "5",
            )
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error: residues must lie in 0..modulus-1\n"

    def test_huge_modulus_lists_at_once(self, capsys):
        # residues are range-checked one by one, not against range(modulus)
        code, out, _ = run_cli(
            capsys, "enumerate", "--modulus", "99999999999999999999",
            "--residues", "1", "--n", "5",
        )
        assert (code, out) == (EXIT_OK, "(1^5)\n")

    def test_n_above_limit_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--class", "diff2", "--n", "100001"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: enumerate and table take --n <= 100000\n"

    def test_unreachable_remainders_list_at_once(self, capsys):
        # every even-part prefix leaves an odd remainder below 99999
        argv = ("enumerate", "--modulus", "2", "--residues", "0",
                "--allow", "99999", "--n")
        assert run_cli(capsys, *argv, "99999") == (EXIT_OK, "(99999)\n", "")
        assert run_cli(capsys, *argv, "99") == (EXIT_OK, "", "")

    def test_class_too_large_refused_before_listing(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--class", "diff2", "--n", "100000"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: diff2 has at least ")
        assert err.endswith(f"list at most {MAX_LISTED}\n")


class TestTableCommand:
    def test_bigcomb_csv_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--id", "bigcomb", "--n", "19", "--format", "csv"
        )
        assert code == EXIT_OK
        want = (GOLDEN / "table_bigcomb_n19.csv").read_text(encoding="utf-8")
        assert out == want

    def test_restricted_table_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--id", "generalminithm", "--param", "2",
            "--restrict", "2", "--n", "22", "--format", "csv",
        )
        assert code == EXIT_OK
        want = (GOLDEN / "table_generalminithm_M3_k2_n22.csv").read_text(
            encoding="utf-8"
        )
        assert out == want

    def test_text_table_has_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--id", "bigcomb", "--n", "19")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split(" | ")[0].strip() == "mu"
        assert len(lines) == 27

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--id", "firstbigcomb", "--n", "22",
            "--format", "json",
        )
        doc = json.loads(out)
        assert len(doc["rows"]) == 26
        assert doc["rows"][-1] == {
            "mu": "2^11", "lambda": "22", "col": "1^20",
            "signature": [11, 0, 0],
        }

    def test_unknown_statement(self, capsys):
        code, _, err = run_cli(capsys, "table", "--id", "nope", "--n", "5")
        assert code == EXIT_USAGE

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--id", "firstbigcomb", "--n", "-3"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: table needs --n >= 0\n"

    @pytest.mark.parametrize("n", ["0", "26"])
    def test_n_below_n_min_is_usage_error(self, capsys, n):
        # spec2's two classes agree only from n = 27 on
        code, out, err = run_cli(capsys, "table", "--id", "spec2", "--n", n)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: table --id spec2 needs --n >= 27\n"

    def test_table_at_n_min(self, capsys):
        code, out, err = run_cli(capsys, "table", "--id", "spec2", "--n", "27")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "mu      | lambda       | col | signature\n"
            "(16,11) | (10,8,5,3,1) | (2) | ()\n"
        )

    def test_missing_param_says_it_is_missing(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--id", "generalminithm", "--n", "10"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: statement generalminithm needs a parameter M "
            "(M+1 = 2 or 3 mod 5)\n"
        )

    def test_class_too_large_refused_before_listing(self, capsys):
        code, out, err = run_cli(capsys, "table", "--id", "bigcomb", "--n", "200")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: parts = [1, 4] mod 5 has at least ")

    @pytest.mark.parametrize(
        "statement_id,restrict,watched,given",
        [("spec1", "1,2,3", 0, 3), ("bigcomb", "1,2", 3, 2)],
    )
    def test_restrict_of_wrong_length_is_usage_error(
        self, capsys, statement_id, restrict, watched, given
    ):
        code, out, err = run_cli(
            capsys, "table", "--id", statement_id, "--n", "10",
            "--restrict", restrict,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: table --id {statement_id} --restrict needs {watched} "
            f"values, one per watched part size, got {given}\n"
        )


class TestRefineCheckCommand:
    def test_single_statement(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine-check", "--id", "spec3", "--n-max", "24"
        )
        assert code == EXIT_OK
        assert "PASS spec3" in out

    def test_param_bound_statement(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine-check", "--id", "general2partcor", "--param", "7",
            "--n-max", "20",
        )
        assert code == EXIT_OK
        assert "general2partcor[M=7]" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine-check", "--id", "spec1", "--n-max", "18",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["failed"] == 0

    def test_inadmissible_param_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "generalminithm", "--param", "3"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: statement generalminithm needs admissible M "
            "(M+1 = 2 or 3 mod 5), got 3\n"
        )

    def test_param_above_bound_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "generalminithm",
            "--param", "1000000001", "--n-max", "20",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: statement generalminithm takes M <= 100, got 1000000001\n"
        )

    def test_negative_n_max_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "refine-check", "--n-max", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: refine-check needs --n-max >= 0\n"

    def test_n_max_below_n_min_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "spec2", "--n-max", "10"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: refine-check --id spec2 needs --n-max >= 27\n"

    def test_n_max_above_ceiling_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "spec3", "--n-max", str(MAX_ORDER + 1)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: refine-check needs --n-max <= {MAX_ORDER}\n"

    def test_spec3_runs_at_the_ceiling(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine-check", "--id", "spec3", "--n-max", str(MAX_ORDER)
        )
        assert code == EXIT_OK
        assert out.startswith(f"PASS spec3 n=0..{MAX_ORDER} triple agreement\n")

    def test_tally_cap_applies_at_the_mismatch(self, capsys, monkeypatch):
        # bigcomb's sum side gains q^400, where its tallies would hold more
        # than MAX_TALLY_BITS bits; MAX_TALLY_BITS is checked at the mismatch
        get_entry = combinatorics.get_entry
        monkeypatch.setattr(
            combinatorics, "get_entry",
            lambda id: reference.WithTerms(
                get_entry(id), (rational_term(400, 1),)
            ),
        )
        stmt = combinatorics.get_statement("bigcomb").instantiate()
        bits = combinatorics.tally_bits(stmt, 400)
        assert bits > MAX_TALLY_BITS
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "bigcomb", "--n-max", "1000"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: bigcomb: the mismatch at n=400 needs {bits} bits of "
            f"packed tallies; the limit is {MAX_TALLY_BITS}\n"
        )

    @staticmethod
    def _wide(monkeypatch, const):
        # generalminithm[M=2] whose rule from 2 parts takes one cell: the
        # signature const + k_1 // 3, with k_1 in 0..2 mod 3
        stmt = combinatorics.get_statement("generalminithm").instantiate(2)
        cell = combinatorics.Cell((const,), {1: range(3)}, [({1: 3}, (1,))])
        wide = stmt.replace(rules=tuple(
            rule.replace(cells=[cell]) if rule.lo == 2 else rule
            for rule in stmt.rules
        ))
        family = identities.Family("wide", lambda: wide)
        monkeypatch.setattr(combinatorics, "get_statement", lambda id: family)

    @pytest.mark.parametrize("n_max", ["41", "42", "400"])
    def test_signature_within_its_field_is_decided(self, capsys, monkeypatch,
                                                   n_max):
        # FIELD_MASK - 13 + k_1 // 3 passes the field of t from k_1 = 42 on,
        # but no packed run reaches such a key
        self._wide(monkeypatch, FIELD_MASK - 13)
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "wide", "--n-max", n_max
        )
        assert (code, err) == (EXIT_CHECK_FAILED, "")
        assert out.startswith(
            "FAIL generalminithm[M=2]: n=6 signature (0,): product 1 vs case "
            "rules 0\n"
        )

    def test_expansion_past_its_field_is_usage_error(self, capsys,
                                                     monkeypatch):
        # the cleared numerators fit, the expansion of the mismatch at n=6
        # would pass the field of t
        self._wide(monkeypatch, FIELD_MASK - 1)
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "wide", "--n-max", "40"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: generalminithm[M=2]: the exponent of t could reach "
            f"{FIELD_MASK + 1} in the expansion at order 6, above "
            f"{FIELD_MASK}\n"
        )

    def test_exponent_past_its_field_is_usage_error(self, capsys,
                                                    monkeypatch):
        # t^FIELD_MASK / (1 - t*q) in spec1's sum side: t could reach
        # FIELD_MASK + 1 over the common denominator
        get_entry = combinatorics.get_entry
        term = rational_term(
            0, WeightPolynomial.monomial(pack_monomial(t=FIELD_MASK)),
            ((MONO_T, 1),),
        )
        monkeypatch.setattr(
            combinatorics, "get_entry",
            lambda id: reference.WithTerms(get_entry(id), (term,)),
        )
        code, out, err = run_cli(
            capsys, "refine-check", "--id", "spec1", "--n-max", "20"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: spec1: the exponent of t could reach {FIELD_MASK + 1} "
            f"over the common denominator at order 20, above {FIELD_MASK}\n"
        )

    def test_deep_sweep_stays_small(self):
        # `--id all` passes on cleared numerators past the --n-max 332 that
        # a tally cap on every statement once admitted, in a few MB (the
        # expanded tallies took 2.36 GB at 332).  A child's peak RSS starts
        # at its parent's at the fork, so a small launcher forks the CLI
        # and reports its peak.
        launcher = (
            "import os, sys\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os.execv(sys.executable, [sys.executable, '-m', "
            "'rrweights.cli', *sys.argv[1:]])\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", launcher, "refine-check", "--id", "all",
             "--n-max", "1000"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        *lines, last = done.stdout.splitlines()
        code, peak_kb = map(int, last.split())
        assert code == EXIT_OK
        assert sum(line.startswith("PASS ") for line in lines) == 19
        assert lines[-1] == "checked 19 statements: 19 passed, 0 failed"
        assert peak_kb < 300 * 1024

    def test_largest_tallies_admitted_before_stay_admitted(self):
        # the deepest job with the largest tallies that charging each rule
        # for all of its statement's sizes admitted
        stmt = combinatorics.get_statement("general2part14cor").instantiate(36)
        assert combinatorics.tally_bits(stmt, 1413) == 5114381440
        assert 5114381440 <= MAX_TALLY_BITS

    def test_full_sweep_lists_no_class(self, capsys):
        partitions.enumerate_class.cache_clear()
        code, out, _ = run_cli(capsys, "refine-check", "--id", "all", "--n-max", "60")
        assert code == EXIT_OK
        assert out.endswith("checked 19 statements: 19 passed, 0 failed\n")
        assert partitions.enumerate_class.cache_info().currsize == 0

    def test_caches_stay_bounded_over_full_sweep(self):
        # listing the gap-2 class of every swept statement to n = 60 fills
        # all three caches
        caches = (partitions.enumerate_class, partitions.col, partitions.col_star)
        for cache in caches:
            cache.cache_clear()
        for entry in combinatorics.statements():
            for M in entry.sweep(12):
                stmt = entry.instantiate(M)
                for n in range(61):
                    reference.count_diff_refined(stmt, n)
        for cache in caches:
            info = cache.cache_info()
            # the whole working set fits, so nothing was evicted and recomputed
            assert info.maxsize is not None
            assert 0 < info.currsize < info.maxsize
            assert info.misses == info.currsize


class TestBenchmarkReference:
    """The output checks of bench/run.py, made in-process."""

    BENCH = Path(__file__).parent.parent / "bench"

    def test_refine_sweep_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "refine-check", "--id", "all", "--n-max", "60")
        want = (self.BENCH / "reference" / "refine-sweep.txt").read_text(
            encoding="utf-8"
        )
        assert code == EXIT_OK
        assert sorted(out.splitlines()) == sorted(want.splitlines())

    @pytest.mark.parametrize(
        "name",
        ["firsttw-secondtw", "miniprop-q2", "twvthm-q12", "twvx23theorem-q12"],
    )
    def test_discover_matches_reference(self, capsys, name):
        problem = self.BENCH / "problems" / f"{name}.json"
        code, out, _ = run_cli(capsys, "discover", "--problem", str(problem))
        assert code == EXIT_OK
        want = (self.BENCH / "reference" / f"{name}.txt").read_text(
            encoding="utf-8"
        )
        assert out == want

    @pytest.mark.parametrize(
        "argv,counts",
        [
            (["refine-check", "--id", "all", "--n-max", "30"],
             {"identities.instances": 19, "combinatorics.statements": 19}),
            (["verify", "--id", "partM", "--id", "spec1", "--max-param", "8"],
             {"identities.instances": 5}),
            (["discover", "--problem",
              str(BENCH / "problems" / "miniprop-q2.json")],
             {"discovery.unknowns": 4, "discovery.rank": 4}),
        ],
        ids=["refine-check", "verify", "discover"],
    )
    def test_trace_hooks_find_their_targets(self, tmp_path, argv, counts):
        # `bench/run.py --trace 1` wraps functions and methods by name, so a
        # renamed target stops a traced job with a LookupError
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, str(self.BENCH / "child.py"), "trace",
             str(tmp_path / "spans.tsv"), *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["exit"] == EXIT_OK
        for name, want in counts.items():
            assert report["counts"][name] == want, name


class TestGoldenOutputs:
    """Whole outputs past the bench reference's orders, byte for byte."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["refine-check", "--id", "all", "--n-max", "100"],
             "refine_check_all_n100.txt"),
            (["refine-check", "--id", "all", "--n-max", "100", "--format",
              "json"], "refine_check_all_n100.json"),
            (["refine-check", "--id", "all", "--n-max", "106"],
             "refine_check_all_n106.txt"),
            (["refine-check", "--id", "all", "--n-max", "106", "--format",
              "json"], "refine_check_all_n106.json"),
            (["refine-check", "--id", "all", "--n-max", "153"],
             "refine_check_all_n153.txt"),
            (["verify", "--id", "all", "--order", "160"],
             "verify_all_order160.txt"),
        ],
        ids=[
            "refine-check-100", "refine-check-100-json", "refine-check-106",
            "refine-check-106-json", "refine-check-153", "verify-160",
        ],
    )
    def test_matches_golden(self, capsys, argv, name):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestDiscoverCommand:
    def test_solves_problem_file(self, capsys, tmp_path):
        doc = {
            "target": {"catalog_id": "miniprop"},
            "fixed": {
                "catalog_id": "miniprop",
                "term_indices": [0],
                "include_tail": True,
            },
            "templates": [
                {
                    "q_shift": 2,
                    "denominator": [["t", 2]],
                    "max_degree": 1,
                    "monomials": ["1", "t"],
                }
            ],
            "match_order": 20,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "discover", "--problem", str(path))
        assert code == EXIT_OK
        assert "numerator[0] = t + q" in out
        assert "soundness check: pass" in out

    def test_weight_exponent_past_its_field_is_usage_error(
        self, capsys, tmp_path
    ):
        template = {"q_shift": 0, "max_degree": 0, "monomials": ["1"]}
        doc = {
            "target": {"catalog_id": "rr1"},
            "fixed": {"catalog_id": "rr1"},
            "templates": [
                {**template, "denominator": [["w^4096", 1]] * 16},
                {**template, "denominator": []},
            ],
            "match_order": 20,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "discover", "--problem", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: bad problem document: the exponent of w could reach "
            "65536 over the common denominator at order 40, above 65535\n"
        )

    def test_inconsistent_problem_exits_nonzero(self, capsys, tmp_path):
        doc = {
            "target": {"catalog_id": "rr2"},
            "fixed": {"catalog_id": "rr1", "include_tail": True},
            "templates": [],
            "match_order": 20,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "discover", "--problem", str(path))
        assert code == EXIT_CHECK_FAILED
        assert "inconsistent" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "discover", "--problem", "/no/such.json")
        assert code == EXIT_USAGE

    def _bad_document(self, capsys, tmp_path, edit, edit_text=str):
        doc = {
            "target": {"catalog_id": "miniprop"},
            "fixed": {"catalog_id": "miniprop", "term_indices": [0]},
            "templates": [{
                "q_shift": 2, "denominator": [["t", 2]], "max_degree": 1,
                "monomials": ["1", "t"],
            }],
            "match_order": 20,
        }
        edit(doc)
        path = tmp_path / "problem.json"
        path.write_text(edit_text(json.dumps(doc)), encoding="utf-8")
        code, out, err = run_cli(capsys, "discover", "--problem", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: bad problem document: ")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["fixed"].update(term_indices=5),
             "fixed.term_indices must be a JSON array, got a number"),
            (lambda d: d["templates"][0].update(denominator=3),
             "templates[0].denominator must be a JSON array, got a number"),
            (lambda d: d["templates"][0].update(denominator=[["t"]]),
             "templates[0].denominator factor must be a [monomial, exponent] "
             "pair, got ['t']"),
            (lambda d: d["templates"][0].update(monomials=7),
             "templates[0].monomials must be a JSON array, got a number"),
        ],
        ids=["term_indices", "denominator", "denominator-factor", "monomials"],
    )
    def test_part_of_the_wrong_type(self, capsys, tmp_path, edit, message):
        err = self._bad_document(capsys, tmp_path, edit)
        assert err == f"error: bad problem document: {message}\n"

    @pytest.mark.parametrize(
        "edit,path",
        [
            (lambda d: d.update(match_ordr=3), "match_ordr"),
            (lambda d: d["target"].update(parm=2), "target.parm"),
            (lambda d: d["fixed"].update(include_tal=False),
             "fixed.include_tal"),
            (lambda d: d["templates"][0].update(qshift=2), "templates[0].qshift"),
        ],
        ids=["top-level", "target", "fixed", "template"],
    )
    def test_unknown_field(self, capsys, tmp_path, edit, path):
        # a misspelt key is refused, not read as its default
        err = self._bad_document(capsys, tmp_path, edit)
        assert err == f"error: bad problem document: unknown field {path}\n"

    def test_malformed_power(self, capsys, tmp_path):
        # "t^" is not read as t
        err = self._bad_document(
            capsys, tmp_path,
            lambda d: d["templates"][0].update(monomials=["1", "t^"]),
        )
        assert err == (
            "error: bad problem document: power '' in 't^' is not ASCII "
            "decimal digits\n"
        )

    def test_power_past_the_field(self, capsys, tmp_path):
        # a power that cannot be packed is named by its field as well
        err = self._bad_document(
            capsys, tmp_path,
            lambda d: d["templates"][0].update(monomials=["1", "t^70000"]),
        )
        assert err == (
            "error: bad problem document: templates[0].monomials has a "
            f"weight exponent above {MAX_ORDER}\n"
        )

    def test_power_of_thousands_of_digits(self, capsys, tmp_path):
        # named by its field like a short one, not by `int`'s digit limit
        err = self._bad_document(
            capsys, tmp_path,
            lambda d: d["templates"][0].update(monomials=["t^" + "9" * 5000]),
        )
        assert err == (
            "error: bad problem document: templates[0].monomials has a "
            f"weight exponent above {MAX_ORDER}\n"
        )

    def test_number_of_thousands_of_digits(self, capsys, tmp_path):
        # json.dumps cannot write such an int either, so the text is edited
        long = "9" * 5000
        err = self._bad_document(
            capsys, tmp_path, lambda d: None,
            lambda text: text.replace('"q_shift": 2', f'"q_shift": {long}'),
        )
        assert err == (
            "error: bad problem document: the number 99999999999999999999... "
            "has 5000 digits, too many to read\n"
        )

    def test_zero_denominator_exponent(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path,
            lambda d: d["templates"][0].update(denominator=[["t", 0]]),
        )
        assert "denominator exponent must be an integer >= 1, got 0" in err

    def test_negative_q_shift(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d["templates"][0].update(q_shift=-2)
        )
        assert "q_shift must be an integer >= 0, got -2" in err

    def test_negative_match_order(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d.update(match_order=-1)
        )
        assert "match_order must be an integer >= 0, got -1" in err

    def test_non_integer_match_order(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d.update(match_order="20")
        )
        assert "match_order must be an integer >= 0, got '20'" in err

    def test_negative_max_degree(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d["templates"][0].update(max_degree=-1)
        )
        assert "max_degree must be an integer >= 0, got -1" in err

    def test_non_string_catalog_id(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d["target"].update(catalog_id=5)
        )
        assert err.endswith(
            "target.catalog_id must be a catalog id string, got 5\n"
        )

    def test_non_boolean_include_tail(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d["fixed"].update(include_tail="no")
        )
        assert err.endswith(
            "fixed.include_tail must be true or false, got 'no'\n"
        )

    def test_missing_param_says_it_is_missing(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d["target"].update(catalog_id="partM")
        )
        assert err == (
            "error: bad problem document: identity partM needs a parameter "
            "M (M+1 = 2 or 3 mod 5)\n"
        )

    def test_match_order_above_ceiling(self, capsys, tmp_path):
        err = self._bad_document(
            capsys, tmp_path, lambda d: d.update(match_order=MAX_ORDER)
        )
        assert f"orders stop at {MAX_ORDER}" in err

    def test_more_unknowns_than_the_default_order_allows(self, capsys, tmp_path):
        # two monomials at degrees 0..1019: 2040 unknowns, at match order 20
        err = self._bad_document(
            capsys, tmp_path,
            lambda d: d["templates"][0].update(max_degree=1019),
        )
        assert err == (
            "error: bad problem document: templates hold 2040 unknowns, "
            f"above the {MAX_ORDER // 2 - 10} that the default match order "
            "allows\n"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ('"x"', "the top level must be a JSON object, got a string"),
            ("[1]", "the top level must be a JSON object, got an array"),
            ('{"target": {"catalog_id": "miniprop"}, "templates": []}',
             "fixed is missing"),
            ('{"target": {}, "fixed": {}, "templates": []}',
             "target.catalog_id is missing"),
        ],
    )
    def test_document_of_the_wrong_shape(self, capsys, tmp_path, text, message):
        path = tmp_path / "problem.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "discover", "--problem", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: bad problem document: {message}\n"

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff{}")
        code, out, err = run_cli(capsys, "discover", "--problem", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot read problem file: ")
        assert err.count("\n") == 1


class TestOutOfMemory:
    def test_memory_error_exits_with_one_line(self, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setitem(cli._RUNNERS, "verify", exhausted)
        code, out, err = run_cli(capsys, "verify", "--id", "twvx14thm")
        assert (code, out) == (EXIT_OUT_OF_MEMORY, "")
        assert err == "error: verify ran out of memory\n"


class _Unwritable:
    """A stderr whose writes fail, as one on a full device does, over an
    fd of its own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self.fd


class TestUnwritableStderr:
    """An error keeps its status when its line cannot be written."""

    @pytest.mark.parametrize("raised, code", [
        (ZeroDivisionError("division by zero"), EXIT_ARITHMETIC),
        (MemoryError(), EXIT_OUT_OF_MEMORY),
        (cli.UsageError("bad"), EXIT_USAGE),
    ])
    def test_status_kept(self, capsys, monkeypatch, raised, code):
        def failing(args):
            raise raised

        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            monkeypatch.setitem(cli._RUNNERS, "verify", failing)
            monkeypatch.setattr(sys, "stderr", _Unwritable(fd))
            assert main(["verify", "--id", "rr1"]) == code
        finally:
            os.close(fd)
        assert capsys.readouterr().out == ""


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run_cli(
            capsys, "verify", "--id", "rr2", "--output", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        assert "PASS rr2" in path.read_text(encoding="utf-8")

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(
            capsys, "verify", "--id", "rr1", "--output", str(path)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: cannot write --output {path}: No such file or directory\n"
        )

    def test_unwritable_output_refused_before_the_work(
        self, capsys, monkeypatch, tmp_path
    ):
        def must_not_run(config):
            raise AssertionError("the job ran before --output was checked")

        monkeypatch.setitem(cli._RUNNERS, "refine-check", must_not_run)
        code, out, err = run_cli(
            capsys, "refine-check", "--output", str(tmp_path)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: cannot write --output {tmp_path}: Is a directory\n"

    def test_usage_error_leaves_existing_output_intact(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("kept\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "verify", "--id", "nosuch", "--output", str(path)
        )
        assert code == EXIT_USAGE
        assert path.read_text(encoding="utf-8") == "kept\n"
        code, _, _ = run_cli(
            capsys, "verify", "--id", "rr2", "--output", str(path)
        )
        assert code == EXIT_OK
        assert path.read_text(encoding="utf-8").startswith("PASS rr2")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_output_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--id", "rr1", "--output", "/dev/full"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: cannot write --output /dev/full: No space left on device\n"
        )


def run_process(*argv, unbuffered=False, **kwargs):
    """`python -m rrweights.cli ARGV...` with text output and 80 columns."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(
        PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
        COLUMNS="80", LINES="24",
    )
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "rrweights.cli", *argv],
        env=env, text=True, **kwargs,
    )


class TestProcessEntry:
    """`python -m rrweights.cli` and the `rrweights` script run cli.entry."""

    # a short result, one longer than a buffered stdout holds, and the
    # help that argparse writes
    RESULTS = [
        ("verify", "--id", "rr1"),
        ("enumerate", "--class", "diff2_star", "--n", "60"),
        ("--help",),
    ]

    @pytest.mark.parametrize("argv", [
        ("verify", "--id", "rr1"), ("verify", "--order", "5"), ("nosuch",),
        ("--help",),
    ])
    def test_main_leaves_the_collector_unfrozen(self, capsys, argv):
        before = gc.get_freeze_count()
        try:
            main(list(argv))
        except SystemExit:
            pass
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_entry_freezes_on_every_exit(self, capsys, monkeypatch):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))

        def broken(args):
            raise RuntimeError("broken")

        monkeypatch.setitem(cli._RUNNERS, "table", broken)
        for argv, code in (
            (["verify", "--id", "rr1"], EXIT_OK),
            (["verify", "--order", "5"], EXIT_USAGE),
        ):
            monkeypatch.setattr(sys, "argv", ["rrweights", *argv])
            assert cli.entry() == code
        for argv, raised in ((["--help"], SystemExit),
                             (["table", "--id", "x", "--n", "1"], RuntimeError)):
            monkeypatch.setattr(sys, "argv", ["rrweights", *argv])
            with pytest.raises(raised):
                cli.entry()
        capsys.readouterr()
        assert len(frozen) == 4

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert doc["project"]["scripts"] == {"rrweights": "rrweights.cli:entry"}

    @pytest.mark.parametrize("argv", [
        ("verify", "--id", "rr1", "--output", "{path}"),
        ("verify", "--id", "rr1"), ("verify", "--order", "5"), ("nosuch",),
        ("--help",),
    ])
    def test_process_matches_main(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("LINES", "24")
        results = []
        for side in ("main", "process"):
            path = tmp_path / f"{side}.txt"
            args = [a.format(path=path) for a in argv]
            if side == "main":
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                out, err = captured.out, captured.err
            else:
                done = run_process(*args, capture_output=True)
                code, out, err = done.returncode, done.stdout, done.stderr
            written = path.read_bytes() if path.exists() else None
            results.append((code, out, err, written))
        assert results[0] == results[1]
        assert results[0][0] in (EXIT_OK, EXIT_USAGE)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", RESULTS)
    def test_full_stdout_is_usage_error(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            done = run_process(
                *argv, unbuffered=unbuffered, stdout=full, stderr=subprocess.PIPE,
            )
        assert (done.returncode, done.stderr) == (
            EXIT_USAGE, "error: cannot write stdout: No space left on device\n"
        )

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", RESULTS)
    def test_closed_pipe_is_usage_error(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_process(
                *argv, unbuffered=unbuffered, stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            EXIT_USAGE, "error: cannot write stdout: Broken pipe\n"
        )

    @pytest.mark.parametrize("argv", RESULTS)
    def test_closed_stdout_is_usage_error(self, argv):
        done = run_process(
            *argv, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
        )
        assert (done.returncode, done.stderr) == (
            EXIT_USAGE, "error: cannot write stdout: Bad file descriptor\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv, code, full_stdout", [
        (("verify", "--order", "5"), EXIT_USAGE, False),
        (("verify", "--id", "rr1"), EXIT_USAGE, True),
        (("verify", "--id", "rr1"), EXIT_OK, False),
    ])
    def test_full_stderr_keeps_the_status(self, argv, code, full_stdout):
        with open("/dev/full", "w") as full:
            stdout = full if full_stdout else subprocess.PIPE
            done = run_process(*argv, stdout=stdout, stderr=full)
        assert done.returncode == code

    @pytest.mark.parametrize("argv, code, out", [
        (("verify", "--order", "5"), EXIT_USAGE, ""),
        (("verify", "--bogus"), EXIT_USAGE, ""),
        (("verify", "--id", "rr1"), EXIT_OK, "PASS rr1 "),
        (("--help",), EXIT_OK, "usage: rrweights "),
    ])
    def test_closed_stderr_keeps_the_status(self, argv, code, out):
        # an error line, argparse's usage too, is lost, not written to
        # stdout instead
        done = run_process(
            *argv, preexec_fn=lambda: os.close(2), stdout=subprocess.PIPE,
        )
        assert done.returncode == code
        if out:
            assert done.stdout.startswith(out)
        else:
            assert done.stdout == ""

    def test_closed_stdout_unread_with_output(self, tmp_path):
        path = tmp_path / "out.txt"
        done = run_process(
            "verify", "--id", "rr1", "--output", str(path),
            preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert path.read_text(encoding="utf-8").startswith("PASS rr1 ")


class TestHelpAndUsageErrors:
    """Help, and argparse's usage errors, as recorded in cli_usage.json:
    no command, an unknown one, an unrecognized or missing argument after
    each command, `--help`, `<command> --help` and a bad choice."""

    CASES = json.loads((GOLDEN / "cli_usage.json").read_text(encoding="utf-8"))

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="recorded with Python 3.11; argparse words usage per version",
    )
    @pytest.mark.parametrize(
        "case", CASES, ids=[" ".join(c["argv"]) or "-" for c in CASES]
    )
    def test_matches_recorded(self, capsys, monkeypatch, case):
        # argparse wraps help at the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("LINES", "24")
        try:
            code = main(list(case["argv"]))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            case["exit"], case["stdout"], case["stderr"]
        )


def test_only_series_reads_packed_ints():
    # the digit layout of a packed series is known to `series` alone: no
    # other module imports its digit helpers or kernels, or reads a width
    private = {
        "_Packing", "_Majorant", "balanced_digit", "lowest_digit",
        "nonzero_digits", "first_difference", "geometric_divide",
    }
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem == "series":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "series", "rrweights.series",
            ):
                found += [
                    (path.stem, alias.name) for alias in node.names
                    if alias.name in private
                ]
            elif isinstance(node, ast.Attribute) and node.attr == "width":
                found.append((path.stem, "width"))
    assert found == []


def test_only_series_and_partitions_shift_bits():
    # the bit layout of a packed monomial is known to `series` alone; only
    # `partitions` shifts bits of its own, in its reach sets
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem in ("series", "partitions"):
            continue
        found += [
            (path.stem, node.lineno)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, (ast.LShift, ast.RShift))
        ]
    assert found == []


def test_only_series_names_the_field_width():
    # whether an exponent fits its field is decided in `series` alone: no
    # other module imports or reads FIELD_MASK
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem == "series":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [
                    (path.stem, node.lineno) for alias in node.names
                    if alias.name == "FIELD_MASK"
                ]
            elif (
                isinstance(node, ast.Name) and node.id == "FIELD_MASK"
                or isinstance(node, ast.Attribute) and node.attr == "FIELD_MASK"
            ):
                found.append((path.stem, node.lineno))
    assert found == []


def test_substitutions_apply_once():
    # a substitution rewrites a tail's or product's factors when it is
    # applied: no module holds one to read later, and outside `series` only
    # the `substituted` methods substitute a factor
    def calls(tree):
        return sum(
            isinstance(node, ast.Name) and node.id == "substitute_factor"
            or isinstance(node, ast.Attribute)
            and node.attr == "substitute_factor"
            for node in ast.walk(tree)
        )

    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            (path.stem, "subs") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "subs"
        ]
        allowed = sum(
            calls(node) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "substituted"
        )
        if path.stem != "series" and calls(tree) > allowed:
            found.append((path.stem, "substitute_factor"))
    assert found == []


def test_cli_import_defers_per_command_modules():
    # each command imports what only it needs when it runs
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, rrweights.cli; print(sorted(m for m in ("
        "'rrweights.combinatorics', 'rrweights.discovery', 'fractions', "
        "'json') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout == "[]\n"
    # discover divides by its pivots as ints where they divide exactly, and
    # every pivot of the bench problems does
    problem = Path(__file__).parent.parent / "bench/problems/miniprop-q2.json"
    probe = (
        "import contextlib, io, sys; from rrweights import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['discover', '--problem', {str(problem)!r}])\n"
        "print(code, sorted(m for m in ('fractions', 'decimal') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout == "0 []\n"
    # csv only when a table is written as CSV
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, rrweights.combinatorics; print('csv' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout == "False\n"
    # no dataclasses (nor the inspect they import) in any module's import,
    # beyond what a bare interpreter loads itself
    probe = (
        "import sys{}; print(sorted(m for m in ('dataclasses', 'inspect') "
        "if m in sys.modules))"
    )
    bare, loaded = (
        subprocess.run(
            [sys.executable, "-c", probe.format(imports)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        ).stdout
        for imports in ("", ", rrweights, rrweights.cli, "
                        "rrweights.combinatorics, rrweights.discovery")
    )
    assert loaded == bare
