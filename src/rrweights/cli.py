"""Command-line front end: verify, enumerate, table, refine-check, discover.

Exit status: 0 when every requested check passes, 1 when any check fails,
2 for usage errors (bad flags, unknown ids, out-of-range orders), 3 for
arithmetic errors, 4 when the command runs out of memory.  Output is
deterministic for a fixed invocation.
"""

import argparse
import io
import os
import sys

from . import identities
from .partitions import (
    NAMED_CLASSES,
    PartitionClass,
    class_size,
    enumerate_class,
)
from .series import MAX_ORDER

ENV_ORDER = "RRWEIGHTS_ORDER"
MIN_VERIFY_ORDER = 30
# enumerate and table refuse a larger --n, and a class with more
# partitions of n than MAX_LISTED; refine-check refuses an invocation whose
# case rules would be called more often than MAX_LISTED, or in which one
# statement's packed tallies would hold more than MAX_TALLY_BITS bits: just
# above the largest admitted when each rule was charged for every size its
# statement reads (general2part14cor M=36 at --n-max 1413: 5,114,381,440).
MAX_LIST_N = 10**5
MAX_LISTED = 10**6
MAX_TALLY_BITS = 52 * 10**8

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ARITHMETIC = 3
EXIT_OUT_OF_MEMORY = 4


class UsageError(ValueError):
    pass


def _default_order():
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_ORDER} must be an integer, got {raw!r}")


def _open_output(args, mode):
    try:
        return open(args.output, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(
            f"cannot write --output {args.output}: {exc.strerror}"
        )


def _emit(args, text):
    if args.output:
        with _open_output(args, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc):
    import json

    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_reports(args, reports, verb, noun):
    """Write one line per report and a summary, or one JSON document;
    returns the exit status."""
    failed = sum(1 for r in reports if not r.ok)
    passed = len(reports) - failed
    if args.fmt == "json":
        _emit_json(args, {
            "command": args.command,
            "results": [r.to_json() for r in reports],
            "passed": passed,
            "failed": failed,
        })
    else:
        lines = [r.text_line() for r in reports]
        lines.append(
            f"{verb} {len(reports)} {noun}: {passed} passed, {failed} failed"
        )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _select(ids, every, get, what):
    """The entries named by --id; all of them for none or `--id all`."""
    if ids is None or ids == ["all"]:
        return every()
    try:
        return [get(i) for i in ids]
    except KeyError as exc:
        raise UsageError(f"unknown {what} id: {exc.args[0]}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _run_verify(args):
    order = args.order if args.order is not None else _default_order()
    if order is not None and order < MIN_VERIFY_ORDER:
        raise UsageError(
            f"--order must be at least {MIN_VERIFY_ORDER} for verify"
        )
    if order is not None and order > MAX_ORDER:
        raise UsageError(f"--order must be at most {MAX_ORDER} for verify")
    entries = _select(
        args.id, identities.catalog, identities.get_entry, "identity"
    )
    if args.param is None:
        for entry in entries:
            if not entry.sweep(args.max_param):
                raise UsageError(
                    f"verify --id {entry.id} has no admissible M up to "
                    f"--max-param {args.max_param}"
                )
    reports = identities.verify_all(
        order, args.max_param, entries, args.param
    )
    return _emit_reports(args, reports, "verified", "instances")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _resolve_class(args):
    if args.class_name:
        try:
            return NAMED_CLASSES[args.class_name]
        except KeyError:
            raise UsageError(
                f"unknown class {args.class_name!r}; choose from "
                f"{sorted(NAMED_CLASSES)} or give --modulus/--residues"
            )
    if args.modulus is None:
        raise UsageError("give --class or a --modulus/--residues rule")
    try:
        return PartitionClass.congruence(
            args.modulus, args.residues, args.forbid, args.allow
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _check_listable(pclass, n):
    """Refuse, before listing anything, a class too large to list."""
    if n > MAX_LIST_N:
        raise UsageError(f"enumerate and table take --n <= {MAX_LIST_N}")
    count = class_size(pclass, n, MAX_LISTED)
    if count > MAX_LISTED:
        raise UsageError(
            f"{pclass.describe()} has at least {count} partitions of {n}; "
            f"enumerate and table list at most {MAX_LISTED}"
        )


def _run_enumerate(args):
    if args.n < 0:
        raise UsageError("enumerate needs --n >= 0")
    pclass = _resolve_class(args)
    _check_listable(pclass, args.n)
    parts = enumerate_class(pclass, args.n)
    if args.fmt == "json":
        doc = {
            "command": "enumerate",
            "class": pclass.describe(),
            "n": args.n,
            "count": len(parts),
            "partitions": [p.exp_str() for p in parts],
        }
        _emit_json(args, doc)
    elif args.fmt == "csv":
        buf = io.StringIO()
        import csv as _csv

        writer = _csv.writer(buf, quoting=_csv.QUOTE_ALL, lineterminator="\n")
        writer.writerow(["partition"])
        for p in parts:
            writer.writerow([p.exp_str()])
        _emit(args, buf.getvalue())
    else:
        _emit(args, "".join(f"{p}\n" for p in parts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _run_table(args):
    from . import combinatorics

    if len(args.id) != 1 or args.id == ["all"]:
        raise UsageError("table needs exactly one --id")
    if args.n < 0:
        raise UsageError("table needs --n >= 0")
    (entry,) = _select(
        args.id, combinatorics.statements, combinatorics.get_statement,
        "statement",
    )
    stmt = entry.instantiate(args.param)
    restrict = args.restrict
    if restrict is not None and len(restrict) != len(stmt.watched):
        raise UsageError(
            f"table --id {entry.id} --restrict needs {len(stmt.watched)} "
            f"values, one per watched part size, got {len(restrict)}"
        )
    _check_listable(stmt.product_class, args.n)
    _check_listable(stmt.diff_class, args.n)
    rows = combinatorics.build_table(stmt, args.n, restrict=restrict)
    if args.fmt == "csv":
        _emit(args, combinatorics.table_csv(rows))
    elif args.fmt == "json":
        doc = {
            "command": "table",
            "id": stmt.id,
            "params": stmt.params,
            "n": args.n,
            "rows": [
                {
                    "mu": r.mu.exp_str(),
                    "lambda": r.lam.exp_str(),
                    "col": r.image.exp_str(),
                    "signature": list(r.signature),
                }
                for r in rows
            ],
        }
        _emit_json(args, doc)
    else:
        _emit(args, combinatorics.table_text(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine-check
# ---------------------------------------------------------------------------

def _run_refine_check(args):
    from . import combinatorics

    if args.n_max < 0:
        raise UsageError("refine-check needs --n-max >= 0")
    if args.n_max > MAX_ORDER:
        raise UsageError(f"refine-check needs --n-max <= {MAX_ORDER}")
    entries = _select(
        args.id, combinatorics.statements, combinatorics.get_statement,
        "statement",
    )
    stmts = []
    for entry in entries:
        params = [args.param] if args.param is not None else entry.sweep(12)
        for M in params:
            stmt = entry.instantiate(M)
            if args.n_max < stmt.n_min:
                raise UsageError(
                    f"refine-check --id {entry.id} needs --n-max >= {stmt.n_min}"
                )
            stmts.append(stmt)
    calls = sum(combinatorics.rule_calls(s, args.n_max) for s in stmts)
    if calls > MAX_LISTED:
        raise UsageError(
            f"refine-check --n-max {args.n_max} needs {calls} case-rule "
            f"calls; the limit is {MAX_LISTED}"
        )
    # statements are checked one at a time, so only one holds its tallies
    bits, label = max(
        (combinatorics.tally_bits(s, args.n_max), s.label()) for s in stmts
    )
    if bits > MAX_TALLY_BITS:
        raise UsageError(
            f"refine-check --n-max {args.n_max} needs {bits} bits of packed "
            f"tallies for {label}; the limit is {MAX_TALLY_BITS}"
        )
    reports = [combinatorics.check_refinement(s, args.n_max) for s in stmts]
    return _emit_reports(args, reports, "checked", "statements")


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

def _run_discover(args):
    import json

    from . import discovery

    if not args.problem_path:
        raise UsageError("discover needs --problem FILE")
    try:
        with open(args.problem_path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read problem file: {exc}")
    try:
        # the text is parsed there once, so a JSON string is not parsed again
        problem = discovery.load_problem(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"problem file is not valid JSON: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad problem document: {exc}")
    result = discovery.solve(problem)
    ok = result.status in (discovery.UNIQUE, discovery.UNDERDETERMINED)
    if ok and result.status == discovery.UNIQUE:
        ok = discovery.matches_target(problem, result.numerators)
    if args.fmt == "json":
        doc = {"command": "discover", **result.to_json(), "sound": ok}
        _emit_json(args, doc)
    else:
        lines = [f"status: {result.status} ({result.detail})"]
        if result.numerators is not None:
            for i, num in enumerate(result.numerators):
                lines.append(
                    f"numerator[{i}] = {discovery.qpoly_str(num)}"
                )
        if result.status == discovery.UNIQUE:
            lines.append(f"soundness check: {'pass' if ok else 'fail'}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(raw):
    return tuple(int(v) for v in raw.split(",") if v != "")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rrweights",
        description=(
            "Verify weighted Rogers-Ramanujan identities, enumerate the "
            "partition classes behind them, reproduce bijection tables, "
            "and solve for unknown sum-side numerators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="compare both sides over one denominator")
    p.add_argument("--id", action="append", default=None,
                   help="catalog id, repeatable; default all")
    p.add_argument("--order", type=int, default=None,
                   help=f"truncation order (>= {MIN_VERIFY_ORDER}; "
                        f"default {ENV_ORDER} or per-entry minimum)")
    p.add_argument("--param", type=int, default=None, help="bind parameter M")
    p.add_argument("--max-param", type=int, default=40,
                   help="sweep bound for parameterized entries")
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("enumerate", help="list partitions in a class")
    p.add_argument("--class", dest="class_name", default=None,
                   help=f"named class: {', '.join(sorted(NAMED_CLASSES))}")
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--residues", type=_int_list, default=())
    p.add_argument("--forbid", type=_int_list, default=())
    p.add_argument("--allow", type=_int_list, default=())
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                   default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("table", help="reproduce a bijection table")
    p.add_argument("--id", action="append", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--restrict", type=_int_list, default=None,
                   help="keep one signature, e.g. --restrict 2 or 1,0,3")
    p.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                   default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("refine-check", help="triple-agreement check")
    p.add_argument("--id", action="append", default=None)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("discover", help="solve for unknown numerators")
    p.add_argument("--problem", dest="problem_path", required=True)
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--output", default=None)

    return parser


_RUNNERS = {
    "verify": _run_verify,
    "enumerate": _run_enumerate,
    "table": _run_table,
    "refine-check": _run_refine_check,
    "discover": _run_discover,
}


def run(args):
    """Execute parsed arguments; returns the process exit status.

    An --output path is opened for appending before the work, so that an
    unwritable one is refused at once and an existing file is truncated
    only when the result is written.
    """
    try:
        if args.output:
            _open_output(args, "a").close()
        return _RUNNERS[args.command](args)
    except (UsageError, identities.ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def main(argv=None):
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
