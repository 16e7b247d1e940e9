"""Command-line front end: verify, enumerate, table, refine-check, discover.

Exit status: 0 when every requested check passes, 1 when any check fails,
2 for usage errors (bad flags, unknown ids, out-of-range orders) and for
an output that cannot be written, 3 for arithmetic errors, 4 when the
command runs out of memory.  Output is deterministic for a fixed
invocation.
"""

import argparse
import errno
import gc
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
from .series import FIELD_MASK, MAX_ORDER, FieldOverflowError

ENV_ORDER = "RRWEIGHTS_ORDER"
MIN_VERIFY_ORDER = 30
# enumerate and table refuse a larger --n, and a class with more
# partitions of n than MAX_LISTED.
MAX_LIST_N = 10**5
MAX_LISTED = 10**6

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


def _write_output(args, mode, text=""):
    try:
        with open(args.output, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(
            f"cannot write --output {args.output}: {exc.strerror}"
        )


def _stdout():
    """sys.stdout, which is None when the process started with fd 1 closed;
    that raises OSError, as a write to a closed descriptor does."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _emit(args, text):
    if args.output:
        _write_output(args, "w", text)
    else:
        _stdout().write(text)


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
        rule = (args.residues, args.forbid, args.allow)
        if args.modulus is not None or any(rule):
            raise UsageError(
                "give --class or a --modulus/--residues rule, not both"
            )
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
    if args.n < stmt.n_min:
        raise UsageError(f"table --id {entry.id} needs --n >= {stmt.n_min}")
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
    reach, label = max(
        (combinatorics.signature_reach(s, args.n_max), s.label())
        for s in stmts
    )
    if reach > FIELD_MASK:
        raise UsageError(
            f"refine-check --n-max {args.n_max} lets a signature entry of "
            f"{label} reach {reach}, above {FIELD_MASK}"
        )
    try:
        reports = [
            combinatorics.check_refinement(s, args.n_max) for s in stmts
        ]
    except (FieldOverflowError, combinatorics.TallyLimitError) as exc:
        raise UsageError(str(exc))
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


def _format_and_output(p, formats):
    p.add_argument("--format", dest="fmt", choices=formats, default="text")
    p.add_argument("--output", default=None)


def _verify_arguments(p):
    p.add_argument("--id", action="append", default=None,
                   help="catalog id, repeatable; default all")
    p.add_argument("--order", type=int, default=None,
                   help=f"truncation order (>= {MIN_VERIFY_ORDER}; "
                        f"default {ENV_ORDER} or per-entry minimum)")
    p.add_argument("--param", type=int, default=None, help="bind parameter M")
    p.add_argument("--max-param", type=int, default=40,
                   help="sweep bound for parameterized entries")
    _format_and_output(p, ("text", "json"))


def _enumerate_arguments(p):
    p.add_argument("--class", dest="class_name", default=None,
                   help=f"named class: {', '.join(sorted(NAMED_CLASSES))}")
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--residues", type=_int_list, default=())
    p.add_argument("--forbid", type=_int_list, default=())
    p.add_argument("--allow", type=_int_list, default=())
    p.add_argument("--n", type=int, required=True)
    _format_and_output(p, ("text", "csv", "json"))


def _table_arguments(p):
    p.add_argument("--id", action="append", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--restrict", type=_int_list, default=None,
                   help="keep one signature, e.g. --restrict 2 or 1,0,3")
    _format_and_output(p, ("text", "csv", "json"))


def _refine_check_arguments(p):
    p.add_argument("--id", action="append", default=None)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--param", type=int, default=None)
    _format_and_output(p, ("text", "json"))


def _discover_arguments(p):
    p.add_argument("--problem", dest="problem_path", required=True)
    _format_and_output(p, ("text", "json"))


# command -> (help line, its arguments, its runner)
_COMMANDS = {
    "verify": ("compare both sides over one denominator", _verify_arguments,
               _run_verify),
    "enumerate": ("list partitions in a class", _enumerate_arguments,
                  _run_enumerate),
    "table": ("reproduce a bijection table", _table_arguments, _run_table),
    "refine-check": ("triple-agreement check", _refine_check_arguments,
                     _run_refine_check),
    "discover": ("solve for unknown numerators", _discover_arguments,
                 _run_discover),
}
_RUNNERS = {name: runner for name, (_, _, runner) in _COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose writes to stdout (--help) raise on failure,
    as every other write of a result does; argparse's own swallows
    OSError.  Messages to stderr keep argparse's handling."""

    def _print_message(self, message, file=None):
        if file is sys.stderr:
            super()._print_message(message, file)
        elif message:
            (file or _stdout()).write(message)


def build_parser(argv=()):
    """The parser for `argv`: only the subparser of the command argv[0]
    names, or every subparser when it names none (help, a missing or an
    unknown command)."""
    parser = _Parser(
        prog="rrweights",
        description=(
            "Verify weighted Rogers-Ramanujan identities, enumerate the "
            "partition classes behind them, reproduce bijection tables, "
            "and solve for unknown sum-side numerators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_COMMANDS)
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
        # the top-level usage line still lists every command; set only
        # here, as a metavar also renames the argument in its own errors
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in names:
        help_line, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def run(args):
    """Execute parsed arguments; returns the process exit status.

    An --output path is opened for appending before the work, so that an
    unwritable one is refused at once and an existing file is truncated
    only when the result is written.
    """
    try:
        if args.output:
            _write_output(args, "a")
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
    if argv is None:
        argv = sys.argv[1:]
    return run(build_parser(argv).parse_args(argv))


def entry():
    """Run the `rrweights` command as a process; returns its exit status.

    Stdout is flushed here, so that a result that cannot be written (a full
    device, a pipe whose reader has gone, fd 1 closed) exits 2 with one
    line, as an unwritable --output does; fd 1 then points at os.devnull,
    so that the interpreter's flush at exit prints nothing more.  Any other
    OSError of a command is a usage error already.

    Last, gc.freeze() moves every live object into the permanent
    generation, which the collections run at finalization skip.  The
    process still exits normally: atexit handlers run, the streams are
    flushed and closed, and the status is main()'s.
    """
    try:
        try:
            return main()
        finally:
            # None when the process started with fd 1 closed
            if sys.stdout is not None:
                sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
