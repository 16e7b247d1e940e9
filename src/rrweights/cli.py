"""Command-line front end: verify, enumerate, table, refine-check, discover.

Exit status: 0 when every requested check passes, 1 when any check fails,
2 for usage errors (bad flags, unknown ids, out-of-range orders), 3 for
arithmetic errors, 4 when the command runs out of memory.  Output is
deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, field

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
# case rules would be called more often than MAX_LISTED.
MAX_LIST_N = 10**5
MAX_LISTED = 10**6

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ARITHMETIC = 3
EXIT_OUT_OF_MEMORY = 4


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its knobs."""

    command: str
    ids: list = field(default_factory=lambda: ["all"])
    order: int | None = None
    n: int | None = None
    n_max: int = 40
    param: int | None = None
    max_param: int = 40
    restrict: tuple | None = None
    fmt: str = "text"
    output: str | None = None
    problem_path: str | None = None
    class_name: str | None = None
    modulus: int | None = None
    residues: tuple = ()
    forbid: tuple = ()
    allow: tuple = ()


def _default_order():
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_ORDER} must be an integer, got {raw!r}")


def _open_output(config, mode):
    try:
        return open(config.output, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(
            f"cannot write --output {config.output}: {exc.strerror}"
        )


def _emit(config, text):
    if config.output:
        with _open_output(config, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(config, doc):
    import json

    _emit(config, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _resolve_entries(ids):
    if ids == ["all"]:
        return identities.catalog()
    return [identities.get_entry(i) for i in ids]


def _run_verify(config):
    order = config.order if config.order is not None else _default_order()
    if order is not None and order < MIN_VERIFY_ORDER:
        raise UsageError(
            f"--order must be at least {MIN_VERIFY_ORDER} for verify"
        )
    if order is not None and order > MAX_ORDER:
        raise UsageError(f"--order must be at most {MAX_ORDER} for verify")
    try:
        entries = _resolve_entries(config.ids)
    except identities.UnknownIdentityError as exc:
        raise UsageError(f"unknown identity id: {exc.args[0]}")
    if config.param is None:
        for entry in entries:
            if not entry.sweep(config.max_param):
                raise UsageError(
                    f"verify --id {entry.id} has no admissible M up to "
                    f"--max-param {config.max_param}"
                )
    reports = []
    for entry in entries:
        try:
            reports.extend(
                identities.verify_entry(
                    entry, order, config.max_param, config.param
                )
            )
        except identities.ParameterError as exc:
            raise UsageError(str(exc))
    failed = sum(1 for r in reports if not r.ok)
    if config.fmt == "json":
        doc = {
            "command": "verify",
            "results": [r.to_json() for r in reports],
            "passed": len(reports) - failed,
            "failed": failed,
        }
        _emit_json(config, doc)
    else:
        lines = [r.text_line() for r in reports]
        lines.append(
            f"verified {len(reports)} instances: "
            f"{len(reports) - failed} passed, {failed} failed"
        )
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _resolve_class(config):
    if config.class_name:
        try:
            return NAMED_CLASSES[config.class_name]
        except KeyError:
            raise UsageError(
                f"unknown class {config.class_name!r}; choose from "
                f"{sorted(NAMED_CLASSES)} or give --modulus/--residues"
            )
    if config.modulus is None:
        raise UsageError("give --class or a --modulus/--residues rule")
    try:
        return PartitionClass.congruence(
            config.modulus, config.residues, config.forbid, config.allow
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


def _run_enumerate(config):
    if config.n is None or config.n < 0:
        raise UsageError("enumerate needs --n >= 0")
    pclass = _resolve_class(config)
    _check_listable(pclass, config.n)
    parts = enumerate_class(pclass, config.n)
    if config.fmt == "json":
        doc = {
            "command": "enumerate",
            "class": pclass.describe(),
            "n": config.n,
            "count": len(parts),
            "partitions": [p.exp_str() for p in parts],
        }
        _emit_json(config, doc)
    elif config.fmt == "csv":
        buf = io.StringIO()
        import csv as _csv

        writer = _csv.writer(buf, quoting=_csv.QUOTE_ALL, lineterminator="\n")
        writer.writerow(["partition"])
        for p in parts:
            writer.writerow([p.exp_str()])
        _emit(config, buf.getvalue())
    else:
        _emit(config, "".join(f"{p}\n" for p in parts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _run_table(config):
    from . import combinatorics

    if len(config.ids) != 1 or config.ids == ["all"]:
        raise UsageError("table needs exactly one --id")
    if config.n is None or config.n < 0:
        raise UsageError("table needs --n >= 0")
    try:
        entry = combinatorics.get_statement(config.ids[0])
    except combinatorics.UnknownStatementError as exc:
        raise UsageError(f"unknown statement id: {exc.args[0]}")
    try:
        stmt = entry.instantiate(config.param)
    except ValueError as exc:
        raise UsageError(str(exc))
    restrict = config.restrict
    if restrict is not None and len(restrict) != len(stmt.watched):
        raise UsageError(
            f"table --id {entry.id} --restrict needs {len(stmt.watched)} "
            f"values, one per watched part size, got {len(restrict)}"
        )
    _check_listable(stmt.product_class, config.n)
    _check_listable(stmt.diff_class, config.n)
    rows = combinatorics.build_table(stmt, config.n, restrict=restrict)
    if config.fmt == "csv":
        _emit(config, combinatorics.table_csv(rows))
    elif config.fmt == "json":
        doc = {
            "command": "table",
            "id": stmt.id,
            "params": stmt.params,
            "n": config.n,
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
        _emit_json(config, doc)
    else:
        _emit(config, combinatorics.table_text(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine-check
# ---------------------------------------------------------------------------

def _run_refine_check(config):
    from . import combinatorics

    if config.n_max < 0:
        raise UsageError("refine-check needs --n-max >= 0")
    if config.n_max > MAX_ORDER:
        raise UsageError(f"refine-check needs --n-max <= {MAX_ORDER}")
    if config.ids == ["all"]:
        entries = combinatorics.statements()
    else:
        try:
            entries = [combinatorics.get_statement(i) for i in config.ids]
        except combinatorics.UnknownStatementError as exc:
            raise UsageError(f"unknown statement id: {exc.args[0]}")
    stmts = []
    for entry in entries:
        params = [config.param] if config.param is not None else entry.sweep(12)
        for M in params:
            try:
                stmt = entry.instantiate(M)
            except ValueError as exc:
                raise UsageError(str(exc))
            if config.n_max < stmt.n_min:
                raise UsageError(
                    f"refine-check --id {entry.id} needs --n-max >= {stmt.n_min}"
                )
            stmts.append(stmt)
    calls = sum(combinatorics.rule_calls(s, config.n_max) for s in stmts)
    if calls > MAX_LISTED:
        raise UsageError(
            f"refine-check --n-max {config.n_max} needs {calls} case-rule "
            f"calls; the limit is {MAX_LISTED}"
        )
    reports = [combinatorics.check_refinement(s, config.n_max) for s in stmts]
    failed = sum(1 for r in reports if not r.ok)
    if config.fmt == "json":
        doc = {
            "command": "refine-check",
            "results": [r.to_json() for r in reports],
            "passed": len(reports) - failed,
            "failed": failed,
        }
        _emit_json(config, doc)
    else:
        lines = [r.text_line() for r in reports]
        lines.append(
            f"checked {len(reports)} statements: "
            f"{len(reports) - failed} passed, {failed} failed"
        )
        _emit(config, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

def _run_discover(config):
    import json

    from . import discovery

    if not config.problem_path:
        raise UsageError("discover needs --problem FILE")
    try:
        with open(config.problem_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read problem file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"problem file is not valid JSON: {exc}")
    try:
        problem = discovery.load_problem(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad problem document: {exc}")
    result = discovery.solve(problem)
    ok = result.status in (discovery.UNIQUE, discovery.UNDERDETERMINED)
    if ok and result.status == discovery.UNIQUE:
        ok = discovery.matches_target(problem, result.numerators)
    if config.fmt == "json":
        doc = {"command": "discover", **result.to_json(), "sound": ok}
        _emit_json(config, doc)
    else:
        lines = [f"status: {result.status} ({result.detail})"]
        if result.numerators is not None:
            for i, num in enumerate(result.numerators):
                lines.append(
                    f"numerator[{i}] = {discovery.qpoly_str(num)}"
                )
        if result.status == discovery.UNIQUE:
            lines.append(f"soundness check: {'pass' if ok else 'fail'}")
        _emit(config, "\n".join(lines) + "\n")
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

    p = sub.add_parser("verify", help="expand and compare both sides")
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


def config_from_args(args):
    config = RunConfig(command=args.command)
    for name in (
        "order", "n", "n_max", "param", "max_param", "restrict", "fmt",
        "output", "problem_path", "class_name", "modulus", "residues",
        "forbid", "allow",
    ):
        if hasattr(args, name):
            value = getattr(args, name)
            if value is not None:
                setattr(config, name, value)
    ids = getattr(args, "id", None)
    config.ids = list(ids) if ids else ["all"]
    return config


_RUNNERS = {
    "verify": _run_verify,
    "enumerate": _run_enumerate,
    "table": _run_table,
    "refine-check": _run_refine_check,
    "discover": _run_discover,
}


def run(config):
    """Execute a RunConfig; returns the process exit status.

    An --output path is opened for appending before the work, so that an
    unwritable one is refused at once and an existing file is truncated
    only when the result is written.
    """
    try:
        if config.output:
            _open_output(config, "a").close()
        return _RUNNERS[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    except MemoryError:
        print(f"error: {config.command} ran out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
