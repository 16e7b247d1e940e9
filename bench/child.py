"""One measured rrweights process, started by bench/run.py in a fresh interpreter.

Modes (the last line of stdout is one JSON object):

  child.py setup
      Import rrweights and build catalog() and statements(); report the
      time taken and where the package was imported from.
  child.py calibrate
      Time a fixed pure-Python task that runs none of rrweights' code, in
      wall and CPU seconds; bench/run.py scales end-to-end times by them to
      cancel the host's drift.
  child.py inprocess ARG...
      Run `rrweights ARG...` in this process without tracing; report the
      CLI's output, exit status and in-process time.
  child.py trace SPANS_FILE ARG...
      As inprocess, with a span recorded around every call into the traced
      public functions of each module.  Spans stay in memory during the job
      and are written to SPANS_FILE (tab-separated) afterwards; the report
      adds self time per span name, counts, and tracing bookkeeping time.

Only `sys` and `time` are imported before the set-up clock starts, so the
set-up time includes every import that rrweights itself needs.
"""

import sys
import time


def _emit(doc):
    import json

    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def setup():
    t0 = time.perf_counter()
    import rrweights.cli  # noqa: F401  (imports every module the CLI uses)
    from rrweights import combinatorics, identities

    identities.catalog()
    combinatorics.statements()
    elapsed = time.perf_counter() - t0
    _emit({"setup_s": elapsed, "module": rrweights.__file__})


def calibrate():
    """Time the program's kinds of work done without its code.

    Products of dict-keyed polynomials with big integer coefficients, exact
    Fraction elimination and many short-lived small objects run in the
    processor's caches; a truncated product of geometric series with packed
    weight monomials, as a product side is expanded, grows to about 9,000
    monomials in one coefficient and a 27 MB process, and so also waits on
    memory.
    """
    from fractions import Fraction

    t0, c0 = time.perf_counter(), time.process_time()
    poly = {(i % 7, i % 5, i % 3): 3 ** (40 + i) for i in range(40)}
    product = {}
    for k1, v1 in poly.items():
        for k2, v2 in poly.items():
            for k3, v3 in poly.items():
                key = (k1[0] + k2[0] + k3[0], k1[1] + k2[1] + k3[1],
                       k1[2] + k2[2] + k3[2])
                product[key] = product.get(key, 0) + v1 * v2 * v3
    for _ in range(3):
        rows = [
            [Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4)
             for j in range(14)]
            for i in range(12)
        ]
        for c, pivot in enumerate(rows):
            if pivot[c]:
                for r, row in enumerate(rows):
                    if r != c:
                        f = row[c] / pivot[c]
                        rows[r] = [a - f * b for a, b in zip(row, pivot)]
    cells = [{(i, i): i} for i in range(50000)]
    del cells

    order = 36
    series = [{0: 1}] + [{} for _ in range(order)]
    for e in range(1, 11):
        mono, step = 1 << (16 * (e % 4)), e % 5 + 1
        out = [{} for _ in range(order + 1)]
        for i, coeff in enumerate(series):
            for k in range((order - i) // step + 1):
                bucket, shift = out[i + k * step], mono * k
                for m, c in coeff.items():
                    bucket[m + shift] = bucket.get(m + shift, 0) + c * (k + 1)
        series = out
    _emit({
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
    })


def _run_cli(argv):
    """Run the CLI in-process; returns (exit code, stdout, start ns, end ns)."""
    import contextlib
    import io
    import traceback

    from rrweights import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # exit status 1, as the interpreter gives an uncaught exception
            traceback.print_exc()
            code = 1
        t1 = time.perf_counter_ns()
    return code, buf.getvalue(), t0, t1


def inprocess(argv):
    code, out, t0, t1 = _run_cli(argv)
    _emit({"exit": code, "output": out, "job_s": (t1 - t0) / 1e9})


class Tracer:
    """Spans in four parallel arrays; `skew` hides bookkeeping from the clock.

    Time spent computing counts inside a wrapper is added to `skew`, so it
    is absent from every later timestamp and shows only as tracing
    overhead, never as a layer's time.
    """

    def __init__(self):
        from array import array
        from collections import Counter

        self.names = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.open_by_name = Counter()
        self.counts = Counter()
        self.skew = 0

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(result, outermost)."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0)
            tracer.stack.append(i)
            outermost = not tracer.open_by_name[nid]
            tracer.open_by_name[nid] += 1
            tracer.start.append(clock() - tracer.skew)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock() - tracer.skew
                tracer.stack.pop()
                tracer.open_by_name[nid] -= 1
            if after is not None:
                t = clock()
                after(result, outermost)
                tracer.skew += clock() - t
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def series_stats(self, series, outermost):
        if not outermost:
            return
        counts = self.counts
        for coeff in series.coeffs:
            terms = coeff.terms
            counts["series.monomials"] += len(terms)
            if len(terms) > counts["series.peak_coeff_monomials"]:
                counts["series.peak_coeff_monomials"] = len(terms)
            for c in terms.values():
                bits = abs(c).bit_length()
                if bits > counts["series.max_coeff_bits"]:
                    counts["series.max_coeff_bits"] = bits

    def self_times(self):
        """Seconds of self time per span name, and of top-level spans."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        own = dict.fromkeys(self.names, 0)
        top = 0
        for i in range(n):
            duration = self.end[i] - self.start[i]
            own[self.names[self.name_of[i]]] += duration - covered[i]
            if self.parent[i] < 0:
                top += duration
        return {k: v / 1e9 for k, v in own.items()}, top / 1e9

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names, name_of = self.names, self.name_of
            parent, start, end = self.parent, self.start, self.end
            handle.writelines(
                f"{i}\t{parent[i]}\t{names[name_of[i]]}\t"
                f"{start[i] - origin}\t{end[i] - origin}\n"
                for i in range(len(start))
            )


def _replace(old, new):
    """Rebind every rrweights module name that refers to `old`."""
    found = False
    for name, module in list(sys.modules.items()):
        if name != "rrweights" and not name.startswith("rrweights."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                found = True
    if not found:
        raise LookupError(f"trace hook target not found: {old!r}")


def install_hooks(tracer):
    """Span the public entry points of each layer; see bench/README.md."""
    from rrweights import combinatorics, discovery, identities, partitions, series

    counts = tracer.counts
    counts.update(dict.fromkeys((
        "identities.instances", "series.terms_expanded", "series.monomials",
        "series.peak_coeff_monomials", "series.max_coeff_bits",
        "partitions.enumerated", "combinatorics.statements",
        "discovery.unknowns", "discovery.rank",
    ), 0))

    def outer_count(name):
        def after(result, outermost):
            if outermost:
                counts[name] += 1

        return after

    caches = (partitions.enumerate_class, partitions.col, partitions.col_star)
    misses_seen = 0

    def enumerated(result, outermost):
        nonlocal misses_seen
        misses = caches[0].cache_info().misses
        if misses > misses_seen:
            counts["partitions.enumerated"] += len(result)
            misses_seen = misses

    def solved(result, outermost):
        counts["discovery.unknowns"] += len(result.columns)
        counts["discovery.rank"] += len(result.columns) - len(result.basis or ())

    functions = [
        ("identities.sum_side", identities.expand_sum_side, tracer.series_stats),
        ("identities.product_side", identities.expand_product_side,
         tracer.series_stats),
        ("series.compare", series.series_equal, None),
        ("partitions.enumerate", partitions.enumerate_class, enumerated),
        ("partitions.col", partitions.col, None),
        ("partitions.col", partitions.col_star, None),
        ("combinatorics.check", combinatorics.check_refinement,
         outer_count("combinatorics.statements")),
        ("combinatorics.series_counts", combinatorics.series_counts, None),
        ("combinatorics.classify", combinatorics.classify_diff_partition, None),
        ("discovery.load", discovery.load_problem, None),
        ("discovery.solve", discovery.solve, solved),
        ("discovery.match", discovery.matches_target, None),
    ]
    methods = [
        ("identities.instantiate", identities.CatalogEntry, "instantiate",
         outer_count("identities.instances")),
        ("identities.product_side", identities.ProductSide, "expand",
         tracer.series_stats),
        ("series.compare", series.TruncatedSeries, "__eq__", None),
    ]
    for name, fn, after in functions:
        _replace(fn, tracer.span(name, fn, after))
    for name, cls, attr, after in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))
    expand = series.RationalTerm.expand
    series.RationalTerm.expand = tracer.counter("series.terms_expanded", expand)
    return caches


def trace(spans_path, argv):
    import rrweights.cli  # noqa: F401  (every module loads before wrapping)

    tracer = Tracer()
    t = time.perf_counter_ns()
    caches = install_hooks(tracer)
    install_ns = time.perf_counter_ns() - t
    code, out, t0, t1 = _run_cli(argv)
    counts = tracer.counts
    counts["partitions.cache_entries"] = sum(
        fn.cache_info().currsize for fn in caches
    )
    t = time.perf_counter_ns()
    self_s, top_s = tracer.self_times()
    tracer.write(spans_path, t0)
    _emit({
        "exit": code,
        "output": out,
        "job_s": (t1 - t0) / 1e9,
        "job_clock_s": (t1 - t0 - tracer.skew) / 1e9,
        "top_s": top_s,
        "self_s": self_s,
        "spans": len(tracer.start),
        "counts": dict(counts),
        "bookkeeping_s": (
            install_ns + tracer.skew + time.perf_counter_ns() - t
        ) / 1e9,
    })


def main(args):
    mode = args[0] if args else ""
    if mode == "setup" and len(args) == 1:
        setup()
    elif mode == "calibrate" and len(args) == 1:
        calibrate()
    elif mode == "inprocess":
        inprocess(args[1:])
    elif mode == "trace" and len(args) >= 2:
        trace(args[1], args[2:])
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
