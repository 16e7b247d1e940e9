"""Benchmark of the rrweights command line, one workload per invocation.

Run from the root of a source checkout (the package is imported from ./src):

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's job over and over for --seconds, every job
in fresh interpreters as a CLI user runs it, with set-up samples between
jobs, and reports the end-to-end metrics as medians over the jobs.  Times
are scaled by a calibration task timed between jobs, so that they read as
at one reference host speed.
--trace 1 runs the job once untraced and once traced, both in-process in
fresh interpreters, and reports the per-layer metrics.  --seconds does not
apply to it.

The seed sets the order in which a job's ids or problems run.  Every CLI
output is checked against bench/reference/, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric
names and units come from BENCHMARK.json.  A stamped record of the run, and
the spans of a traced run, go to bench/out/.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference")
CHILD = os.path.join(BENCH, "child.py")

CATALOG_IDS = (
    "rr1", "rr2", "miniprop", "weirdeq", "weirdeq_general", "partM",
    "weirdeq_general_14", "partMeq", "parts2Meq", "twopartM", "parts1Meq",
    "twopart14", "firsttw", "secondtw", "twvthm", "reorder_twv_a",
    "reorder_twv_b", "twvx23theorem", "twvx14thm", "x1_reduction",
    "spec3_display", "spec1", "spec2", "spec3_firsttw", "spec3_secondtw",
)
STATEMENT_IDS = (
    "generalminithm", "generalmini14thm", "general2partcor",
    "general2part14cor", "firstbigcomb", "bigcomb", "spec1", "spec2", "spec3",
)
# Problem file -> lines (as prefixes) its discover output must contain: the
# numerators printed in the paper, or the dimension of the shared space.
PROBLEMS = {
    "miniprop-q2": (
        "status: unique", "numerator[0] = t + q", "soundness check: pass",
    ),
    "twvthm-q12": (
        "status: unique",
        "numerator[0] = 1 + q + v^2*q^2 + v*q^3 + q^4 + q^5 + q^6",
        "soundness check: pass",
    ),
    "twvx23theorem-q12": (
        "status: unique",
        "numerator[0] = 1 + q + v^2*q^2 + v*x*q^3 + x^2*q^4 + q^5 + q^6",
        "soundness check: pass",
    ),
    "firsttw-secondtw": (
        "status: underdetermined (solution space has dimension 2)",
    ),
}
# Counts fixed by the inputs alone; a traced run must reproduce them.
MAX_COUNTS = ("series.peak_coeff_monomials", "series.max_coeff_bits")

SETUPS_PER_JOB = 3
CHILD_TIMEOUT_S = 150
# End-to-end times are scaled to the host speed at which the calibration
# task of bench/child.py takes this many seconds (about its median on a
# 2-vCPU x86-64 VM with Python 3.11.7).
CALIBRATION_REF_S = 0.3

# catalog-sweep and deep-product run by hand only; bench/README.md says why
# BENCHMARK.json leaves them out.
WORKLOADS = ("catalog-sweep", "deep-product", "refine-sweep", "discover")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def plan(workload, seed):
    """The job's processes as (reference name, CLI arguments), seeded order."""
    rng = random.Random(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    if workload == "catalog-sweep":
        ids = [arg for i in shuffled(CATALOG_IDS) for arg in ("--id", i)]
        return [(workload, ["verify", *ids])]
    if workload == "deep-product":
        return [(workload, ["verify", "--id", "twvx14thm", "--order", "100"])]
    if workload == "refine-sweep":
        ids = [arg for i in shuffled(STATEMENT_IDS) for arg in ("--id", i)]
        return [(workload, ["refine-check", *ids, "--n-max", "60"])]
    problems = os.path.relpath(os.path.join(BENCH, "problems"), ROOT)
    return [
        (name, ["discover", "--problem", os.path.join(problems, name + ".json")])
        for name in shuffled(PROBLEMS)
    ]


def check(name, code, output):
    """None when one process's output is right, else the reason it is not."""
    if code != 0:
        return f"{name}: exit status {code}"
    lines = output.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return f"{name}: FAIL line in output"
    with open(os.path.join(REFERENCE, name + ".txt"), encoding="utf-8") as f:
        want = f.read()
    if name in PROBLEMS:
        missing = [p for p in PROBLEMS[name]
                   if not any(line.startswith(p) for line in lines)]
        if missing:
            return f"{name}: no line starting {missing[0]!r}"
        same = output == want
    else:
        # ids run in seeded order; each line is independent of the others
        same = sorted(lines) == sorted(want.splitlines())
    return None if same else f"{name}: output differs from reference"


def child_env():
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "RRWEIGHTS_"))
    }
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def spawn(args):
    """Run sys.executable with args; returns its status, time, memory, output."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=ENV,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # be the running maximum over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "out": out.read().decode("utf-8", "replace"),
            "err": err.read().decode("utf-8", "replace"),
        }


def child_doc(proc):
    """The JSON report on the last stdout line of a child.py process."""
    lines = proc["out"].splitlines()
    if proc["code"] != 0 or not lines:
        raise BenchError(
            f"bench/child.py failed with status {proc['code']}: "
            f"{proc['err'].strip()[-500:]}"
        )
    return json.loads(lines[-1])


def setup_sample():
    doc = child_doc(spawn([CHILD, "setup"]))
    if not os.path.abspath(doc["module"]).startswith(SRC + os.sep):
        raise BenchError(f"rrweights was imported from {doc['module']}, not {SRC}")
    return doc["setup_s"]


def calibration_sample():
    """Wall and CPU seconds of bench/child.py's calibration task."""
    doc = child_doc(spawn([CHILD, "calibrate"]))
    return {"wall_s": doc["wall_s"], "cpu_s": doc["cpu_s"]}


def measure(steps, seconds):
    """End-to-end samples: whole jobs as a CLI user runs them.

    A calibration sample (bench/child.py calibrate) is taken before the
    first job and after each one.  A job's wall times, and those of the
    set-up samples before it, are scaled by CALIBRATION_REF_S over the mean
    wall time of the calibration samples on either side, and its CPU time
    likewise by their CPU time: the host's speed drifts by up to a factor
    of two over tens of seconds, and the calibration task, which runs none
    of the program's code, drifts with it.  Time the host takes from the
    virtual CPU shows in wall time only, so CPU time has its own scale.
    """
    setups, jobs, failures, attempted = [], [], [], 0
    t_start = time.perf_counter()
    elapsed = 0.0
    before = calibration_sample()
    # start another job only if, at the mean pace so far, its midpoint
    # falls within the measuring time
    while not jobs or elapsed * (len(jobs) + 0.5) / len(jobs) <= seconds:
        job_setups = [setup_sample() for _ in range(SETUPS_PER_JOB)]
        procs = []
        for name, argv in steps:
            proc = spawn(["-m", "rrweights.cli", *argv])
            attempted += 1
            problem = check(name, proc["code"], proc["out"])
            if problem:
                failures.append(problem)
            procs.append(proc)
        after = calibration_sample()
        scale = {
            key: 2 * CALIBRATION_REF_S / (before[key] + after[key])
            for key in ("wall_s", "cpu_s")
        }
        wall = sum(p["wall_s"] for p in procs)
        cpu = sum(p["cpu_s"] for p in procs)
        setups.extend(s * scale["wall_s"] for s in job_setups)
        jobs.append({
            "wall_s": wall * scale["wall_s"],
            "cpu_s": cpu * scale["cpu_s"],
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "scale": scale,
            "raw": {"wall_s": wall, "cpu_s": cpu, "setup_s": job_setups},
            "calibration": [before, after],
        })
        before = after
        elapsed = time.perf_counter() - t_start
    values = {
        key: statistics.median(job[key] for job in jobs)
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    values["setup_s"] = statistics.median(setups)
    values["pass_frac"] = (attempted - len(failures)) / attempted
    samples = {"jobs": jobs, "setup_s": setups}
    return values, attempted, failures, samples


def trace(workload, steps):
    """Per-layer figures from one untraced and one traced in-process pass."""
    failures, attempted = [], 0
    untraced_s = traced_s = clock_s = top_s = overhead_s = 0.0
    self_s, counts, spans = {}, {}, 0
    for name, argv in steps:
        plain = child_doc(spawn([CHILD, "inprocess", *argv]))
        path = os.path.join(OUT, f"spans-{workload}-{name}.tsv")
        proc = spawn([CHILD, "trace", path, *argv])
        doc = child_doc(proc)
        for run in (plain, doc):
            attempted += 1
            problem = check(name, run["exit"], run["output"])
            if problem:
                failures.append(problem)
        untraced_s += plain["job_s"]
        traced_s += doc["job_s"]
        clock_s += doc["job_clock_s"]
        top_s += doc["top_s"]
        overhead_s += proc["wall_s"] - doc["bookkeeping_s"] - doc["top_s"]
        spans += doc["spans"]
        for key, value in doc["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in doc["counts"].items():
            merge = max if key in MAX_COUNTS else (lambda a, b: a + b)
            counts[key] = merge(counts.get(key, 0), value)

    with open(os.path.join(REFERENCE, "counts.json"), encoding="utf-8") as f:
        want = json.load(f)[workload]
    attempted += 1
    wrong = {k: counts.get(k, 0) for k, v in want.items() if counts.get(k, 0) != v}
    if wrong:
        failures.append(f"counts differ from reference: {wrong}")

    values = {f"{k}_s": v for k, v in self_s.items()}
    values.update(counts)
    values["cli.overhead_s"] = overhead_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["trace.covered_frac"] = top_s / clock_s
    layers = {}
    for key, value in self_s.items():
        layer = key.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value / top_s
    samples = {
        "spans": spans,
        "untraced_job_s": untraced_s,
        "traced_job_s": traced_s,
        "top_level_s": top_s,
        "layer_share": layers,
    }
    return values, attempted, failures, samples


def git_commit():
    """The checked-out commit read from .git, or None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "rrweights")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def metric_spec(trace_mode):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return spec["per_layer" if trace_mode else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(SRC, "rrweights", "cli.py")):
            raise BenchError(
                f"no rrweights source under {SRC}; run from a checkout's root"
            )
        spec = metric_spec(args.trace)
        os.makedirs(OUT, exist_ok=True)
        steps = plan(args.workload, args.seed)
        if args.trace:
            values, attempted, failures, samples = trace(args.workload, steps)
        else:
            values, attempted, failures, samples = measure(steps, args.seconds)
        missing = [m["name"] for m in spec if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec
        },
    }
    record = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps": steps,
        "failures": failures,
        "samples": samples,
        "result": result,
    }
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for problem in failures:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        shares = sorted(samples["layer_share"].items(), key=lambda kv: -kv[1])
        print("bench: self-time share of top-level spans: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares
        ), file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
