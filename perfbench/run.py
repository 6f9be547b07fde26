#!/usr/bin/env python3
"""polcomp benchmark: end-to-end and per-layer metrics on named workloads.

Run from the root of a polcomp checkout; the program is imported from
its ``src/`` directory and nowhere else.

  python3 perfbench/run.py --workload loop-lab --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1 [--trace 1] [--out results.json]
  python3 perfbench/run.py --compare base.json new.json

One workload runs in one single-threaded process.  Its inputs come from
``--seed`` and are made before timing starts.  The timed loop runs the
whole pool once, then cycles through it again until ``--seconds`` have
passed; a repeated op must reproduce its first outputs exactly.  Latency
percentiles are over each op's median latency.  Simulated metrics,
``attempted`` and ``failed`` come from the first pass, so they depend on
the seed alone.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the pool untraced, then the same half with spans recorded, and
prints the per-layer metrics; ``--seconds`` does not apply to it.  The
last line of standard output is always ``{"correct", "attempted",
"failed", "metrics"}``; the line before it, starting ``DETAILS``, holds
the environment, failing op ids and the digest of the simulated outputs.  Metric names, units and bounds are
defined in ``BENCHMARK.json``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One load generator, one thread: BLAS is pinned before anything imports numpy.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import polcomp, polcomp.io, polcomp.cli; "
    "print(time.perf_counter() - t)"
)


def load_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse any other polcomp."""
    init = SRC / "polcomp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run from a polcomp checkout")
    sys.path.insert(0, str(SRC))
    import polcomp

    if Path(polcomp.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported polcomp from {polcomp.__file__}, not {init}")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def environment() -> dict:
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=60, check=False,
        )
        commit = done.stdout.strip() or "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def import_seconds() -> float:
    """Median time to import numpy and polcomp in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    """The outcome of one timed loop over the input pool."""

    records: list = field(default_factory=list)  # OpRecord of each entry's first run
    lat_ns: list = field(default_factory=list)  # every run, in order
    lat_by_op: list = field(default_factory=list)  # each entry's runs
    wall_s: float = 0.0
    mismatched: list = field(default_factory=list)  # entries that replayed differently
    wrong: list = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.lat_ns)

    def op_ms_p50(self) -> float:
        return statistics.median(self.lat_ns) / 1e6

    def op_ms(self) -> list[float]:
        """Each entry's median latency over its runs, ms.

        Runs of one entry lie a whole pass apart, so a burst of load from
        elsewhere on the host slows at most one of them.
        """
        return [statistics.median(lat) / 1e6 for lat in self.lat_by_op]


def timed_loop(workload, batch, run_op, ops: int, seconds: float = 0.0, after_op=None) -> Pass:
    """Run at least ``ops`` ops, cycling through the pool, until ``seconds`` have passed."""
    pool = len(batch.inputs)
    p = Pass(lat_by_op=[[] for _ in range(min(ops, pool))])
    clock = time.perf_counter_ns
    deadline = seconds * 1e9
    t_start = clock()
    i = 0
    while i < ops or clock() - t_start < deadline:
        k = i % pool
        t0 = clock()
        raw = run_op(batch, k)
        dt = clock() - t0
        p.lat_ns.append(dt)
        p.lat_by_op[k].append(dt)
        if after_op is not None:
            after_op()
        rec = workload.check(batch, k, raw)
        p.wrong.extend(f"op {k}: {w}" for w in rec.wrong)
        if i < pool:
            p.records.append(rec)
        elif rec != p.records[k]:
            p.mismatched.append(k)
        i += 1
    p.wall_s = (clock() - t_start) / 1e9
    return p


def discrete_quantile(values: list[int], q: float) -> float:
    """``q``-quantile of integers, each spread evenly over ``[v - 0.5, v + 0.5)``.

    Unlike a nearest-rank quantile it moves smoothly as the counts change,
    instead of jumping a whole step when the rank crosses a boundary.
    """
    counts = collections.Counter(values)
    rank = q * len(values)
    below = 0
    for v in sorted(counts):
        if below + counts[v] >= rank:
            return v - 0.5 + (rank - below) / counts[v]
        below += counts[v]
    raise ValueError("q must lie in [0, 1]")


def end_to_end(p: Pass, setup_s: float, workload) -> dict:
    import numpy as np

    recs = p.records
    lat_ms = np.array(p.op_ms())
    ranks = [
        r.steps_to_995 if r.steps_to_995 is not None else workload.unreached_steps for r in recs
    ]
    reached = [r.steps_to_995 for r in recs if r.steps_to_995 is not None]
    return {
        "setup_s": setup_s,
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "ops_per_s": p.runs / p.wall_s,
        "success_frac": sum(r.ok for r in recs) / len(recs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_op_mean": statistics.fmean(r.readings for r in recs),
        "steps_to_995_mean": statistics.fmean(reached) if reached else workload.unreached_steps,
        "steps_to_995_p90": discrete_quantile(ranks, 0.9),
        "tomo_fidelity_mean": statistics.fmean(r.fidelity for r in recs),
    }


def sim_digest(records) -> str:
    """Fingerprint of the simulated outputs of the first half of the pool,
    which traced and untraced runs both make; equal for equal seeds."""
    text = "\n".join(repr(r) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload in this process: (result line, details)."""
    spec = load_spec()
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if name not in declared:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {sorted(declared)}")
    load_program()
    import polcomp.io as pio
    import spans
    import workloads

    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(name, workdir)
        imports = import_seconds()
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            batch = workload.prepare(seed)
            builds.append(time.perf_counter() - t0)
        setup_s = imports + statistics.median(builds)

        pool = len(batch.inputs)
        half = pool // 2
        if not trace:
            main = timed_loop(workload, batch, workload.run, pool, seconds)
            values = end_to_end(main, setup_s, workload)
            metric_spec = spec["end_to_end"]
            passes = [main]
            checks = {}
        else:
            main = timed_loop(workload, batch, workload.run, half)
            tracer = spans.Tracer()
            op = tracer.wrap_op(workload.run)
            tracer.install()
            try:
                traced = timed_loop(
                    workload, batch, op, half,
                    after_op=lambda: tracer.account_io(pio.sidecar_path),
                )
            finally:
                tracer.restore()
            metric_spec = spec["per_layer"]
            values = tracer.metrics([m["name"] for m in metric_spec], half, main.op_ms_p50())
            passes = [main, traced]
            checks = {"traced_outputs_match": traced.records == main.records}
            for span in workload.reading_spans:
                counts = tracer.calls_per_op(span, half)
                checks[f"{span}.calls_match_readings"] = all(
                    int(counts[k]) == r.readings for k, r in enumerate(traced.records) if r.ok
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still has its directory there

    if set(values) != {m["name"] for m in metric_spec}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    wrong = [w for p in passes for w in p.wrong]
    mismatched = sorted({k for p in passes for k in p.mismatched})
    failing = [k for k, r in enumerate(main.records) if not r.ok]
    correct = not wrong and not mismatched and all(checks.values())
    # Attempted and failed count distinct pool entries, not runs, so they
    # depend on the seed alone; repeated runs are checked against the first.
    result = {
        "correct": correct,
        "attempted": len(main.records),
        "failed": len(failing),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec
        },
    }
    details = {
        "workload": name,
        "why": declared[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "first_pass": len(main.records),
        "timed_runs": main.runs,
        "timed_wall_s": main.wall_s,
        "fail_frac": len(failing) / len(main.records),
        "failing_ops": failing,
        "failure_reasons": dict(collections.Counter(main.records[k].why for k in failing)),
        "sim_digest": sim_digest(main.records[:half]),
        "replay_mismatches": mismatched,
        "wrong": wrong[:20],
        "checks": checks,
    }
    return result, details


def print_run(result: dict, details: dict) -> None:
    d = details
    print(f"perfbench {d['workload']}: seed {d['seed']}, {d['seconds']:g} s, trace {d['trace']}")
    print(f"  {d['why']}")
    print(f"  env: {json.dumps(d['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  failing ops ({len(d['failing_ops'])} of {d['first_pass']}, "
        f"fail_frac {d['fail_frac']:.4f}): {d['failing_ops']}"
    )
    for why, n in sorted(d["failure_reasons"].items()):
        print(f"    {n:5d}  {why}")
    print(f"  sim digest {d['sim_digest']}; correct {result['correct']}")
    for w in d["wrong"]:
        print(f"  WRONG {w}")
    if d["replay_mismatches"]:
        print(f"  REPLAY MISMATCH on ops {d['replay_mismatches']}")
    for check, ok in d["checks"].items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")


def print_table(rows: dict, columns: list, cell, per_table: int = 4) -> None:
    """Rows are workloads; columns are metrics, at most ``per_table`` per table."""
    for at in range(0, len(columns), per_table):
        cols = columns[at : at + per_table]
        cells = {row: [cell(values, c) for c in cols] for row, values in rows.items()}
        widths = [max(len(c), *(len(v[i]) for v in cells.values())) + 2 for i, c in enumerate(cols)]
        print(f"{'workload':<16}" + "".join(f"{c:>{w}}" for c, w in zip(cols, widths)))
        for row, values in cells.items():
            print(f"{row:<16}" + "".join(f"{v:>{w}}" for v, w in zip(values, widths)))
        print()


def write_results(path: str, results: dict, seed: int, seconds: float, trace: int) -> None:
    doc = {"seed": seed, "seconds": seconds, "trace": trace, "workloads": results}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    spec = load_spec()
    results = {}
    for w in spec["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{w['name']}: exit {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("DETAILS ")))
        details = json.loads(next(x for x in lines if x.startswith("DETAILS "))[len("DETAILS "):])
        results[w["name"]] = {**json.loads(lines[-1]), "details": details}
    metrics = list(next(iter(results.values()))["metrics"])
    units = {m: r["metrics"][m]["unit"] for r in results.values() for m in r["metrics"]}
    print_table(
        {name: r["metrics"] for name, r in results.items()},
        metrics,
        lambda values, m: f"{values[m]['value']:.6g} {units[m]}",
    )
    if args.out:
        write_results(args.out, results, args.seed, args.seconds, args.trace)
    return 0 if all(r["correct"] for r in results.values()) else 1


def compare(base_path: str, new_path: str) -> int:
    """Ratio new/base of every metric both files hold, one row per workload.

    ``!`` marks a ratio worse than the metric's bound in BENCHMARK.json.
    """
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["workloads"]
    names = [w["name"] for w in spec["workloads"] if w["name"] in base and w["name"] in new]
    rows = {name: {} for name in names}
    for m in metrics:
        for name in names:
            b, n = base[name]["metrics"].get(m["name"]), new[name]["metrics"].get(m["name"])
            if b is None or n is None:
                continue
            if b["value"] == 0:
                rows[name][m["name"]] = "same" if n["value"] == 0 else "new"
                continue
            ratio = n["value"] / b["value"]
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            flag = "!" if worse > m.get("bound", float("inf")) else " "
            rows[name][m["name"]] = f"{ratio:.4f}{flag}"
    columns = [m["name"] for m in metrics if any(m["name"] in r for r in rows.values())]
    print(f"ratio new/base: {new_path} / {base_path}")
    print_table(rows, columns, lambda values, m: values.get(m, "-"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print metric ratios between two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(result, details)
    if args.out:
        write_results(args.out, {args.workload: {**result, "details": details}},
                      args.seed, args.seconds, args.trace)
    print("DETAILS " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
