"""Benchmark of the posmap CLI: verdict-checked end-to-end timings, or a traced run.

    python3 perfbench/run.py --workload seesaw-small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, every metric

The program is taken from src/ of the checkout that holds this file.  With
--trace 0 each pass runs the workload's invocations as separate
`python -m posmap` processes, one after another (a closed loop with one
client), with the posmap-free reference.py run between them.  Each
invocation's wall time is divided by that of the reference jobs around it,
which cancels the host's drift in speed, and the time metrics are the
medians of these ratios over --seconds, in reference seconds (REF_S).  The
raw wall times are printed and recorded next to them.
With --trace 1 the same invocations run in-process through posmap.cli.main,
alternating untraced and traced passes, and the per-layer metrics come from
spans installed by spans.py.  oracle.py checks every report.  Each metric is
printed by name with its unit; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full record of a
run, including the pinned environment, goes to perfbench/out/.  design.json
records why each workload and metric exists.
"""

from __future__ import annotations

import os

# OpenBLAS reads its thread count when it loads, so this process pins it
# before anything imports NumPy, and hands the same variables to every child.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse
import io
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import jsonschema

import oracle
from envinfo import facts
from spans import NEEDS, Tracer, layer_metrics
from workloads import SETUP, WORKLOADS, invocations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
INPUTS = Path("perfbench", "out", "inputs")  # relative to ROOT, the invocations' working directory
DESIGN = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 2
REF_EVERY = 3  # posmap invocations between two reference jobs
REF_S = 0.34  # median wall time of reference.py on the 2-vCPU Intel Xeon VM the bounds were set on
IMPORT_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import posmap.cli; print(time.perf_counter() - t)"


@dataclass
class Outcome:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    rss_mib: float = 0.0


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("POSMAP_THREADS", None)
    return env


def time_left(start: float, seconds: float, passes: int) -> bool:
    """Whether one more pass, as long as the mean so far, still ends within the run."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def run_child(args: list, env: dict) -> Outcome:
    """Run one child to completion; wall time from spawn to reap, and its own peak RSS."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=err) as proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Outcome(elapsed, proc.returncode, stdout.decode(), err.read().decode(),
                       usage.ru_maxrss / 1024.0)


class Ledger:
    """Counts invocations checked by the oracle and keeps every failure by config."""

    def __init__(self, validator):
        self.validator = validator
        self.attempted = 0
        self.failures = []

    def check(self, inv, outcome: Outcome, where: str) -> None:
        self.attempted += 1
        problems = oracle.check(inv, outcome.returncode, outcome.stdout, self.validator)
        if problems:
            self.failures.append({"config": inv.label(), "where": where, "problems": problems,
                                  "stderr": outcome.stderr[-2000:]})

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_pass(children: list, env: dict) -> tuple:
    """Runs the children in order with a reference job before the first, after
    every REF_EVERY-th and after the last; returns their outcomes and, for each
    child, the mean wall time of the two reference jobs that bracket it."""
    outs, refs = [], []
    for first in range(0, len(children), REF_EVERY):
        refs.append(run_reference(env))
        outs += [run_child(["-m", "posmap", *inv.argv()], env) for inv in children[first:first + REF_EVERY]]
    refs.append(run_reference(env))
    return outs, [(refs[i // REF_EVERY] + refs[i // REF_EVERY + 1]) / 2 for i in range(len(outs))]


def run_reference(env: dict) -> float:
    o = run_child([str(BENCH / "reference.py")], env)
    if o.returncode != 0:
        raise RuntimeError(f"reference job failed: {o.stderr}")
    return o.seconds


def measure(workload: str, seed: int, seconds: float, ledger: Ledger) -> tuple:
    """Untraced passes of separate processes; returns (metrics, per-pass record).

    Every pass runs the no-work setup invocation SETUP_REPEATS times, then the
    workload's invocations, with reference jobs between them (run_pass).  A
    shared host runs every process faster or slower for tens of seconds at a
    time, so each invocation's wall time is divided by that of the reference
    jobs around it, and the time metrics are medians of these ratios over the
    run, in units of REF_S: seconds on a host that runs the reference job in
    REF_S.  The raw seconds go to the record.
    """
    env = child_env()
    invs = invocations(workload, seed, INPUTS)
    children = [SETUP] * SETUP_REPEATS + invs
    ledger.check(SETUP, run_child(["-m", "posmap", *SETUP.argv()], env), "warm-up")
    run_reference(env)
    passes = []
    start = perf_counter()
    while not passes or time_left(start, seconds, len(passes)):
        outs, refs = run_pass(children, env)
        for inv, o in zip(children, outs):
            ledger.check(inv, o, f"pass {len(passes)}")
        passes.append({
            "seconds": [o.seconds for o in outs],
            "reference_s": refs,
            "peak_rss_mb": max(o.rss_mib for o in outs),
        })

    def summarise(ratio):
        """The time metrics from `ratio(seconds, reference_s)` of every child in every
        pass: wall_s and verdict_s.p50 of each pass, and their medians over the passes."""
        table = [[ratio(t, ref) for t, ref in zip(p["seconds"], p["reference_s"])] for p in passes]
        work = [row[SETUP_REPEATS:] for row in table]
        return {
            "wall_s": statistics.median(sum(row) for row in work),
            "verdict_s.p50": statistics.median(statistics.median(row) for row in work),
            "setup_s": statistics.median(x for row in table for x in row[:SETUP_REPEATS]),
        }

    metrics = summarise(lambda t, ref: REF_S * t / ref)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    record = {"children": [inv.label() for inv in children], "passes": passes,
              "raw_s": summarise(lambda t, ref: t)}
    return metrics, record


def run_in_process(invs: list, tracer, ledger: Ledger, where: str) -> float:
    """One pass through posmap.cli.main; returns the summed wall time of the calls."""
    import posmap.cli  # importable once main() has put src/ on sys.path

    total = 0.0
    for idx, inv in enumerate(invs):
        if tracer is not None:
            tracer.invocation = idx
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = posmap.cli.main(inv.argv())
        elapsed = perf_counter() - start
        total += elapsed
        ledger.check(inv, Outcome(elapsed, code, out.getvalue(), err.getvalue()), where)
    return total


def measure_traced(workload: str, seed: int, seconds: float, ledger: Ledger) -> tuple:
    """Alternating untraced and traced in-process passes over the run's invocations."""
    env = child_env()
    import_times = []
    for _ in range(IMPORT_REPEATS):
        o = run_child(["-c", IMPORT_PROBE], env)
        if o.returncode != 0:
            raise RuntimeError(f"import probe failed: {o.stderr}")
        import_times.append(float(o.stdout))
    invs = invocations(workload, seed, INPUTS)
    run_in_process(invs, None, ledger, "warm-up")  # lazy imports and first-touch allocations
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    start = perf_counter()
    while not traced or time_left(start, seconds, len(traced)):
        p = len(traced)
        plain.append(run_in_process(invs, None, ledger, f"untraced pass {p}"))
        tracer.spans.clear()
        tracer.install()
        try:
            traced.append(run_in_process(invs, tracer, ledger, f"traced pass {p}"))
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer.spans))
    tracer.write(OUT / f"spans-{workload}.jsonl.gz")  # the spans of the last traced pass

    values, counts_repeat = {}, True
    for name in NEEDS:
        series = [m[name] for m in per_pass]
        if DESIGN["per_layer"][name]["kind"] == "count":
            counts_repeat &= len(set(series)) == 1
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values["cli.import_s"] = statistics.median(import_times)
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    missing = {name: "; ".join(tracer.missing[s] for s in NEEDS[name] if s in tracer.missing)
               for name in NEEDS if any(s in tracer.missing for s in NEEDS[name])}
    record = {"passes": per_pass, "untraced_s": plain, "traced_s": traced,
              "import_s": import_times, "counts_repeat": counts_repeat, "missing": missing}
    return values, missing, record


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env_facts: dict) -> dict:
    import posmap.cli

    ledger = Ledger(jsonschema.Draft7Validator(posmap.cli.REPORT_SCHEMA))
    # Timed calls run in the posmap processes, or in this one when traced.
    timed = "benchmark_process" if trace else "posmap_processes"
    threads = env_facts[timed]["blas_threads"]
    invalid = [] if threads == 1 else [f"BLAS threads in the {timed.replace('_', ' ')}: {threads!r}, not 1"]
    if trace:
        values, missing, record = measure_traced(workload, seed, seconds, ledger)
        if not record["counts_repeat"]:
            invalid.append("per-layer counts differ between traced passes")
        specs = DESIGN["per_layer"]
    else:
        values, record = measure(workload, seed, seconds, ledger)
        missing = {}
        specs = {name: DESIGN["end_to_end"][name] for name in values}
    metrics = {}
    for name, spec in specs.items():
        metrics[name] = {"value": None if name in missing else values[name], "unit": spec["unit"]}
        if name in missing:
            metrics[name]["missing"] = missing[name]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env_facts, "invalid": invalid,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted, "failures": ledger.failures,
        "metrics": metrics, **record,
    }
    OUT.joinpath(f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_result(result: dict) -> None:
    wl = result["workload"]
    for name, m in result["metrics"].items():
        value = "MISSING (" + m["missing"] + ")" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{wl:<13} {name:<34} {value} {m['unit']}")
    for name, value in result.get("raw_s", {}).items():
        print(f"{wl:<13} {'raw ' + name:<34} {value:.6g} s (wall clock, not divided by the reference job)")
    print(f"{wl:<13} {'failed_frac':<34} {result['failed_frac']:.6g} ratio "
          f"(base: {result['attempted']} invocations attempted)")
    for f in result["failures"]:
        print(f"{wl:<13} FAILED {f['config']} [{f['where']}]: {'; '.join(f['problems'])}")
    for reason in result["invalid"]:
        print(f"{wl:<13} INVALID: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "posmap" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'posmap'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    (OUT / "inputs").mkdir(parents=True, exist_ok=True)
    probe = run_child([str(BENCH / "envinfo.py")], child_env())
    if probe.returncode != 0:
        print(f"perfbench: environment probe failed: {probe.stderr}", file=sys.stderr)
        return 2
    env_facts = {"benchmark_process": facts(), "posmap_processes": json.loads(probe.stdout)}
    # Every process the run times starts on, and stays on, one CPU: a process
    # moved between CPUs runs slower, and by how much varies from run to run.
    env_facts["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env_facts["pinned_cpu"]})
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), env_facts) for name in names]
    for result in results:
        print_result(result)
    summary = {
        "correct": all(r["failed"] == 0 and not r["invalid"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
