"""cuspgrowth benchmark: one workload, timed cold through the real CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog-bands --seed 1 --seconds 10 --trace 0

Each repetition is a fresh single-threaded process (worker.py) that
imports ``cuspgrowth`` and calls ``cuspgrowth.cli.main`` once per
command of the workload, as a user's one-shot commands would.  Untraced
runs report the end-to-end metrics; ``--trace 1`` runs a traced, an
untraced and a traced repetition and reports the per-layer metrics.  Every
repetition's artifacts are checked against the frozen tables in
``reference/``.  The last line of output is the JSON result; the full
result set, with machine info, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from reference import Checks, compare_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# Set-up probes per run (plus one discarded warm-up that compiles .pyc).
SETUP_PROBES = 5
# --trace 1: traced, untraced, traced
TRACE_PLAN = (True, False, True)
# Workers still running this long after the start are killed, so that a
# run ends within 180 s.
DEADLINE_S = 170.0

WORKLOADS = {
    # two volume-band families: two cusps with a power-decay ambient
    # factor, then one cusp with a constant factor
    "catalog-bands": lambda seed: [
        ["example-run", "--name", "critical-infinite-5.4b"],
        ["example-run", "--name", "exotic-div-5.3b"]],
    # profile evaluation, excursion integrals and tail scans; no bands
    "tail-scans": lambda seed: [["cusp-analyze"], ["lattice-classify"]],
    # exact enumeration and coset grouping, analytic counting band
    "oracle-h2": lambda seed: [
        ["oracle-verify", "--Rcap", "14", "--seed", str(seed)]],
}
SEEDED = {"oracle-h2"}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


def worker_env() -> dict:
    env = dict(os.environ)
    # imports read cached bytecode, as from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Spawns worker processes and collects what each measured."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.env = worker_env()
        self.count = 0

    def spawn(self, commands: list[list[str]], trace: bool,
              spans_path: Path | None = None) -> dict:
        """Run one worker; returns its result plus set-up time and peak RSS.

        ``result["error"]`` is set when the worker itself failed.
        """
        self.count += 1
        tag = f"rep{self.count}"
        outs = [self.tmp / f"{tag}-{i}" for i in range(len(commands))]
        spec = {
            "src": str(SRC),
            "commands": [argv + ["--out", str(out)]
                         for argv, out in zip(commands, outs)],
            "trace": trace,
            "run_id": self.count,
            "result": str(self.tmp / f"{tag}.json"),
            "spans": str(spans_path) if spans_path else "",
        }
        log = self.tmp / f"{tag}.stderr"
        with open(log, "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
            status, usage = self._wait(proc)
        if status != 0:
            tail = log.read_text()[-2000:]
            return {"error": f"worker exited with {status}: {tail}"}
        result = json.loads(Path(spec["result"]).read_text())
        result["setup_s"] = result["ready"] - spawned
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["outs"] = [str(o) for o in outs]
        return result

    def _wait(self, proc: subprocess.Popen):
        """Reap the worker with its own resource usage; kill it at the
        deadline or when this process is interrupted or terminated."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage
                if time.monotonic() > self.deadline:
                    break
                time.sleep(0.02)
        finally:
            if proc.returncode is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return "killed at the run deadline", usage


def check_rep(workload: str, commands: list[list[str]], rep: dict) -> Checks:
    """Exit codes, summary.json assertions and reference tables of one rep."""
    checks = Checks()
    if "error" in rep:
        checks.check(False, rep["error"])
        return checks
    produced = {}
    rel_tols = {}
    for argv, code, out in zip(commands, rep["exit_codes"], rep["outs"]):
        label = " ".join(argv)
        checks.check(code == 0, f"{label}: exit code {code}")
        summary_path = Path(out) / "summary.json"
        if not summary_path.is_file():
            checks.check(False, f"{label}: no summary.json")
            continue
        summary = json.loads(summary_path.read_text())
        for entry in summary["assertions"]:
            checks.check(entry["passed"] is True,
                         f"{label}: assertion {entry['name']} failed")
        for path in Path(out).iterdir():
            produced[path.name] = path
            rel_tols[path.name] = summary["tolerances"]["rel_tol"]
    for ref in sorted((REFERENCE / workload).iterdir()):
        got = produced.get(ref.name)
        if got is None:
            checks.check(False, f"{ref.name}: not produced")
            continue
        checks.merge(compare_csv(ref.read_text(), got.read_text(),
                                 rel_tols[ref.name], ref.name))
    return checks


def spread(values: list[float]) -> tuple[float, float, float]:
    """median, first and third quartile"""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    samples = {"setup_s": setups,
               "run_s": [r["run_s"] for r in reps],
               "cpu_s": [r["cpu_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    return {name: spread(vals) + (len(vals),) for name, vals in samples.items()}


def layer_report(traced: list[dict], checks: Checks) -> dict:
    """Per-layer values (times: median over traced reps) and the check
    that every count repeats exactly."""
    units = layers.metric_units()
    values = {}
    for name in units:
        seen = [r["layers"][name] for r in traced]
        if layers.is_count(name):
            checks.check(len(set(seen)) == 1,
                         f"{name}: count differs between traced runs: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "cuspgrowth" / "cli.py").is_file():
        print(f"error: no cuspgrowth source tree at {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running worker is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        return measure(args, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path, started: float) -> int:
    runner = Runner(tmp, started + DEADLINE_S)
    commands = WORKLOADS[args.workload](args.seed)
    machine = machine_info()

    # the first process of a fresh checkout compiles .pyc files: discarded
    probes = [runner.spawn([], False) for _ in range(SETUP_PROBES + 1)][1:]
    failed = [p["error"] for p in probes if "error" in p]
    if failed:
        print(f"error: set-up probe failed: {failed[0]}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes]

    reps: list[dict] = []
    traced: list[dict] = []
    checks = Checks()
    if args.trace:
        # the untraced repetition sits between the traced ones, so a slow
        # drift of machine speed cancels in the overhead ratio
        for trace in TRACE_PLAN:
            spans_path = OUT / f"spans-{args.workload}-trace{len(traced) + 1}.npz"
            rep = runner.spawn(commands, trace, spans_path if trace else None)
            (traced if trace else reps).append(rep)
            checks.merge(check_rep(args.workload, commands, rep))
    else:
        timed_from = time.monotonic()
        while not reps or time.monotonic() - timed_from < args.seconds:
            reps.append(runner.spawn(commands, False))
            checks.merge(check_rep(args.workload, commands, reps[-1]))
    good = [r for r in reps if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    if not good or len(good_traced) < len(traced):
        print("error: " + "; ".join(checks.messages[:5]), file=sys.stderr)
        return 1
    setups += [r["setup_s"] for r in good]

    values = layer_report(good_traced, checks) if args.trace else {}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.workload not in SEEDED:
        print(f"inputs: {args.workload} has no random input; "
              f"the seed is recorded only")
    e2e = end_to_end(good, setups)
    rows = [(f"{name:<12}", f"{med:12.6f}", f"{q1:12.6f}", f"{q3:12.6f}",
             f"{n:3d}", END_TO_END_UNITS[name])
            for name, (med, q1, q3, n) in e2e.items()]
    rows.append((f"{'failed_frac':<12}",
                 f"{checks.failed / max(checks.attempted, 1):12.6f}",
                 f"({checks.failed} of {checks.attempted} checks)", "", "", "1"))
    print_table("end to end (median, q1, q3, n, unit):", rows)
    for message in checks.messages[:20]:
        print("check failed: " + message)

    record = {"args": vars(args), "machine": machine,
              "commands": commands,
              "end_to_end": e2e, "setup_probes": setups,
              "reps": [{k: r[k] for k in ("setup_s", "run_s", "cpu_s",
                                          "peak_rss_mb", "exit_codes")}
                       for r in good],
              "attempted": checks.attempted, "failed": checks.failed,
              "failures": checks.messages[:100]}
    if args.trace:
        units = layers.metric_units()
        untraced_s = e2e["run_s"][0]
        traced_s = statistics.median(r["run_s"] for r in good_traced)
        overhead = traced_s / untraced_s
        table = sorted((n for n in units if n.endswith(".self_s")),
                       key=lambda n: -values[n])
        rows = []
        for self_name in table:
            base = self_name[:-len(".self_s")]
            extras = [f"{n[len(base) + 1:]}={values[n]}" for n in units
                      if n.startswith(base + ".") and layers.is_count(n)
                      and not n.endswith(".calls")]
            calls = values.get(base + ".calls", "")
            rows.append((f"{base:<50}", f"{calls:>9}",
                         f"{values[base + '.total_s']:10.4f}",
                         f"{values[self_name]:10.4f}", " ".join(extras)))
        print_table("per layer (calls, total_s, self_s, counts):", rows)
        print(f"tracing overhead: {overhead:.4f} (traced run_s {traced_s:.4f} s"
              f" / untraced run_s {untraced_s:.4f} s)")
        print(f"spans written to {OUT.name}/spans-{args.workload}-trace*.npz")
        record.update(per_layer=values, tracing_overhead=overhead,
                      traced_run_s=traced_s, untraced_run_s=untraced_s)
        metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    else:
        metrics = {n: {"value": e2e[n][0], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}

    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result set written to {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
