"""The ffzeta benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The seed makes the workload's job list (see jobs.py).  Each pass runs in
a fresh process (worker.py) with a private, empty FFZETA_CACHE and no
FFZETA_THREADS, as a closed loop: one client, one job in flight.  Passes
repeat until --seconds have gone by; there are at least three set-ups
per run.  With --trace 0 the run reports the end-to-end metrics of
untraced passes; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.  Every time
is scaled by a speed probe run between jobs (calibrate.py), because the
machine's speed drifts between runs.  The first pass of a run also
checks every job's output, and every later pass must reproduce its
outputs byte for byte.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it record the
environment (source hash, git sha if any, Python, numpy, CPU) and the
sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import jobs as jobgen  # noqa: E402
import metrics  # noqa: E402

MIN_SETUPS = 3
MIN_PLAIN_PASSES = 2  # untraced: per-job medians need two samples even when a pass
                      # outlasts --seconds (cli-warm)
RUN_BUDGET_S = 170  # a run must finish well inside 180 s
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_traces"


def source_fingerprint(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ffzeta").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        import cpuinfo
        return cpuinfo.get_cpu_info().get("brand_raw") or "unknown"
    except Exception:  # py-cpuinfo missing or failing: fall back to /proc
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"


class Runner:
    """Spawns passes for one run and keeps their results."""

    def __init__(self, root: Path, workload: str, job_file: Path, work: Path, trace_dir: Path):
        self.root = root
        self.workload = workload
        self.job_file = job_file
        self.work = work
        self.trace_dir = trace_dir
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def env(self, cache: Path):
        env = {k: v for k, v in os.environ.items()
               if k not in ("FFZETA_THREADS", "FFZETA_CACHE", "PERFBENCH_TRACE",
                            "PERFBENCH_JOB", "PYTHONPATH")}
        env["FFZETA_CACHE"] = str(cache)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        return env

    def run_pass(self, mode: str, check: bool = False, setup_only: bool = False):
        self.count += 1
        state = self.work / f"pass-{self.count:03d}"
        cache = state / "cache"
        cache.mkdir(parents=True)
        task = {"workload": self.workload, "root": str(self.root), "jobs": str(self.job_file),
                "mode": mode, "check": check, "setup_only": setup_only,
                "state": str(state), "cache": str(cache), "out": str(state / "result.json"),
                "trace_out": str(self.trace_dir / f"{self.workload}-pass{self.count}.jsonl")}
        task_file = state / "task.json"
        task["probes"] = [calibrate.probe() for _ in range(3)]
        task["spawn"] = time.monotonic()
        task_file.write_text(json.dumps(task))
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(task_file)],
                                cwd=self.root, env=self.env(cache), start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"pass {self.count} ({mode}) overran the run budget")
        if proc.returncode != 0:
            raise RuntimeError(f"pass {self.count} ({mode}) exited {proc.returncode}: "
                               f"{err.strip()[-2000:]}")
        result = json.loads((state / "result.json").read_text())
        result["mode"] = mode
        shutil.rmtree(state)
        return result


def measure(runner: Runner, seconds: float, traced: bool):
    """Run passes until `seconds` have passed (and, untraced, until there
    are two passes), within the run budget; return (plain, traced, setups)."""
    plain, traced_passes, setups = [], [], []
    modes = ("plain", "traced") if traced else ("plain",)
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for mode in modes:
            rec = runner.run_pass(mode, check=not plain and mode == "plain")
            (plain if mode == "plain" else traced_passes).append(rec)
            setups.append(rec["setup_s"])
        now = time.monotonic()
        round_s = now - round_start
        if now + 1.5 * round_s > runner.deadline - 20:
            break
        if now - start >= seconds and (traced or len(plain) >= MIN_PLAIN_PASSES):
            break
    setup_s = statistics.median(setups)
    while len(setups) < MIN_SETUPS and time.monotonic() + 2 * setup_s < runner.deadline - 10:
        setups.append(runner.run_pass("plain", setup_only=True)["setup_s"])
    return plain, traced_passes, setups


def failures_of(job_ids, plain, traced_passes):
    """(attempted, failed, reasons) over every job of every pass: a job
    fails when it raised, failed its check in the first pass, or its
    output differs from the first pass."""
    first = plain[0]
    reasons = {}
    attempted = failed = 0
    for rec in plain + traced_passes:
        for jid in job_ids:
            attempted += 1
            why = rec["failures"].get(jid) or first["failures"].get(jid)
            if why is None and rec["digests"].get(jid) != first["digests"].get(jid):
                why = f"output changed in a {rec['mode']} pass"
            if why is not None:
                failed += 1
                reasons.setdefault(jid, why)
    return attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "ffzeta" / "__init__.py").is_file():
        print(f"error: no ffzeta sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src" / "ffzeta"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    job_list = jobgen.generate(args.workload, args.seed)
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = root / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        job_file = work / "jobs.json"
        job_file.write_text(json.dumps(job_list))
        runner = Runner(root, args.workload, job_file, work, trace_dir)
        plain, traced_passes, setups = measure(runner, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    attempted, failed, reasons = failures_of([job["id"] for job in job_list], plain,
                                             traced_passes)
    correct = failed == 0
    if args.trace:
        layer_runs = [metrics.per_layer_values(rec["layers"], rec["cache_bytes"],
                                               rec["gap_slack_min"], rec["speed"])
                      for rec in traced_passes]
        values = {name: statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        values["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced_passes)
                                          / statistics.median(r["wall_s"] for r in plain))
        zero = [name for name in metrics.PREDICTED_NONZERO[args.workload] if not values[name]]
        if zero:
            correct = False
            reasons["coverage"] = "predicted nonzero but zero: " + ", ".join(zero)
        table = {name: (unit, values[name]) for name, (unit, _, _) in metrics.PER_LAYER.items()}
    else:
        values = metrics.end_to_end_values(plain, setups, attempted, failed)
        table = {name: (unit, values[name]) for name, (unit, _) in metrics.END_TO_END.items()}

    versions = plain[0]["versions"]
    print(json.dumps({"env": {"src_sha256": source_fingerprint(root), "git_sha": git_sha(root),
                              "python": versions["python"], "numpy": versions["numpy"],
                              "cpu": cpu_model()},
                      "workload": args.workload, "seed": args.seed, "jobs": len(job_list),
                      "passes": {"plain": len(plain), "traced": len(traced_passes)},
                      "setup_samples": len(setups),
                      "speed_factor": statistics.median(r["speed"] for r in plain),
                      "raw_wall_s": statistics.median(r["raw_wall_s"] for r in plain),
                      "latency_samples": len(metrics.job_latencies(plain))}))
    if reasons:
        print(json.dumps({"failures": reasons}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (unit, value) in table.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
