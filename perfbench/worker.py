"""One benchmark pass, in a fresh process.

Usage: python3 perfbench/worker.py <task.json>

The task names the workload, the job file, the private state directory,
whether to trace, whether to run the correctness checks, and the
monotonic time at which the parent started this process (set-up time is
measured from there).  The pass writes one result JSON file:

* set-up: import the library, build fields, kernels and job inputs
  (for cli-warm: fill the private cache with an untimed cold pass);
* timed pass: every job once, in order, one at a time;
* then peak memory and cache size are read, outputs serialized, and
  only after that the checks run, so they cannot warm the memos or the
  cache for timed jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def setup_time(task):
    """Set-up seconds since spawn, scaled by probes taken just before the
    spawn (by the parent) and just after set-up."""
    raw = time.monotonic() - task["spawn"]
    probes = task["probes"] + [calibrate.probe() for _ in range(3)]
    return raw * calibrate.REFERENCE_S / statistics.median(probes), raw


def timed_loop(items, run_one):
    """Run every item once, with a speed probe before each and after the
    last; returns (scaled latencies, raw latencies, scale factors)."""
    probes, raw = [], []
    for item in items:
        probes.append(calibrate.probe())
        t0 = time.perf_counter()
        run_one(item)
        raw.append(time.perf_counter() - t0)
    probes.append(calibrate.probe())
    factors = calibrate.factors(probes, len(raw))
    return [r * f for r, f in zip(raw, factors)], raw, factors


def measured(latencies, raw, factors, setup):
    return {"setup_s": setup[0], "raw_setup_s": setup[1], "latencies": latencies,
            "wall_s": sum(latencies), "raw_wall_s": sum(raw),
            "speed": statistics.median(factors)}


def _import_library(root: Path):
    import ffzeta
    origin = Path(ffzeta.__file__).resolve()
    if root.resolve() / "src" not in origin.parents:
        raise SystemExit(f"ffzeta was imported from {origin}, not from {root}/src")
    import numpy
    return {"numpy": numpy.__version__, "python": sys.version.split()[0]}


def run_library_pass(task, jobs, root):
    tracer = None
    versions = _import_library(root)
    if task["mode"] == "traced":
        import tracing
        tracer = tracing.install()
    import library
    prepared = [library.prepare(job) for job in jobs]
    setup = setup_time(task)
    if task.get("setup_only"):
        return {"setup_s": setup[0], "versions": versions}

    results, errors = [], {}

    def run_one(prep):
        if tracer is not None:
            tracer.begin_job(prep.job["id"])
        try:
            results.append(prep.call())
        except Exception as exc:  # a failed job is counted, the pass goes on
            results.append(None)
            errors[prep.job["id"]] = f"{type(exc).__name__}: {exc}"

    timing = timed_loop(prepared, run_one)
    if tracer is not None:
        tracer.begin_job(None)

    out = {**measured(*timing, setup),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "cache_bytes": dir_bytes(Path(task["cache"])), "versions": versions}
    if tracer is not None:
        stats, counts = tracer.totals()
        out["layers"] = {"stats": stats, "counts": counts}
        tracer.dump(task["trace_out"], {"workload": task["workload"], "mode": "traced"})
    out["digests"] = {prep.job["id"]: digest(library.canonical(r))
                      for prep, r in zip(prepared, results) if prep.job["id"] not in errors}
    import checks
    slacks = [checks.gap_slack(prep, r) for prep, r in zip(prepared, results)
              if prep.job["id"] not in errors]
    slacks = [s for s in slacks if s is not None]
    out["gap_slack_min"] = min(slacks) if slacks else None
    failures = dict(errors)
    if task["check"]:
        for prep, r in zip(prepared, results):
            if prep.job["id"] in errors:
                continue
            try:
                why = checks.check(prep, r)
            except Exception as exc:  # a check that cannot run is a failed check
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                failures[prep.job["id"]] = why
    out["failures"] = failures
    return out


def _cli_check(argv, rc, stdout, cold):
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if cold != (0, stdout):
        return "output differs from the cold set-up pass"
    if argv[0] == "verify" and doc.get("violations"):
        return "verify reported violations"
    if argv[0] == "interp-gap" and doc.get("satisfied") is not True:
        return "interpolation gap below its bound"
    return None


def run_cli_pass(task, jobs, root):
    versions = _import_library(root)
    from ffzeta.cli import main as cli_main
    cold = {}
    for job in jobs:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli_main(list(job["argv"]))
        cold[job["id"]] = (rc, buf.getvalue())
    setup = setup_time(task)
    if task.get("setup_only"):
        return {"setup_s": setup[0], "versions": versions}

    env = dict(os.environ)
    entry = str(HERE / "cli_entry.py")
    trace_dir = Path(task["trace_out"]).with_suffix("")
    if task["mode"] == "traced":
        trace_dir.mkdir(parents=True, exist_ok=True)
    outputs, errors = {}, {}

    def run_one(job):
        if task["mode"] == "traced":
            env["PERFBENCH_TRACE"] = str(trace_dir / f"{job['id']}.json")
            env["PERFBENCH_JOB"] = job["id"]
        try:
            proc = subprocess.run([sys.executable, entry, *job["argv"]], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            errors[job["id"]] = "timed out"
            return
        outputs[job["id"]] = (proc.returncode, proc.stdout)

    timing = timed_loop(jobs, run_one)
    out = {**measured(*timing, setup),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
           "cache_bytes": dir_bytes(Path(task["cache"])), "versions": versions,
           "gap_slack_min": None}
    if task["mode"] == "traced":
        out["layers"] = merge_child_traces(
            trace_dir, [(job["id"], raw) for job, raw in zip(jobs, timing[1])
                        if job["id"] in outputs])
    out["digests"] = {jid: digest(json.dumps(o)) for jid, o in outputs.items()}
    slacks = []
    for job in jobs:
        rc, stdout = outputs.get(job["id"], (None, ""))
        if job["argv"][0] == "interp-gap" and rc == 0:
            doc = json.loads(stdout)
            if doc.get("gap") is not None:
                slacks.append(doc["gap"] - doc["bound"])
    out["gap_slack_min"] = min(slacks) if slacks else None
    failures = dict(errors)
    if task["check"]:
        for job in jobs:
            if job["id"] in outputs:
                rc, stdout = outputs[job["id"]]
                why = _cli_check(job["argv"], rc, stdout, cold[job["id"]])
                if why:
                    failures[job["id"]] = why
    out["failures"] = failures
    return out


def merge_child_traces(trace_dir: Path, child_traces):
    """Sum the per-process layer totals of the traced cli children."""
    stats, counts = {}, {}
    for job_id, process_s in child_traces:
        doc = json.loads((trace_dir / f"{job_id}.json").read_text())
        for name, (calls, self_s) in doc["stats"].items():
            rec = stats.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        counts["cli.import_s"] = counts.get("cli.import_s", 0) + doc["import_s"]
        counts["cli.main_s"] = counts.get("cli.main_s", 0) + doc["main_s"]
        counts["cli.startup_s"] = counts.get("cli.startup_s", 0) + process_s - doc["main_s"]
    return {"stats": stats, "counts": counts}


def main():
    task = json.loads(Path(sys.argv[1]).read_text())
    root = Path(task["root"])
    jobs = json.loads(Path(task["jobs"]).read_text())
    run = run_cli_pass if task["workload"] == "cli-warm" else run_library_pass
    result = run(task, jobs, root)
    Path(task["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
