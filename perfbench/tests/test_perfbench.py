"""Tests of the benchmark itself: job generation, traced/untraced
agreement and the metric names declared in BENCHMARK.json.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


def _shape(job):
    """Everything about a job that the seed must not change."""
    keep = ("kind", "q", "s", "d", "k", "prec", "zdeg", "cls", "mode", "hypers")
    if job["kind"] == "cli":
        return (job["q"], job["argv"][0])
    return tuple((key, json.dumps(job.get(key))) for key in keep if key != "mode")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_and_fixed_strata(workload):
    first = jobs.generate(workload, 7)
    assert first == jobs.generate(workload, 7)
    other = jobs.generate(workload, 8)
    assert other != first
    assert len(first) >= 100
    assert Counter(map(_shape, first)) == Counter(map(_shape, other))


def test_prime_table_is_irreducible():
    from ffzeta.fields import FieldSpec
    from ffzeta.polyring import APoly, is_irreducible
    for q, by_degree in jobs.IRREDUCIBLE.items():
        spec = FieldSpec.default(q)
        for deg, polys in by_degree.items():
            for codes in polys:
                assert len(codes) == deg + 1 and codes[-1] == 1
                assert is_irreducible(APoly(spec, codes)), (q, codes)


def test_benchmark_json_names_every_metric_with_its_unit():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == \
        dict(metrics.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()}
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)
    for names in metrics.PREDICTED_NONZERO.values():
        assert set(names) <= set(metrics.PER_LAYER)


def _subset(workload, size):
    """A small job list with one job per (kind, q) cell at most `size` jobs."""
    seen, out = set(), []
    for job in jobs.generate(workload, 1):
        cell = (job["kind"], job["q"], job["argv"][0] if job["kind"] == "cli" else None)
        if cell not in seen and (job["q"] <= 3 or job["kind"] == "cli"):
            seen.add(cell)
            out.append(job)
    return out[:size]


@pytest.mark.parametrize("workload,size", [("exact-grid", 12), ("infty-eval", 12),
                                           ("vadic-interp", 6), ("cli-warm", 10)])
def test_traced_and_untraced_passes_give_identical_outputs(tmp_path, workload, size):
    subset = _subset(workload, size)
    job_file = tmp_path / "jobs.json"
    job_file.write_text(json.dumps(subset))
    runner = run.Runner(ROOT, workload, job_file, tmp_path / "work", tmp_path)
    plain = runner.run_pass("plain", check=True)
    traced = runner.run_pass("traced")
    assert plain["failures"] == {} and traced["failures"] == {}
    assert plain["digests"] == traced["digests"]
    assert len(plain["digests"]) == len(subset) >= size // 2
    assert traced["layers"]["stats"] and "layers" not in plain


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(monkeypatch, capsys, trace):
    monkeypatch.chdir(ROOT)
    small = [job for job in jobs.generate("exact-grid", 3) if job["q"] == 2]
    monkeypatch.setattr(run.jobgen, "generate", lambda workload, seed: small)
    monkeypatch.setattr(run, "cpu_model", lambda: "test")
    assert run.main(["--workload", "exact-grid", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= len(small)
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: m["unit"] for name, m in last["metrics"].items()} == \
        {name: spec[0] for name, spec in declared.items()}


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact-grid", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.xfail(strict=True, reason="twisted_L_eval stops a finite-factor sum after "
                   "s/(q-1) shells, but with mixed Frobenius orders a later shell need not "
                   "vanish; the benchmark gives all factors of a job one order")
def test_twisted_finite_sum_with_mixed_frobenius_orders():
    import checks
    from ffzeta.fields import FieldSpec
    from ffzeta.seriesinf import LaurentSeries
    from ffzeta.polyring import APoly
    from ffzeta.zeta import TwistFactor, twisted_L_eval
    spec = FieldSpec.default(4)
    finite = [TwistFactor("finite", frob=0), TwistFactor("finite", frob=1)]
    x = LaurentSeries.from_apoly(APoly(spec, (0, 1)), 30)
    assert checks._twisted_finite(spec, finite, x, 20, twisted_L_eval(finite, [], x, 20)) is None
