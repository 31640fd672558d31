"""Metric names, units and how each is computed from pass results.

The names and units here are the ones BENCHMARK.json declares; a test
keeps the two in step.  End-to-end metrics come from untraced passes,
per-layer metrics from traced passes.
"""

from __future__ import annotations

import math
import statistics

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_p50_ms": ("ms", "lower"),
    "job_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

# name -> (unit, better, source); a source is ("calls" | "self_s", layer),
# ("count", counter) or ("derived", key)
PER_LAYER = {
    "kernels.mul.calls": ("count", "lower", ("calls", "kernels.mul")),
    "kernels.mul.self_s": ("s", "lower", ("self_s", "kernels.mul")),
    "kernels.mul.operand_bytes": ("bytes", "lower", ("count", "kernels.mul.operand_bytes")),
    "kernels.pow.calls": ("count", "lower", ("calls", "kernels.pow")),
    "kernels.pow.self_s": ("s", "lower", ("self_s", "kernels.pow")),
    "kernels.normalize.calls": ("count", "lower", ("calls", "kernels.normalize")),
    "kernels.normalize.self_s": ("s", "lower", ("self_s", "kernels.normalize")),
    "kernels.is_zero.calls": ("count", "lower", ("calls", "kernels.is_zero")),
    "kernels.codec.self_s": ("s", "lower", ("self_s", "kernels.codec")),
    "kernels.qreduce.calls": ("count", "lower", ("calls", "kernels.qreduce")),
    "kernels.qreduce.self_s": ("s", "lower", ("self_s", "kernels.qreduce")),
    "kernels.qinverse.self_s": ("s", "lower", ("self_s", "kernels.qinverse")),
    "polyring.monic_enumerated": ("count", "lower", ("count", "polyring.monic_enumerated")),
    "polyring.apoly_arith.self_s": ("s", "lower", ("self_s", "polyring.apoly_arith")),
    "fields.poly_arith.self_s": ("s", "lower", ("self_s", "fields.poly_arith")),
    "padic.mul.self_s": ("s", "lower", ("self_s", "padic.mul")),
    "padic.inverse.self_s": ("s", "lower", ("self_s", "padic.inverse")),
    "padic.teichmuller.self_s": ("s", "lower", ("self_s", "padic.teichmuller")),
    "padic.one_unit_pow.self_s": ("s", "lower", ("self_s", "padic.one_unit_pow")),
    "seriesinf.mul.calls": ("count", "lower", ("calls", "seriesinf.mul")),
    "seriesinf.mul.self_s": ("s", "lower", ("self_s", "seriesinf.mul")),
    "seriesinf.inverse.calls": ("count", "lower", ("calls", "seriesinf.inverse")),
    "seriesinf.inverse.self_s": ("s", "lower", ("self_s", "seriesinf.inverse")),
    "seriesinf.one_unit_pow.calls": ("count", "lower", ("calls", "seriesinf.one_unit_pow")),
    "seriesinf.one_unit_pow.self_s": ("s", "lower", ("self_s", "seriesinf.one_unit_pow")),
    "seriesinf.add.self_s": ("s", "lower", ("self_s", "seriesinf.add")),
    "zeta.power_sum.calls": ("count", "lower", ("calls", "zeta.power_sum")),
    "zeta.power_sum.self_s": ("s", "lower", ("self_s", "zeta.power_sum")),
    "zeta.exact_L.self_s": ("s", "lower", ("self_s", "zeta.exact_L")),
    "vadic.prime_to_p_power_sum.self_s": ("s", "lower",
                                          ("self_s", "vadic.prime_to_p_power_sum")),
    "vadic.vadic_exact_L.self_s": ("s", "lower", ("self_s", "vadic.vadic_exact_L")),
    "mzv.mzv_exact.self_s": ("s", "lower", ("self_s", "mzv.mzv_exact")),
    "zeta.cache.hits": ("count", "higher", ("count", "zeta.cache.hits")),
    "zeta.cache.misses": ("count", "lower", ("count", "zeta.cache.misses")),
    "zeta.cache.hit_ratio": ("ratio", "higher", ("derived", "hit_ratio")),
    "zeta.cache.puts": ("count", "lower", ("count", "zeta.cache.puts")),
    "zeta.cache.load_s": ("s", "lower", ("count", "zeta.cache.load_s")),
    "zeta.cache.mb": ("MB", "lower", ("derived", "cache_mb")),
    "zeta.goss_zeta_eval.self_s": ("s", "lower", ("self_s", "zeta.goss_zeta_eval")),
    "zeta.twisted_L_eval.self_s": ("s", "lower", ("self_s", "zeta.twisted_L_eval")),
    "zeta.pellarin_L_series.self_s": ("s", "lower", ("self_s", "zeta.pellarin_L_series")),
    "mzv.mzv_eval_inf.self_s": ("s", "lower", ("self_s", "mzv.mzv_eval_inf")),
    "vadic.interpolation_gap.self_s": ("s", "lower", ("self_s", "vadic.interpolation_gap")),
    "vadic.vadic_zeta_eval.self_s": ("s", "lower", ("self_s", "vadic.vadic_zeta_eval")),
    "vadic.gap_slack_min": ("count", "higher", ("derived", "gap_slack_min")),
    "cli.import_s": ("s", "lower", ("count", "cli.import_s")),
    "cli.main_s": ("s", "lower", ("count", "cli.main_s")),
    "cli.startup_s": ("s", "lower", ("count", "cli.startup_s")),
    "oracle.charsum_trial.self_s": ("s", "lower", ("self_s", "oracle.charsum_trial")),
    "trace.overhead_ratio": ("ratio", "lower", ("derived", "overhead_ratio")),
}

# Counters the layer table predicts to be nonzero on each workload; a
# traced run in which one of them reads zero fails its coverage guard.
PREDICTED_NONZERO = {
    "exact-grid": (
        "kernels.mul.calls", "kernels.mul.self_s", "kernels.mul.operand_bytes",
        "kernels.pow.calls", "kernels.pow.self_s", "kernels.normalize.calls",
        "kernels.normalize.self_s", "kernels.is_zero.calls", "kernels.codec.self_s",
        "polyring.monic_enumerated", "polyring.apoly_arith.self_s",
        "zeta.power_sum.calls", "zeta.power_sum.self_s", "zeta.exact_L.self_s",
        "vadic.prime_to_p_power_sum.self_s", "vadic.vadic_exact_L.self_s",
        "mzv.mzv_exact.self_s", "zeta.cache.misses", "zeta.cache.puts",
        "zeta.cache.load_s", "zeta.cache.mb"),
    "infty-eval": (
        "seriesinf.mul.calls", "seriesinf.mul.self_s", "seriesinf.inverse.calls",
        "seriesinf.inverse.self_s", "seriesinf.one_unit_pow.calls",
        "seriesinf.one_unit_pow.self_s", "seriesinf.add.self_s",
        "zeta.goss_zeta_eval.self_s", "zeta.twisted_L_eval.self_s",
        "zeta.pellarin_L_series.self_s", "mzv.mzv_eval_inf.self_s"),
    "vadic-interp": (
        "kernels.mul.calls", "kernels.mul.self_s", "kernels.mul.operand_bytes",
        "kernels.normalize.calls", "kernels.normalize.self_s", "kernels.codec.self_s",
        "kernels.qreduce.calls", "kernels.qreduce.self_s", "kernels.qinverse.self_s",
        "polyring.apoly_arith.self_s", "fields.poly_arith.self_s", "padic.mul.self_s",
        "padic.inverse.self_s", "padic.teichmuller.self_s", "padic.one_unit_pow.self_s",
        "vadic.interpolation_gap.self_s", "vadic.vadic_zeta_eval.self_s"),
    "cli-warm": (
        "cli.import_s", "cli.main_s", "cli.startup_s", "oracle.charsum_trial.self_s",
        "zeta.cache.hits", "zeta.cache.hit_ratio", "zeta.cache.load_s", "zeta.cache.mb"),
}


def per_layer_values(layers, cache_bytes, gap_slack_min, speed):
    """Per-layer metric values of one traced pass; times are scaled by the
    pass's median speed factor (see calibrate.py)."""
    stats, counts = layers["stats"], layers["counts"]
    hits = counts.get("zeta.cache.hits", 0)
    lookups = hits + counts.get("zeta.cache.misses", 0)
    derived = {"hit_ratio": hits / lookups if lookups else 0.0,
               "cache_mb": cache_bytes / 2 ** 20,
               "gap_slack_min": gap_slack_min if gap_slack_min is not None else 0}
    out = {}
    for name, (_, _, (kind, key)) in PER_LAYER.items():
        if kind == "calls":
            out[name] = stats.get(key, [0, 0.0])[0]
        elif kind == "self_s":
            out[name] = stats.get(key, [0, 0.0])[1]
        elif kind == "count":
            out[name] = counts.get(key, 0)
        elif key in derived:
            out[name] = derived[key]
        if PER_LAYER[name][0] == "s" and name in out:
            out[name] *= speed
    return out


def quantile(values, fraction):
    """Harrell-Davis estimate of a quantile: a Beta-weighted mean of all
    order statistics, so it does not jump between neighbouring jobs the
    way a single order statistic does."""
    xs = sorted(values)
    n = len(xs)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 20  # Simpson sub-intervals per order statistic
    weighted = total = 0.0
    for i, x in enumerate(xs):
        lo, h = i / n, 1 / (n * steps)
        w = density(lo) + density(lo + steps * h) + sum(
            (4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weighted += x * w
        total += w
    return weighted / total


def job_latencies(plain):
    """Each job's median latency over the untraced passes, in job order."""
    return [statistics.median(per_pass) for per_pass in zip(*(r["latencies"] for r in plain))]


def end_to_end_values(plain, setups, attempted, failed):
    latencies = job_latencies(plain)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rec["wall_s"] for rec in plain),
        "job_p50_ms": 1000 * quantile(latencies, 0.5),
        "job_p90_ms": 1000 * quantile(latencies, 0.9),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in plain),
        "ok_frac": 1 - failed / attempted,
    }
