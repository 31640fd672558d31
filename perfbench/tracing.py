"""Per-layer tracing of the library, installed from outside it.

`install()` wraps the public functions and hot methods of every module
of `ffzeta` and returns a `Tracer`.  Public entry points are recorded as
spans (job id, span id, parent span id, start, end, self time).  Hot
leaf calls (kernel operations, series and p-adic arithmetic) are only
aggregated, as calls and self time per (job, function).  Self time comes
from the wrapper stack: a call's duration minus the time spent in the
wrapped calls below it.  Everything stays in memory until `dump`.

A name imported by value (`from .zeta import power_sum`) is a separate
binding, so every module that binds a wrapped function is patched, and
`install` fails when any binding of an original is left.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# (module, attribute, layer name, mode): "span" = public entry point,
# "leaf" = aggregated only, "count" = a generator whose items are counted
FUNCTIONS = (
    ("fields", "poly_add", "fields.poly_arith", "leaf"),
    ("fields", "poly_scale", "fields.poly_arith", "leaf"),
    ("fields", "poly_mul", "fields.poly_arith", "leaf"),
    ("fields", "poly_divmod", "fields.poly_arith", "leaf"),
    ("fields", "poly_mod", "fields.poly_arith", "leaf"),
    ("fields", "poly_gcd", "fields.poly_arith", "leaf"),
    ("fields", "poly_powmod", "fields.poly_arith", "leaf"),
    ("polyring", "enumerate_monic", "polyring.monic_enumerated", "count"),
    ("polyring", "monic_coeff_vectors", "polyring.monic_enumerated", "count"),
    ("seriesinf", "one_unit_pow", "seriesinf.one_unit_pow", "leaf"),
    ("padic", "teichmuller", "padic.teichmuller", "leaf"),
    ("padic", "padic_one_unit_pow", "padic.one_unit_pow", "leaf"),
    ("zeta", "power_sum", "zeta.power_sum", "span"),
    ("zeta", "twisted_power_sum", "zeta.twisted_power_sum", "span"),
    ("zeta", "char_power_sum", "zeta.char_power_sum", "span"),
    ("zeta", "exact_L", "zeta.exact_L", "span"),
    ("zeta", "pellarin_L_series", "zeta.pellarin_L_series", "span"),
    ("zeta", "goss_zeta_eval", "zeta.goss_zeta_eval", "span"),
    ("zeta", "twisted_L_eval", "zeta.twisted_L_eval", "span"),
    ("vadic", "prime_to_p_power_sum", "vadic.prime_to_p_power_sum", "span"),
    ("vadic", "vadic_exact_L", "vadic.vadic_exact_L", "span"),
    ("vadic", "vadic_zeta_eval", "vadic.vadic_zeta_eval", "span"),
    ("vadic", "mk_sequence", "vadic.mk_sequence", "span"),
    ("vadic", "interpolation_gap", "vadic.interpolation_gap", "span"),
    ("mzv", "mzv_exact", "mzv.mzv_exact", "span"),
    ("mzv", "mzv_vadic_exact", "mzv.mzv_vadic_exact", "span"),
    ("mzv", "mzv_eval_inf", "mzv.mzv_eval_inf", "span"),
    ("oracle", "charsum_trial", "oracle.charsum_trial", "span"),
    ("oracle", "enumerated_power_sum", "oracle.enumerated_power_sum", "span"),
    ("oracle", "threshold_scan", "oracle.threshold_scan", "span"),
)

_APOLY_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__",
              "__mod__", "__floordiv__")

# (module, class, method, layer name)
METHODS = (
    *[("_kernels", cls, meth, name) for cls in ("_BitKernel", "_PackedKernel")
      for meth, name in (("mul", "kernels.mul"), ("pow", "kernels.pow"),
                         ("normalize", "kernels.normalize"), ("is_zero", "kernels.is_zero"),
                         ("to_codes", "kernels.codec"), ("from_codes", "kernels.codec"))],
    ("_kernels", "QuotientKernel", "reduce", "kernels.qreduce"),
    ("_kernels", "QuotientKernel", "inverse", "kernels.qinverse"),
    *[("polyring", "APoly", op, "polyring.apoly_arith") for op in _APOLY_OPS],
    ("seriesinf", "LaurentSeries", "__mul__", "seriesinf.mul"),
    ("seriesinf", "LaurentSeries", "inverse", "seriesinf.inverse"),
    ("seriesinf", "LaurentSeries", "__add__", "seriesinf.add"),
    ("padic", "PadicElem", "__mul__", "padic.mul"),
    ("padic", "PadicElem", "inverse", "padic.inverse"),
    ("zeta", "PowerSumCache", "get", "zeta.cache.get"),
    ("zeta", "PowerSumCache", "put", "zeta.cache.put"),
)


class CoverageError(RuntimeError):
    """A wrapped function still has an unwrapped binding somewhere."""


class Tracer:
    def __init__(self):
        self.job = None
        self.stack = []  # one [child seconds, span id or None] per active wrapped call
        self.stats = defaultdict(lambda: [0, 0.0])  # (job, name) -> [calls, self seconds]
        self.counts = defaultdict(int)  # (job, name) -> count
        self.spans = []
        self._span_ids = 0
        self._cache_used = set()

    def begin_job(self, job_id):
        self.job = job_id

    # -- wrappers ---------------------------------------------------------------

    def timed(self, name, fn, span=False, before=None, after=None):
        tracer = self
        stack = self.stack
        stats = self.stats

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            span_id = None
            if span:
                tracer._span_ids += 1
                span_id = tracer._span_ids
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1][0] += elapsed
                rec = stats[(tracer.job, name)]
                rec[0] += 1
                rec[1] += elapsed - frame[0]
                if span:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    tracer.spans.append((tracer.job, span_id, parent, name, t0, t1,
                                         elapsed - frame[0]))
            if after is not None:
                after(args, result, t1 - t0, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            key = (tracer.job, name)
            for item in fn(*args, **kwargs):
                tracer.counts[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call extras ----------------------------------------------------------

    def _mul_bytes(self, args):
        bits = sum(v.bit_length() for v in args[1]) + sum(v.bit_length() for v in args[2])
        self.counts[(self.job, "kernels.mul.operand_bytes")] += (bits + 7) // 8

    def _cache_first(self, cache, elapsed):
        if id(cache) not in self._cache_used:
            self._cache_used.add(id(cache))
            self.counts[(self.job, "zeta.cache.load_s")] += elapsed

    def _cache_get(self, args, result, elapsed, token):
        self._cache_first(args[0], elapsed)
        kind = "zeta.cache.misses" if result is None else "zeta.cache.hits"
        self.counts[(self.job, kind)] += 1

    @staticmethod
    def _cache_size(args):
        try:
            return args[0].path.stat().st_size
        except OSError:
            return 0

    def _cache_put(self, args, result, elapsed, size_before):
        self._cache_first(args[0], elapsed)
        if self._cache_size(args) > size_before:
            self.counts[(self.job, "zeta.cache.puts")] += 1

    # -- totals -------------------------------------------------------------------

    def totals(self):
        """{layer name: [calls, self seconds]} and {counter: value}, over all jobs."""
        stats = defaultdict(lambda: [0, 0.0])
        for (_, name), (calls, self_s) in self.stats.items():
            stats[name][0] += calls
            stats[name][1] += self_s
        counts = defaultdict(int)
        for (_, name), value in self.counts.items():
            counts[name] += value
        return dict(stats), dict(counts)

    def dump(self, path, extra=None):
        """Write spans and per-(job, function) aggregates as JSON lines."""
        with open(path, "w") as fh:
            if extra is not None:
                fh.write(json.dumps({"type": "meta", **extra}) + "\n")
            for job, span_id, parent, name, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"type": "span", "job": job, "id": span_id,
                                     "parent": parent, "name": name, "start": t0,
                                     "end": t1, "self_s": self_s}) + "\n")
            for (job, name), (calls, self_s) in sorted(self.stats.items(), key=str):
                fh.write(json.dumps({"type": "agg", "job": job, "name": name,
                                     "calls": calls, "self_s": self_s}) + "\n")
            for (job, name), value in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"type": "count", "job": job, "name": name,
                                     "value": value}) + "\n")


def _ffzeta_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ffzeta" or name.startswith("ffzeta."))]


def install() -> Tracer:
    """Wrap every traced function and method; raise CoverageError on a miss."""
    import importlib

    for mod in ("_kernels", "fields", "polyring", "seriesinf", "padic", "zeta", "vadic",
                "mzv", "oracle", "cli"):
        importlib.import_module(f"ffzeta.{mod}")
    tracer = Tracer()
    modules = _ffzeta_modules()
    originals = {}
    for mod_name, attr, name, mode in FUNCTIONS:
        fn = getattr(sys.modules[f"ffzeta.{mod_name}"], attr)
        if mode == "count":
            wrapped = tracer.counted(name, fn)
        else:
            wrapped = tracer.timed(name, fn, span=mode == "span")
        originals[id(fn)] = (fn, wrapped, f"ffzeta.{mod_name}.{attr}")
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(sys.modules[f"ffzeta.{mod_name}"], cls_name)
        fn = cls.__dict__[meth]
        before = after = None
        if name == "kernels.mul":
            before = tracer._mul_bytes
        elif name == "zeta.cache.get":
            after = tracer._cache_get
        elif name == "zeta.cache.put":
            before, after = tracer._cache_size, tracer._cache_put
        setattr(cls, meth, tracer.timed(name, fn, before=before, after=after))
    missed = [label for fn, _, label in originals.values()
              for module in modules for value in vars(module).values() if value is fn]
    for mod_name, cls_name, meth, _ in METHODS:
        cls = getattr(sys.modules[f"ffzeta.{mod_name}"], cls_name)
        if not hasattr(cls.__dict__[meth], "__wrapped__"):
            missed.append(f"ffzeta.{mod_name}.{cls_name}.{meth}")
    if missed:
        raise CoverageError("unwrapped bindings: " + ", ".join(sorted(set(missed))))
    return tracer
