"""Turn generated jobs into library calls, and results into canonical text.

`prepare` runs during set-up: it builds the fields, kernels, primes,
points and exponents a job needs, so the timed pass contains only the
library call itself.  `canonical` serializes any result to a stable
JSON string, so outputs can be compared byte for byte across passes.
"""

from __future__ import annotations

import json
import math

from ffzeta import mzv, vadic, zeta
from ffzeta._kernels import get_kernel
from ffzeta.fields import FieldSpec, ZpExp
from ffzeta.padic import PadicCtx
from ffzeta.polyring import APoly, MPoly
from ffzeta.seriesinf import LaurentSeries

_FIELDS: dict = {}


def field(q: int) -> FieldSpec:
    if q not in _FIELDS:
        spec = FieldSpec.default(q)
        get_kernel(spec)  # kernel tables are part of set-up, not of the first job
        _FIELDS[q] = spec
    return _FIELDS[q]


def x_point(spec, c: int, prec: int) -> LaurentSeries:
    """theta + c, known to relative precision prec + 8."""
    return LaurentSeries.from_apoly(APoly(spec, (c, 1)), prec + 7)


class Prepared:
    """A job with its library inputs built; `call()` is the timed work."""

    __slots__ = ("job", "spec", "call", "inputs")

    def __init__(self, job, spec, call, inputs):
        self.job = job
        self.spec = spec
        self.call = call
        self.inputs = inputs


def prepare(job) -> Prepared:
    kind = job["kind"]
    spec = field(job["q"])
    p = spec.p
    if kind == "power_sum":
        d, n = job["d"], job["n"]
        return Prepared(job, spec, lambda: zeta.power_sum(spec, d, n), {})
    if kind == "exact_L":
        n, s = job["n"], job["s"]
        return Prepared(job, spec, lambda: zeta.exact_L(spec, n, s), {})
    if kind == "vadic_exact_L":
        n, s, P = job["n"], job["s"], APoly(spec, job["P"])
        return Prepared(job, spec, lambda: vadic.vadic_exact_L(spec, n, s, P), {"P": P})
    if kind == "mzv_exact":
        idx = mzv.MzvIndex(tuple(job["ns"]), job["mode"])
        return Prepared(job, spec, lambda: mzv.mzv_exact(spec, idx), {"idx": idx})
    if kind == "mzv_vadic_exact":
        idx = mzv.MzvIndex(tuple(job["ns"]), job["mode"])
        P = APoly(spec, job["P"])
        return Prepared(job, spec, lambda: mzv.mzv_vadic_exact(spec, idx, P),
                        {"idx": idx, "P": P})
    if kind == "goss":
        prec = job["prec"]
        pt = zeta.SInftyPoint(x_point(spec, job["x0"], prec), ZpExp(p, job["digits"]))
        return Prepared(job, spec, lambda: zeta.goss_zeta_eval(pt, prec), {"pt": pt})
    if kind == "twisted_finite":
        prec = job["prec"]
        x = x_point(spec, job["x0"], prec)
        finite = [zeta.TwistFactor("finite", frob=job["frob"], hyper=h) for h in job["hypers"]]
        return Prepared(job, spec, lambda: zeta.twisted_L_eval(finite, [], x, prec),
                        {"x": x, "finite": finite})
    if kind == "twisted_inf":
        prec = job["prec"]
        x = x_point(spec, job["x0"], prec)
        theta = LaurentSeries.theta(spec, prec + 8)
        infinite = [zeta.TwistFactor("infinite", frob=job["frob"], point=theta,
                                     zexp=ZpExp(p, digs)) for digs in job["zexps"]]
        return Prepared(job, spec, lambda: zeta.twisted_L_eval([], infinite, x, prec),
                        {"x": x, "infinite": infinite})
    if kind == "pellarin":
        n, s, zdeg, prec = job["n"], job["s"], job["zdeg"], job["prec"]
        return Prepared(job, spec, lambda: zeta.pellarin_L_series(spec, n, s, zdeg, prec), {})
    if kind == "mzv_eval_inf":
        idx = mzv.MzvIndex(tuple(job["ns"]), job["mode"])
        prec = job["prec"]
        return Prepared(job, spec, lambda: mzv.mzv_eval_inf(spec, idx, prec), {"idx": idx})
    if kind == "interpolation_gap":
        P, ns, k = APoly(spec, job["P"]), tuple(job["ns"]), job["k"]
        return Prepared(job, spec, lambda: vadic.interpolation_gap(spec, ns, P, k), {"P": P})
    if kind == "vadic_zeta_eval":
        P, k, n = APoly(spec, job["P"]), job["k"], job["n"]
        ctx = PadicCtx(P, k)
        order = ctx.residue_order()
        m = 1  # enough digits for n itself and for p^m >= k
        while p ** m < max(k, n + 1):
            m += 1
        zdeg = vadic.vadic_degree_bound(spec, -n, 0, P.degree) + 1
        ptv = vadic.VadicPoint(ctx, ZpExp.from_int(n, p, m + 1),
                               n % order if order > 1 else 0, zdeg)
        return Prepared(job, spec, lambda: vadic.vadic_zeta_eval(ptv), {"P": P, "ptv": ptv})
    raise ValueError(f"unknown job kind {kind!r}")


def _coeff_json(value):
    return value.to_json() if hasattr(value, "to_json") else value


def canonical(result) -> str:
    """A stable JSON text for any job result."""
    if isinstance(result, MPoly):
        doc = result.to_json(_coeff_json)
    elif isinstance(result, float) and math.isinf(result):
        doc = "inf"
    elif hasattr(result, "to_json"):
        doc = result.to_json()
    else:
        doc = result
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
