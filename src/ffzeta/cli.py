"""Command-line front end.

Every subcommand validates its arguments, runs one library operation
and prints a JSON document (or CSV rows with --format csv) on stdout.
Exit codes: 0 on success, 2 on validation errors (a division by a
non-unit among them), 3 when a precision or certificate requirement
cannot be met.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from .fields import FieldSpec, FqElem, ZpExp, FieldError
from .polyring import APoly, MPoly
from .seriesinf import LaurentSeries, PrecisionError
from .padic import PadicCtx, PadicElem
from . import zeta as zeta_mod
from . import vadic as vadic_mod
from . import mzv as mzv_mod
from . import oracle as oracle_mod
from .zeta import SInftyPoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION = 3


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(doc, lo=None, hi=None) -> bool:
    return isinstance(doc, list) and all(
        _is_int(c) and (lo is None or lo <= c < hi) for c in doc)


def _json_arg(flag, text, shape, ok, load=json.loads):
    """Parse a JSON flag value; one that does not parse or fails `ok`
    is a validation error naming the flag and the shape it expects."""
    try:
        doc = load(text)
    except json.JSONDecodeError:
        raise SystemExit2(f"{flag} expects {shape}, got {text}") from None
    if not ok(doc):
        raise SystemExit2(f"{flag} expects {shape}, got {json.dumps(doc)}")
    return doc


def _field_from_args(args) -> FieldSpec:
    if args.field_json:
        doc = _json_arg("--field-json", args.field_json,
                        'a JSON object {"p": int, "e": int, "modulus": [int, ...]}',
                        lambda d: isinstance(d, dict) and _is_int(d.get("p"))
                        and _is_int(d.get("e")) and _int_list(d.get("modulus")))
        return FieldSpec.from_json(doc)
    if args.modulus:
        return FieldSpec(args.p, _json_arg(
            "--modulus", args.modulus,
            "a JSON list of F_p coefficients [c_0, ..., c_e], ascending and monic",
            _int_list))
    q = args.p ** args.e
    if args.e == 1:
        return FieldSpec(args.p, (0, 1))
    return FieldSpec.default(q)


def _load_doc(text: str):
    """Parse inline JSON, or read it from a file when given a path."""
    import os
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    return json.loads(text)


def _parse_apoly(spec, text) -> APoly:
    def ok(doc):
        if isinstance(doc, dict):
            return isinstance(doc.get("coeffs"), list) and all(
                _int_list(c, 0, spec.p) and len(c) == spec.e for c in doc["coeffs"])
        return _int_list(doc, 0, spec.q)

    doc = _json_arg("--P", text, f'a JSON list of codes in [0, {spec.q}) or an object '
                    f'{{"coeffs": [[F_p coordinates, {spec.e} each], ...]}}', ok, _load_doc)
    if isinstance(doc, dict):
        return APoly.from_json(spec, doc)
    # plain code list convenience form
    return APoly(spec, doc)


def _parse_x(spec, text) -> LaurentSeries:
    doc = _json_arg("--x", text, 'a JSON object {"val": int or null, "prec": int, '
                    f'"coeffs": [[F_p coordinates in [0, {spec.p}), {spec.e} each], ...]}}',
                    lambda d: isinstance(d, dict) and {"val", "prec", "coeffs"} <= d.keys()
                    and isinstance(d["coeffs"], list)
                    and all(_int_list(c, 0, spec.p) and len(c) == spec.e
                            for c in d["coeffs"]), _load_doc)
    return LaurentSeries.from_json(spec, doc)


def _parse_digits(text):
    return [int(x) for x in text.split(",") if x != ""]


def _coeff_json(value):
    if isinstance(value, (FqElem, APoly, LaurentSeries, PadicElem)):
        return value.to_json()
    return value


def _emit(args, doc) -> None:
    if args.format == "csv":
        _emit_csv(doc)
    else:
        print(json.dumps(doc, sort_keys=True))


def _emit_csv(doc) -> None:
    if isinstance(doc, dict) and "terms" in doc and "vars" in doc:
        print(",".join(doc["vars"] + ["coeff"]))
        for term in doc["terms"]:
            print(",".join([str(e) for e in term["exp"]] + [json.dumps(term["coeff"])]))
        return
    if isinstance(doc, dict):
        for key, value in sorted(doc.items()):
            print(f"{key},{json.dumps(value)}")
        return
    print(json.dumps(doc))


def _mpoly_doc(poly: MPoly) -> dict:
    return poly.to_json(_coeff_json)


SCHEMAS = {
    "powersum": "{d:int, n:int} -> APoly {coeffs: [[F_p coords]]}",
    "zeta-poly": "{n:int<=0, s:int} -> MPoly {vars:[t1..ts,z], terms:[{exp, coeff:APoly}]}",
    "pellarin": "{n:int>=1, s:int, zdeg:int, prec:int} -> MPoly with Laurent coeffs {val,prec,coeffs}",
    "zeta-eval": "{x: Laurent JSON, neg-y-digits, prec} -> Laurent {val,prec,coeffs}",
    "vadic": "{P: APoly JSON, n<=0, s} -> MPoly over A",
    "vadic-eval": "{P, k, neg-y-digits, delta, zdeg} -> MPoly in z with A/(P^k) coeffs",
    "mk": "{n1:int, k:int, P} -> {dP:int, k:int, mk:int, n1:int}",
    "interp-gap": "{indices, P, k} -> {bound:int, gap:int|null, satisfied:bool}; "
                  "a null gap means no chain valuation below kappa: an exact zero "
                  "or a value past working precision",
    "mzv": "{indices, mode, [P], [prec], [z]} -> MPoly or Laurent",
    "verify": "{suite, seed, budget} -> report {violations: [...], ...}",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffzeta",
        description="Exact zeta objects over F_q[theta]")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, default=2, help="field characteristic")
        p.add_argument("--e", type=int, default=1, help="extension degree")
        p.add_argument("--modulus", help="JSON list of F_p coefficients, ascending, monic")
        p.add_argument("--field-json", help="full FieldSpec JSON document")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--describe", action="store_true",
                       help="print the subcommand's output schema and exit")

    ps = sub.add_parser("powersum", help="S_d(n) = sum of a^n over monic degree-d a")
    common(ps)
    ps.add_argument("--d", type=int, required=False)
    ps.add_argument("--n", type=int, required=False)

    zp = sub.add_parser("zeta-poly", help="exact zeta polynomial for n <= 0")
    common(zp)
    zp.add_argument("--n", type=int, required=False)
    zp.add_argument("--s", type=int, default=0)

    pl = sub.add_parser("pellarin", help="truncated series for n >= 1")
    common(pl)
    pl.add_argument("--n", type=int, required=False)
    pl.add_argument("--s", type=int, default=0)
    pl.add_argument("--zdeg", type=int, default=6)
    pl.add_argument("--prec", type=int, default=40)

    ze = sub.add_parser("zeta-eval", help="evaluate at (x; y) with digits of -y")
    common(ze)
    ze.add_argument("--x", help="Laurent JSON document")
    ze.add_argument("--neg-y-digits", help="comma-separated base-p digits of -y")
    ze.add_argument("--prec", type=int, default=40)

    va = sub.add_parser("vadic", help="prime-to-P zeta polynomial for n <= 0")
    common(va)
    va.add_argument("--P", required=False, help="APoly JSON (or code list)")
    va.add_argument("--n", type=int, required=False)
    va.add_argument("--s", type=int, default=0)

    ve = sub.add_parser("vadic-eval", help="v-adic series value in A/(P^k)")
    common(ve)
    ve.add_argument("--P", required=False)
    ve.add_argument("--k", type=int, required=False)
    ve.add_argument("--neg-y-digits")
    ve.add_argument("--delta", type=int, default=0)
    ve.add_argument("--zdeg", type=int, default=6)

    mk = sub.add_parser("mk", help="interpolation exponent m_k for a target n1")
    common(mk)
    mk.add_argument("--n1", type=int, required=False)
    mk.add_argument("--k", type=int, required=False)
    mk.add_argument("--P", required=False)

    ig = sub.add_parser("interp-gap", help="measured v_P interpolation gap")
    common(ig)
    ig.add_argument("--indices", help="comma-separated integers n1[,n2,..]")
    ig.add_argument("--P", required=False)
    ig.add_argument("--k", type=int, required=False)

    mz = sub.add_parser("mzv", help="multiple zeta polynomial or value")
    common(mz)
    mz.add_argument("--indices", help="comma-separated integers")
    mz.add_argument("--mode", choices=("strict", "weak"), default="strict")
    mz.add_argument("--P", help="restrict the first index prime to P")
    mz.add_argument("--prec", type=int, help="numeric precision for positive indices")
    mz.add_argument("--z", help="comma-separated z-point codes (constants)")

    vf = sub.add_parser("verify", help="run a verification suite")
    common(vf)
    vf.add_argument("suite", choices=("charsum", "thresholds", "trivial-zeros",
                                      "euler", "interp"))
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--budget", type=int, default=oracle_mod.ENUMERATION_BUDGET)
    vf.add_argument("--trials", type=int, default=200)

    # values like "-3,-1" (index lists) must parse as values, not flags
    matcher = re.compile(r"^-\d[\d,.-]*$")
    for p in [parser] + list(sub.choices.values()):
        p._negative_number_matcher = matcher
    return parser


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise SystemExit2(f"missing required arguments: {', '.join('--' + n for n in missing)}")


class SystemExit2(Exception):
    pass


def _run(args) -> int:
    if getattr(args, "describe", False):
        print(json.dumps({"command": args.command, "schema": SCHEMAS[args.command]}))
        return EXIT_OK
    spec = _field_from_args(args)
    cmd = args.command

    if cmd == "powersum":
        _require(args, "d", "n")
        value = zeta_mod.power_sum(spec, args.d, args.n)
        _emit(args, value.to_json())
    elif cmd == "zeta-poly":
        _require(args, "n")
        poly = zeta_mod.exact_L(spec, args.n, args.s)
        _emit(args, _mpoly_doc(poly))
    elif cmd == "pellarin":
        _require(args, "n")
        poly = zeta_mod.pellarin_L_series(spec, args.n, args.s, args.zdeg, args.prec)
        _emit(args, _mpoly_doc(poly))
    elif cmd == "zeta-eval":
        _require(args, "x", "neg-y-digits")
        x = _parse_x(spec, args.x)
        digits = _parse_digits(args.neg_y_digits)
        pt = SInftyPoint(x, ZpExp(spec.p, digits))
        value = zeta_mod.goss_zeta_eval(pt, args.prec)
        _emit(args, value.to_json())
    elif cmd == "vadic":
        _require(args, "P", "n")
        P = _parse_apoly(spec, args.P)
        poly = vadic_mod.vadic_exact_L(spec, args.n, args.s, P)
        _emit(args, _mpoly_doc(poly))
    elif cmd == "vadic-eval":
        _require(args, "P", "k", "neg-y-digits")
        P = _parse_apoly(spec, args.P)
        ctx = PadicCtx(P, args.k)
        ptv = vadic_mod.VadicPoint(ctx, ZpExp(spec.p, _parse_digits(args.neg_y_digits)),
                                   args.delta, args.zdeg)
        poly = vadic_mod.vadic_zeta_eval(ptv)
        _emit(args, _mpoly_doc(poly))
    elif cmd == "mk":
        _require(args, "n1", "k", "P")
        P = _parse_apoly(spec, args.P)
        mk = vadic_mod.mk_sequence(args.n1, args.k, P.degree, spec.q)
        _emit(args, {"mk": mk, "n1": args.n1, "k": args.k, "dP": P.degree})
    elif cmd == "interp-gap":
        _require(args, "indices", "P", "k")
        ns = _parse_digits(args.indices)
        P = _parse_apoly(spec, args.P)
        gap = vadic_mod.interpolation_gap(spec, ns, P, args.k)
        bound = vadic_mod.interpolation_gap_bound(spec, ns, P.degree, args.k)
        _emit(args, {"gap": None if gap == float("inf") else gap, "bound": bound,
                     "satisfied": gap >= bound})
    elif cmd == "mzv":
        _require(args, "indices")
        ns = _parse_digits(args.indices)
        exact = all(n <= 0 for n in ns)
        for flag in ("prec", "z") if exact else ("P",):
            if getattr(args, flag) is not None:
                raise SystemExit2(f"--{flag} does not apply to indices {args.indices}")
        P = _parse_apoly(spec, args.P) if args.P else None
        idx = mzv_mod.MzvIndex(tuple(ns), args.mode)
        if exact:
            poly = (mzv_mod.mzv_vadic_exact(spec, idx, P) if P is not None
                    else mzv_mod.mzv_exact(spec, idx))
            _emit(args, _mpoly_doc(poly))
        else:
            if args.prec is None:
                raise SystemExit2("positive indices need --prec")
            z_points = None
            if args.z:
                codes = _parse_digits(args.z)
                if not all(0 <= c < spec.q for c in codes):
                    raise SystemExit2(f"--z expects codes in [0, {spec.q}), got {args.z}")
                z_points = [LaurentSeries.constant(spec, c, args.prec) for c in codes]
            value = mzv_mod.mzv_eval_inf(spec, idx, args.prec, z_points)
            _emit(args, value.to_json())
    elif cmd == "verify":
        report = _run_verify(args, spec)
        _emit(args, report)
        if report.get("violations"):
            return EXIT_PRECISION
    else:  # pragma: no cover
        raise SystemExit2(f"unknown command {cmd}")
    return EXIT_OK


def _run_verify(args, spec) -> dict:
    rng = random.Random(args.seed)
    if args.suite == "charsum":
        violations = []
        p = spec.p
        for _ in range(args.trials):
            r = rng.randrange(0, 2 * (p - 1) * 4 + 1)
            lo = r // (p - 1) + 1
            dim = rng.randrange(lo, lo + 4)
            if p ** dim > args.budget:
                continue
            cfg = oracle_mod.random_charsum_config(rng, p, dim, r, spec)
            if charsum := oracle_mod.charsum_trial(cfg):
                violations.append({"p": p, "dim": dim, "r": r})
        return {"suite": "charsum", "seed": args.seed, "trials": args.trials,
                "violations": violations}
    if args.suite == "thresholds":
        reports = [oracle_mod.threshold_scan("powersum", spec=spec, d_max=4,
                                             n_max=3 * (spec.q - 1) * spec.q,
                                             budget=args.budget),
                   oracle_mod.threshold_scan("twisted", spec=spec, d_max=3, s_max=4,
                                             budget=args.budget)]
        violations = [v for r in reports for v in r["violations"]]
        return {"suite": "thresholds", "seed": args.seed, "violations": violations,
                "reports": reports}
    if args.suite == "trivial-zeros":
        violations = []
        for s in range(3):
            for n in range(-12, 1):
                if (s - n) % (spec.q - 1) == 0 and s - n >= 1:
                    poly = zeta_mod.exact_L(spec, n, s)
                    at_one = poly.substitute("z", APoly.one(spec))
                    if not at_one.is_zero():
                        violations.append({"q": spec.q, "n": n, "s": s})
        return {"suite": "trivial-zeros", "violations": violations}
    if args.suite == "euler":
        violations = []
        for Pc in ((0, 1), (1, 1)):
            P = APoly(spec, Pc)
            for n in range(-6, 1):
                if vadic_mod.vadic_exact_L(spec, n, 0, P) != \
                        oracle_mod.enumerated_vadic_exact_L(spec, n, 0, P):
                    violations.append({"q": spec.q, "P": list(Pc), "n": n})
        return {"suite": "euler", "violations": violations}
    if args.suite == "interp":
        violations = []
        P = APoly.theta(spec)
        for k in range(0, 2):
            for n1 in range(-2, 3):
                gap = vadic_mod.interpolation_gap(spec, (n1,), P, k)
                bound = vadic_mod.interpolation_gap_bound(spec, (n1,), 1, k)
                if gap < bound:
                    violations.append({"q": spec.q, "k": k, "n1": n1,
                                       "gap": gap, "bound": bound})
        return {"suite": "interp", "violations": violations}
    raise SystemExit2(f"unknown suite {args.suite}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return _run(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FieldError, ValueError, KeyError, json.JSONDecodeError, TypeError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
