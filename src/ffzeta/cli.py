"""Command-line front end.

One table, `COMMANDS`, describes every subcommand: its help text, the
output schema `--describe` prints, its own flags and a runner
`(args, spec) -> value`.  The parser, the required-flag check and the
dispatch all read it.  A subcommand validates its arguments, runs one
library operation and prints the value's JSON document (or CSV rows
with --format csv) on stdout.  `--P` and `--x` take inline JSON, or the
path of a JSON file when the text is not JSON.  Exit codes: 0 on
success, 2 on validation errors (a division by a non-unit and an
unreadable file among them), 3 when a precision or certificate
requirement cannot be met or a `verify` suite finds a violation or a
fast-path mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .fields import FieldSpec, ZpExp
from .polyring import APoly
from .seriesinf import LaurentSeries, PrecisionError
from .padic import PadicCtx
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
        raise ValueError(f"{flag} expects {shape}, got {text}") from None
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"{flag} cannot read {text} ({type(exc).__name__})") from None
    if not ok(doc):
        raise ValueError(f"{flag} expects {shape}, got {json.dumps(doc)}")
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
    if args.e < 1:
        raise ValueError("--e must be >= 1")
    q = args.p ** args.e
    if args.e == 1:
        return FieldSpec(args.p, (0, 1))
    return FieldSpec.default(q)


def _load_doc(text: str):
    """Parse inline JSON; text that is not JSON but names a file is read
    from it, so a file can never shadow an inline document."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if not os.path.exists(text):
            raise
    with open(text) as fh:
        return json.loads(fh.read())


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


def _parse_digits(flag, text):
    """A comma-separated list of integers; an empty entry names the flag."""
    entries = text.split(",")
    if "" in (e.strip() for e in entries):
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    return [int(x) for x in entries]


def _emit(args, value) -> None:
    doc = value.to_json() if hasattr(value, "to_json") else value
    if args.format == "csv":
        _emit_csv(doc)
    else:
        print(json.dumps(doc, sort_keys=True))


def _emit_csv(doc: dict) -> None:
    """An MPoly as one row per term, any other document (every subcommand
    emits a dict) as one key,value row per key."""
    if "terms" in doc and "vars" in doc:
        print(",".join(doc["vars"] + ["coeff"]))
        for term in doc["terms"]:
            print(",".join([str(e) for e in term["exp"]] + [json.dumps(term["coeff"])]))
        return
    for key, value in sorted(doc.items()):
        print(f"{key},{json.dumps(value)}")


def _zeta_eval(args, spec):
    x = _parse_x(spec, args.x)
    pt = SInftyPoint(x, ZpExp(spec.p, _parse_digits("--neg-y-digits", args.neg_y_digits)))
    return zeta_mod.goss_zeta_eval(pt, args.prec)


def _vadic_eval(args, spec):
    ctx = PadicCtx(_parse_apoly(spec, args.P), args.k)
    neg_y = ZpExp(spec.p, _parse_digits("--neg-y-digits", args.neg_y_digits))
    return vadic_mod.vadic_zeta_eval(vadic_mod.VadicPoint(ctx, neg_y, args.delta, args.zdeg))


def _mk(args, spec):
    P = _parse_apoly(spec, args.P)
    mk = vadic_mod.mk_sequence(args.n1, args.k, P.degree, spec.q)
    return {"mk": mk, "n1": args.n1, "k": args.k, "dP": P.degree}


def _interp_gap(args, spec):
    ns = _parse_digits("--indices", args.indices)
    P = _parse_apoly(spec, args.P)
    gap = vadic_mod.interpolation_gap(spec, ns, P, args.k)
    bound = vadic_mod.interpolation_gap_bound(spec, ns, P.degree, args.k)
    return {"gap": None if gap == float("inf") else gap, "bound": bound,
            "satisfied": gap >= bound}


def _mzv(args, spec):
    ns = _parse_digits("--indices", args.indices)
    exact = all(n <= 0 for n in ns)
    for flag in ("prec", "z") if exact else ("P",):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to indices {args.indices}")
    P = _parse_apoly(spec, args.P) if args.P else None
    idx = mzv_mod.MzvIndex(tuple(ns), args.mode)
    if exact:
        return (mzv_mod.mzv_vadic_exact(spec, idx, P) if P is not None
                else mzv_mod.mzv_exact(spec, idx))
    if args.prec is None:
        raise ValueError("positive indices need --prec")
    z_points = None
    if args.z:
        codes = _parse_digits("--z", args.z)
        if not all(0 <= c < spec.q for c in codes):
            raise ValueError(f"--z expects codes in [0, {spec.q}), got {args.z}")
        z_points = [LaurentSeries.constant(spec, c, args.prec) for c in codes]
    return mzv_mod.mzv_eval_inf(spec, idx, args.prec, z_points)


def _verify(args, spec) -> dict:
    for flag in ("trials", "budget"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1")
    rng = random.Random(args.seed)
    if args.suite == "charsum":
        violations = []
        p = spec.p
        ran = 0
        for _ in range(args.trials):
            r = rng.randrange(0, 2 * (p - 1) * 4 + 1)
            lo = r // (p - 1) + 1
            dim = rng.randrange(lo, lo + 4)
            if p ** dim > args.budget:
                continue
            ran += 1
            cfg = oracle_mod.random_charsum_config(rng, p, dim, r, spec)
            if oracle_mod.charsum_trial(cfg):
                violations.append({"p": p, "dim": dim, "r": r})
        if not ran:
            raise ValueError(f"--budget {args.budget} admits none of the {args.trials} trials")
        return {"suite": "charsum", "seed": args.seed, "trials": args.trials,
                "violations": violations}
    if args.suite == "thresholds":
        reports = [oracle_mod.threshold_scan("powersum", spec=spec, d_max=4,
                                             n_max=3 * (spec.q - 1) * spec.q,
                                             budget=args.budget),
                   oracle_mod.threshold_scan("twisted", spec=spec, d_max=3, s_max=4,
                                             budget=args.budget),
                   oracle_mod.threshold_scan("char", spec=spec, P=APoly.theta(spec), delta=1,
                                             d_max=4, budget=args.budget)]
        if not reports[0]["rows"]:
            raise ValueError(f"--budget {args.budget} admits no power-sum cell")
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
    violations = []  # interp
    P = APoly.theta(spec)
    for k in range(0, 2):
        for n1 in range(-2, 3):
            gap = vadic_mod.interpolation_gap(spec, (n1,), P, k)
            bound = vadic_mod.interpolation_gap_bound(spec, (n1,), 1, k)
            if gap < bound:
                violations.append({"q": spec.q, "k": k, "n1": n1,
                                   "gap": gap, "bound": bound})
    return {"suite": "interp", "violations": violations}


def _failed(value) -> bool:
    """A verify report with a violation or a fast-path mismatch."""
    return isinstance(value, dict) and bool(value.get("violations") or any(
        r.get("fast_path_mismatches") for r in value.get("reports", ())))


_NEED_INT = {"type": int, "need": True}
_NEED = {"need": True}

# flags of every subcommand
_COMMON = {
    "--p": {"type": int, "default": 2, "help": "field characteristic"},
    "--e": {"type": int, "default": 1, "help": "extension degree"},
    "--modulus": {"help": "JSON list of F_p coefficients, ascending, monic"},
    "--field-json": {"help": "full FieldSpec JSON document"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--describe": {"action": "store_true",
                   "help": "print the subcommand's output schema and exit"},
}

# name -> (help, output schema, own flags, runner (args, spec) -> value); a
# flag marked "need" is required, and its absence names it in one error
COMMANDS = {
    "powersum": (
        "S_d(n) = sum of a^n over monic degree-d a",
        "{d:int, n:int} -> APoly {coeffs: [[F_p coords]]}",
        {"--d": _NEED_INT, "--n": _NEED_INT},
        lambda args, spec: zeta_mod.power_sum(spec, args.d, args.n)),
    "zeta-poly": (
        "exact zeta polynomial for n <= 0",
        "{n:int<=0, s:int} -> MPoly {vars:[t1..ts,z], terms:[{exp, coeff:APoly}]}",
        {"--n": _NEED_INT, "--s": {"type": int, "default": 0}},
        lambda args, spec: zeta_mod.exact_L(spec, args.n, args.s)),
    "pellarin": (
        "truncated series for n >= 1",
        "{n:int>=1, s:int, zdeg:int, prec:int} -> MPoly with Laurent coeffs {val,prec,coeffs}",
        {"--n": _NEED_INT, "--s": {"type": int, "default": 0},
         "--zdeg": {"type": int, "default": 6}, "--prec": {"type": int, "default": 40}},
        lambda args, spec: zeta_mod.pellarin_L_series(spec, args.n, args.s, args.zdeg,
                                                      args.prec)),
    "zeta-eval": (
        "evaluate at (x; y) with digits of -y",
        "{x: Laurent JSON, neg-y-digits, prec} -> Laurent {val,prec,coeffs}",
        {"--x": {"need": True, "help": "Laurent JSON document"},
         "--neg-y-digits": {"need": True, "help": "comma-separated base-p digits of -y"},
         "--prec": {"type": int, "default": 40}},
        _zeta_eval),
    "vadic": (
        "prime-to-P zeta polynomial for n <= 0",
        "{P: APoly JSON, n<=0, s} -> MPoly over A",
        {"--P": {"need": True, "help": "APoly JSON (or code list)"}, "--n": _NEED_INT,
         "--s": {"type": int, "default": 0}},
        lambda args, spec: vadic_mod.vadic_exact_L(spec, args.n, args.s,
                                                   _parse_apoly(spec, args.P))),
    "vadic-eval": (
        "v-adic series value in A/(P^k)",
        "{P, k, neg-y-digits, delta, zdeg} -> MPoly in z with A/(P^k) coeffs",
        {"--P": _NEED, "--k": _NEED_INT, "--neg-y-digits": _NEED,
         "--delta": {"type": int, "default": 0}, "--zdeg": {"type": int, "default": 6}},
        _vadic_eval),
    "mk": (
        "interpolation exponent m_k for a target n1",
        "{n1:int, k:int, P} -> {dP:int, k:int, mk:int, n1:int}",
        {"--n1": _NEED_INT, "--k": _NEED_INT, "--P": _NEED},
        _mk),
    "interp-gap": (
        "measured v_P interpolation gap",
        "{indices, P, k} -> {bound:int, gap:int|null, satisfied:bool}; "
        "a null gap means no chain valuation below kappa: an exact zero "
        "or a value past working precision",
        {"--indices": {"need": True, "help": "comma-separated integers n1[,n2,..]"},
         "--P": _NEED, "--k": _NEED_INT},
        _interp_gap),
    "mzv": (
        "multiple zeta polynomial or value",
        "{indices, mode, [P], [prec], [z]} -> MPoly or Laurent",
        {"--indices": {"need": True, "help": "comma-separated integers"},
         "--mode": {"choices": ("strict", "weak"), "default": "strict"},
         "--P": {"help": "restrict the first index prime to P"},
         "--prec": {"type": int, "help": "numeric precision for positive indices"},
         "--z": {"help": "comma-separated z-point codes (constants)"}},
        _mzv),
    "verify": (
        "run a verification suite",
        "{suite, seed, budget} -> report {violations: [...], ...}",
        {"suite": {"choices": ("charsum", "thresholds", "trivial-zeros", "euler", "interp")},
         "--seed": {"type": int, "default": 0},
         "--budget": {"type": int, "default": oracle_mod.ENUMERATION_BUDGET},
         "--trials": {"type": int, "default": 200}},
        _verify),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffzeta",
        description="Exact zeta objects over F_q[theta]")
    sub = parser.add_subparsers(dest="command", required=True)
    # values like "-3,-1" (index lists) must parse as values, not flags
    parser._negative_number_matcher = re.compile(r"^-\d[\d,.-]*$")
    for name, (help_text, _, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = parser._negative_number_matcher
        for flag, kwargs in {**_COMMON, **flags}.items():
            p.add_argument(flag, **{k: v for k, v in kwargs.items() if k != "need"})
    return parser


def _run(args) -> int:
    _, schema, flags, run = COMMANDS[args.command]
    if args.describe:
        print(json.dumps({"command": args.command, "schema": schema}))
        return EXIT_OK
    spec = _field_from_args(args)
    missing = [f for f, kwargs in flags.items() if kwargs.get("need")
               and getattr(args, f.lstrip("-").replace("-", "_")) is None]
    if missing:
        raise ValueError(f"missing required arguments: {', '.join(missing)}")
    value = run(args, spec)
    _emit(args, value)
    return EXIT_PRECISION if _failed(value) else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return _run(args)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
