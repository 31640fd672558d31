"""Seeded, stratified job lists for the four benchmark workloads.

Each workload is a fixed list of job templates: the kind of call, the
field size q and a size class.  The seed only fills in the concrete
values inside each class: it arranges a fixed multiset of base-q digits
into an exponent, picks a constant term for an evaluation point, or
picks a prime of a fixed degree.  Work per job therefore depends on the
class, not the seed, and the total work of a list hardly moves between
seeds.  Jobs are plain JSON-able dicts; this module does not import the
library under test.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("exact-grid", "infty-eval", "vadic-interp", "cli-warm")

# Monic irreducible polynomials of degree 1 and 2, as ascending code
# tuples in the library's default coding of F_q (checked by the tests).
IRREDUCIBLE = {
    2: {1: [(0, 1), (1, 1)], 2: [(1, 1, 1)]},
    3: {1: [(0, 1), (1, 1), (2, 1)], 2: [(1, 0, 1), (2, 1, 1), (2, 2, 1)]},
    4: {1: [(c, 1) for c in range(4)],
        2: [(1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 3, 1)]},
    5: {1: [(c, 1) for c in range(5)],
        2: [(1, 1, 1), (1, 4, 1), (2, 0, 1), (2, 1, 1), (2, 4, 1),
            (3, 0, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1), (4, 3, 1)]},
    9: {1: [(c, 1) for c in range(9)],
        2: [(1, 4, 1), (1, 5, 1), (1, 7, 1), (1, 8, 1), (2, 4, 1), (2, 5, 1)]},
}

CHAR = {2: 2, 3: 3, 4: 2, 5: 5, 9: 3}


def digit_sum(n: int, q: int) -> int:
    s = 0
    while n:
        s += n % q
        n //= q
    return s


def arrange(rng: random.Random, digits, base: int) -> int:
    """An integer whose base-`base` digits are `digits`: the largest on
    top, so digit count and leading digit are fixed, the rest shuffled."""
    rest = sorted(digits)
    top = rest.pop()
    rng.shuffle(rest)
    return sum(d * base ** i for i, d in enumerate(rest + [top]))


def exponent_digits(rng: random.Random, p: int, count: int):
    """`count` base-p digits from the fixed multiset (1, 2, .., p-1, 0, 1, ..)."""
    digs = [(i % p) for i in range(1, count + 1)]
    rng.shuffle(digs)
    return digs


def digits_for(p: int, prec: int) -> int:
    m = 1
    while p ** m < prec:
        m += 1
    return m


def _prime(rng, q, deg):
    return list(rng.choice(IRREDUCIBLE[q][deg]))


# ---------------------------------------------------------------------------
# exact-grid: the A-side polynomial route with a cold disk cache

EXACT_DIGITS = {
    # q: (small, medium, large) classes as base-q digit multisets; the
    # large class only feeds power sums, the degree recursion's own load
    2: ((1, 1, 0, 1, 1), (1, 1, 1, 1, 0, 1, 1), (1, 1, 1, 1, 1, 0, 1, 1, 1)),
    3: ((2, 1, 1), (2, 1, 0, 2, 1), (2, 1, 2, 0, 2, 1)),
    4: ((3, 2, 1), (3, 1, 2, 0, 1), (3, 2, 3, 1, 2)),
    5: ((4, 2, 1), (4, 2, 1, 3), (4, 3, 2, 4)),
    9: ((8, 3), (8, 3, 5), (8, 5, 7)),
}


def _exact_grid(rng):
    jobs = []
    for q, (small, medium, large) in EXACT_DIGITS.items():
        n = arrange(rng, large, q)
        top = digit_sum(n, q) // (q - 1)
        for d in (top - 1, top):
            jobs.append({"kind": "power_sum", "q": q, "d": d, "n": n, "cls": "large"})
        for cls, digs in (("small", small), ("medium", medium)):
            n = arrange(rng, digs, q)
            top = digit_sum(n, q) // (q - 1)
            for d in sorted({1, max(top - 1, 1), max(top, 1), top + 1}):
                jobs.append({"kind": "power_sum", "q": q, "d": d, "n": n, "cls": cls})
            for s in (0, 1, 2):
                jobs.append({"kind": "exact_L", "q": q, "n": -arrange(rng, digs, q),
                             "s": s, "cls": cls})
        vadic_digs = small if q == 9 else medium
        jobs.append({"kind": "vadic_exact_L", "q": q, "n": -arrange(rng, small, q), "s": 0,
                     "P": _prime(rng, q, 1), "cls": "small"})
        jobs.append({"kind": "vadic_exact_L", "q": q, "n": -arrange(rng, small, q), "s": 0,
                     "P": _prime(rng, q, 2), "cls": "small"})
        jobs.append({"kind": "vadic_exact_L", "q": q, "n": -arrange(rng, small, q), "s": 1,
                     "P": _prime(rng, q, 1), "cls": "small"})
        jobs.append({"kind": "vadic_exact_L", "q": q, "n": -arrange(rng, vadic_digs, q),
                     "s": 0, "P": _prime(rng, q, 1), "cls": "medium"})
        jobs.append({"kind": "mzv_exact", "q": q, "mode": "strict",
                     "ns": [-arrange(rng, medium, q), -arrange(rng, small, q)]})
        jobs.append({"kind": "mzv_exact", "q": q, "mode": "weak",
                     "ns": [-arrange(rng, small, q), -arrange(rng, small, q)]})
        jobs.append({"kind": "mzv_vadic_exact", "q": q, "mode": "strict",
                     "ns": [-arrange(rng, small, q), -arrange(rng, small, q)],
                     "P": _prime(rng, q, 1)})
    return jobs


# ---------------------------------------------------------------------------
# infty-eval: series arithmetic at the infinite place

GOSS_PRECS = (20, 20, 20, 40, 40, 40, 80, 80)
PELLARIN = {
    # q: (n, s, zdeg, prec) per template
    2: ((1, 0, 4, 20), (2, 0, 4, 30), (2, 1, 4, 30), (3, 1, 3, 30)),
    3: ((1, 0, 3, 20), (2, 0, 3, 30), (2, 1, 3, 30), (3, 1, 3, 30)),
    4: ((1, 0, 3, 20), (2, 0, 2, 30), (2, 1, 2, 20), (3, 1, 2, 30)),
    5: ((1, 0, 2, 20), (2, 0, 2, 20), (2, 1, 2, 20), (3, 1, 2, 20)),
}
MZV_INF = (((1,), 40), ((2,), 60), ((2, 1), 30))  # (indices, prec)
# finite-factor classes: (Frobenius twist on?, hyperderivative order per
# factor).  All factors of a job share one Frobenius order: with mixed
# orders twisted_L_eval drops shells that do not vanish (the xfail test in
# tests/test_perfbench.py), and the exact-route check would fail every run.
TWISTED_FINITE = ((False, (0,)), (True, (1,)), (False, (0, 1)), (True, (1, 0)))
# two infinite factors: precision per q keeps the certified shell count small
TWO_INF_PREC = {2: 6, 3: 6, 4: 10, 5: 10}


def _infty_eval(rng):
    jobs = []
    for q in (2, 3, 4, 5):
        p = CHAR[q]
        e = 2 if q == 4 else 1
        for prec in GOSS_PRECS:
            jobs.append({"kind": "goss", "q": q, "prec": prec, "x0": rng.randrange(q),
                         "digits": exponent_digits(rng, p, digits_for(p, prec))})
        for twisted, hypers in TWISTED_FINITE:
            frob = rng.randrange(e) if twisted else 0
            jobs.append({"kind": "twisted_finite", "q": q, "prec": 30, "x0": rng.randrange(q),
                         "frob": frob, "hypers": list(hypers)})
        for prec in (20, 20, 40, 40):
            jobs.append({"kind": "twisted_inf", "q": q, "prec": prec, "x0": rng.randrange(q),
                         "frob": rng.randrange(e),
                         "zexps": [exponent_digits(rng, p, digits_for(p, prec))]})
        prec = TWO_INF_PREC[q]
        for _ in range(2):
            m = digits_for(p, prec)
            jobs.append({"kind": "twisted_inf", "q": q, "prec": prec, "x0": rng.randrange(q),
                         "frob": rng.randrange(e),
                         "zexps": [exponent_digits(rng, p, m), exponent_digits(rng, p, m)]})
        for n, s, zdeg, prec in PELLARIN[q]:
            jobs.append({"kind": "pellarin", "q": q, "n": n, "s": s, "zdeg": zdeg, "prec": prec})
        for ns, prec in MZV_INF:
            jobs.append({"kind": "mzv_eval_inf", "q": q, "ns": list(ns),
                         "mode": rng.choice(("strict", "weak")), "prec": prec})
    return jobs


# ---------------------------------------------------------------------------
# vadic-interp: quotient-ring arithmetic at finite places

# (q, deg P, k) cells in the style of the interpolation-gap criterion
GAP_CELLS = (
    (2, 1, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 0), (2, 2, 1), (2, 2, 2),
    (3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 2, 0), (3, 2, 1),
    (4, 1, 0), (5, 1, 0),
)
# exponent vectors per cell (the seed picks the prime: the cost of a cell
# moves with the exponents far more than with P)
GAP_INDICES = ((2,), (-3,), (2, -1), (-2, 1), (1, 2))
VADIC_EVAL = (  # (q, deg P, k)
    (2, 1, 2), (2, 1, 4), (2, 1, 6), (2, 2, 2), (2, 2, 4), (2, 2, 6),
    (3, 1, 2), (3, 1, 4), (3, 1, 6), (3, 2, 2), (3, 2, 4),
    (4, 1, 2), (4, 1, 4), (4, 2, 2), (5, 1, 2), (5, 1, 4),
)


def _vadic_interp(rng):
    jobs = []
    for q, dP, k in GAP_CELLS:
        for ns in GAP_INDICES:
            jobs.append({"kind": "interpolation_gap", "q": q, "P": _prime(rng, q, dP),
                         "k": k, "ns": list(ns)})
    for q, dP, k in VADIC_EVAL:
        for _ in range(2):
            jobs.append({"kind": "vadic_zeta_eval", "q": q, "P": _prime(rng, q, dP), "k": k,
                         "n": arrange(rng, (q - 1, 1, 0), q)})
    return jobs


# ---------------------------------------------------------------------------
# cli-warm: one `ffzeta` process per job on a cache filled at set-up


def _field_args(q):
    return ["--p", str(CHAR[q])] + (["--e", "2"] if q in (4, 9) else [])


def _cli_warm(rng):
    jobs = []

    def add(q, argv):
        jobs.append({"kind": "cli", "q": q, "argv": argv[:1] + _field_args(q) + argv[1:]})

    for q, digs, ds in ((2, (1, 1, 1, 0, 1, 1), (2, 3, 4)), (3, (2, 1, 2, 2, 1), (2, 3)),
                        (3, (2, 2, 2, 2, 1, 2), (3, 4)), (4, (3, 2, 1, 3), (2, 3)),
                        (5, (4, 3, 2), (1, 2))):
        for d in ds:
            for _ in range(2):
                add(q, ["powersum", "--d", str(d), "--n", str(arrange(rng, digs, q))])
    for q, digs in ((2, (1, 1, 0, 1, 1)), (3, (2, 1, 0, 2)), (4, (3, 2, 1)), (5, (4, 2, 1))):
        for s in (0, 0, 1):
            add(q, ["zeta-poly", "--n", str(-arrange(rng, digs, q)), "--s", str(s)])
    for q in (2, 3, 4, 5):
        for n, s in ((rng.choice((1, 2)), 0), (rng.choice((2, 3)), 1)):
            add(q, ["pellarin", "--n", str(n), "--s", str(s), "--zdeg", "2", "--prec", "20"])
    for q in (2, 3, 4, 5):
        p = CHAR[q]
        for prec in (20, 40, 40):
            digs = exponent_digits(rng, p, digits_for(p, prec))
            x = {"val": -1, "prec": prec + 8,
                 "coeffs": [_coords(q, 1), _coords(q, rng.randrange(q))]}
            add(q, ["zeta-eval", "--x", _json(x), "--neg-y-digits", ",".join(map(str, digs)),
                    "--prec", str(prec)])
    for q, digs in ((2, (1, 1, 0, 1)), (3, (2, 1, 1)), (4, (3, 2)), (5, (4, 2))):
        for dP in (1, 2):
            add(q, ["vadic", "--P", _json(_prime(rng, q, dP)), "--n",
                    str(-arrange(rng, digs, q))])
    for q in (2, 3, 4, 5):
        for dP, k in ((1, 3), (2, 2)):
            n = rng.randrange(2, 9)
            order = q ** dP - 1
            p = CHAR[q]
            digits = _int_digits(n, p, digits_for(p, 16))  # exact for n < 16, and p^M >= k
            add(q, ["vadic-eval", "--P", _json(_prime(rng, q, dP)), "--k", str(k),
                    "--neg-y-digits", ",".join(map(str, digits)),
                    "--delta", str(n % order if order > 1 else 0), "--zdeg", "3"])
    for q in (2, 3, 4, 5):
        for k in (1, 2):
            add(q, ["mk", "--n1", str(-rng.randrange(1, 40)), "--k", str(k), "--P",
                    _json(_prime(rng, q, 1))])
    for (q, k), ns in zip(((2, 1), (2, 2), (3, 0), (3, 1), (2, 1), (3, 1), (4, 0), (5, 0)),
                          GAP_INDICES + GAP_INDICES):
        add(q, ["interp-gap", "--indices", ",".join(map(str, ns)), "--P",
                _json(_prime(rng, q, 1)), "--k", str(k)])
    for q, digs in ((2, (1, 1, 0, 1)), (3, (2, 1, 1)), (4, (3, 2))):
        add(q, ["mzv", "--indices", f"{-arrange(rng, digs, q)},{-arrange(rng, digs, q)}",
                "--mode", rng.choice(("strict", "weak"))])
        add(q, ["mzv", "--indices", f"{-arrange(rng, digs, q)},{-arrange(rng, digs, q)}",
                "--P", _json(_prime(rng, q, 1))])
        add(q, ["mzv", "--indices", f"{rng.choice((1, 2))}", "--prec", "30"])
    for q in (2, 3, 2, 3, 5, 5):
        add(q, ["verify", "charsum", "--seed", str(rng.randrange(10 ** 6)), "--trials", "12",
                "--budget", "20000"])
    return jobs


def _coords(q, code):
    p = CHAR[q]
    e = 2 if q in (4, 9) else 1
    return [(code // p ** i) % p for i in range(e)]


def _int_digits(n, p, count):
    return [(n // p ** i) % p for i in range(count)]


def _json(value):
    return json.dumps(value, separators=(",", ":"))


_BUILDERS = {"exact-grid": _exact_grid, "infty-eval": _infty_eval,
             "vadic-interp": _vadic_interp, "cli-warm": _cli_warm}


def generate(workload: str, seed: int):
    """The job list of `workload` for `seed`; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    prefix = "".join(w[0] for w in workload.split("-"))
    for i, job in enumerate(jobs):
        job["id"] = f"{prefix}-{i:03d}"
    return jobs
