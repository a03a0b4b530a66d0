"""Answer checks: each returns None when the op's answer is right, or a
one-line reason when it is not.

Bundled inputs and fixed conic lists compare byte-for-byte with goldens
captured from the CLI (capture_goldens.py).  Generated curves are checked
against their known answer with the independent arithmetic of
algebra.py: status and r, then the input composed with the reported
shift must equal the reported reparametrization.
"""

import json
from fractions import Fraction
from math import isqrt

from algebra import NumberField, evaluate, poly_mul

# Rational parameter values for identity checks by evaluation.  Two
# rational functions of degree <= D that agree at 2D + 1 points are
# equal; every check below needs at most 9 points.
POINTS = tuple(Fraction(p, q) for p, q in (
    (1, 2), (2, 1), (-3, 1), (5, 3), (-7, 4), (3, 1), (11, 5), (-1, 3),
    (4, 1), (-5, 2), (7, 1), (13, 6)))
MIN_POINTS = 9


def _report(out, want_code):
    if out["code"] != want_code:
        return None, f"exit code {out['code']}, expected {want_code}"
    try:
        return json.loads(out["stdout"]), None
    except ValueError:
        return None, "stdout is not one JSON report"


def check_golden(op, out, goldens):
    want = goldens.get(op["name"])
    if want is None:
        return f"no golden for {op['name']}"
    if out["code"] != want["code"]:
        return f"exit code {out['code']}, golden {want['code']}"
    if out["stdout"] != want["stdout"]:
        return "stdout differs from the golden"
    return None


def _field(op):
    return NumberField([Fraction(c) for c in op["field"]])


def _element_degree(K, x):
    """Degree over QQ of the field generated by x."""
    rows = []
    power = K.one
    for _ in range(K.n + 1):
        vec = list(power)
        for row, piv in rows:
            if vec[piv]:
                f = vec[piv] / row[piv]
                vec = [v - f * w for v, w in zip(vec, row)]
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            return len(rows)
        rows.append((vec, piv))
        power = K.mul(power, x)
    return len(rows)


def _agree(lhs, rhs):
    """Count the points where both sides are defined; None on mismatch."""
    agreed = 0
    for t0 in POINTS:
        try:
            left, right = lhs(t0), rhs(t0)
        except ZeroDivisionError:
            continue
        if left != right:
            return None
        agreed += 1
    return agreed


def check_reparam(op, out):
    """Known answer, gamma, affine shift, and phi(shift) = reported."""
    rep, err = _report(out, 0)
    if err:
        return err
    K = _field(op)
    r = op["r"]
    if rep.get("status") != "success" or rep.get("r") != r:
        return f"status {rep.get('status')}, r = {rep.get('r')}; want r = {r}"
    if rep.get("n") != K.n or rep.get("coefficient_field_degree") != r:
        return "n or coefficient_field_degree is wrong"
    a = K.gen()
    g = evaluate(K, rep["gamma_in_alpha"], {"a": a})
    if any(evaluate(K, rep["gamma_minpoly"], {"x": g})):
        return "gamma_in_alpha is not a root of gamma_minpoly"
    if _element_degree(K, g) != r:
        return "gamma does not generate a field of degree r"

    def shift(t0):
        return evaluate(K, rep["shift"], {"t": K.const(t0), "a": a})

    for t0 in POINTS[:4]:
        s0, s1, s2 = (shift(t0 + k) for k in range(3))
        if any(K.add(K.sub(s2, K.add(s1, s1)), s0)) or s1 == s0:
            return "shift is not affine with a nonzero slope"
    comps, reps = op["components"], rep["reparametrization"]
    if len(reps) != len(comps):
        return "reparametrization has the wrong number of components"
    names = {"g": g} if r > 1 else {}
    for comp, image in zip(comps, reps):
        agreed = _agree(
            lambda t0: evaluate(K, comp, {"t": shift(t0), "a": a}),
            lambda t0: evaluate(K, image, {"t": K.const(t0), **names}))
        if agreed is None:
            return "input at the shift differs from the reparametrization"
        if agreed < MIN_POINTS:
            return "too few points to compare the reparametrization"
    return None


def check_curve(op, out, siblings):
    """reparam by its known answer; witness and infinity must agree with
    the reparam op on the same curve and in the same pass."""
    command = op["argv"][0]
    if command == "reparam":
        return check_reparam(op, out)
    rep, err = _report(out, 0)
    if err:
        return err
    ref = siblings.get("reparam")
    ref = json.loads(ref["stdout"]) if ref and ref["code"] == 0 else None
    if rep.get("status") != "success" or ref is None:
        return "no successful reparam report to compare with"
    if command == "witness":
        if rep.get("dimension") != 1:
            return f"witness dimension {rep.get('dimension')}, want 1"
        same = ("witness_ideal", "delta")
    else:
        if rep.get("r") != op["r"]:
            return f"infinity r = {rep.get('r')}, want {op['r']}"
        same = ("witness_ideal", "infinity_points", "gamma_minpoly",
                "gamma_in_alpha")
    for key in same:
        if rep.get(key) != ref.get(key):
            return f"{key} differs from the reparam report"
    return None


def check_hypercircle(op, out):
    """u(t0) = sum_i psi_i(t0) a^i, and (x - a) * sum_k l_k x^k = M(x)."""
    rep, err = _report(out, 0)
    if err:
        return err
    K = _field(op)
    a = K.gen()
    psi = rep.get("components", [])
    if rep.get("status") != "success" or len(psi) != K.n:
        return "status or number of hypercircle components is wrong"

    def descended(t0):
        acc = K.zero
        power = K.one
        for f in psi:
            acc = K.add(acc, K.mul(evaluate(K, f, {"t": K.const(t0)}),
                                   power))
            power = K.mul(power, a)
        return acc

    agreed = _agree(
        lambda t0: evaluate(K, op["unit"], {"t": K.const(t0), "a": a}),
        descended)
    if agreed is None or agreed < MIN_POINTS:
        return "components do not add up to the unit"
    point = [evaluate(K, c, {"a": a}) for c in
             rep["primitive_infinity_point"]]
    if point[-1] != K.zero:
        return "primitive infinity point is not at infinity"
    prod = poly_mul(K, [K.neg(a), K.one], point[:-1])
    if prod != [K.const(c) for c in K.minpoly]:
        return "primitive infinity point is not M(x)/(x - a)"
    return None


def _is_prime(n):
    """Miller-Rabin, deterministic below 3.3e24 (the first 12 primes)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_rational_square(q):
    return (q >= 0 and isqrt(q.numerator) ** 2 == q.numerator
            and isqrt(q.denominator) ** 2 == q.denominator)


def check_conic(op, out):
    """Radicands, canonical classes, pairwise distinct fields, and the
    method's construction rule for every slope."""
    rep, err = _report(out, 0)
    if err:
        return err
    argv = op["argv"]
    a, b, c = (int(v) for v in argv[1:4])
    method, count = argv[5], int(argv[7])
    slopes = rep.get("set", [])
    if (rep.get("status") != "success" or rep.get("conic") != [a, b, c]
            or rep.get("method") != method or len(slopes) != count
            or len(rep.get("radicands", [])) != count
            or len(rep.get("canonical", [])) != count):
        return "status, conic, method or list lengths are wrong"
    vals = [a + b * n * n for n in slopes]
    for n, v, rad, can in zip(slopes, vals, rep["radicands"],
                              rep["canonical"]):
        if v == 0 or Fraction(rad) != Fraction(-c, v):
            return f"radicand of slope {n} is wrong"
        if not can or not _is_rational_square(Fraction(rad) / can):
            return f"canonical class of slope {n} is wrong"
    for i in range(count):
        for j in range(i + 1, count):
            if _is_rational_square(Fraction(vals[i], vals[j])):
                return f"slopes {slopes[i]} and {slopes[j]} share a field"
    if rep.get("distinct") is not True:
        return "report does not claim distinct fields"
    if method == "prime":
        for p in slopes:
            if p % 4 != 1 or not _is_prime(p) or (a * b) % p == 0:
                return f"slope {p} is not a prime 1 mod 4 prime to ab"
    else:
        moduli = []
        p = 5
        while len(moduli) < count:
            if _is_prime(p) and (a * b) % p and a + b * p * p:
                moduli.append(p)
            p += 4
        for n, p in zip(slopes, moduli):
            if n % p:
                return f"crt slope {n} is not divisible by {p}"
    return None


def check_pass(ops, outs, goldens):
    """Reasons keyed by op name, for every op of one pass that is wrong."""
    by_curve = {}
    for op, out in zip(ops, outs):
        if op.get("curve"):
            by_curve.setdefault(op["curve"], {})[op["argv"][0]] = out
    bad = {}
    for op, out in zip(ops, outs):
        if out["code"] == "exception":
            bad[op["name"]] = "raised: " + out["stderr"].strip()[-200:]
            continue
        kind = op["check"]
        if kind == "golden":
            why = check_golden(op, out, goldens)
        elif kind == "curve":
            why = check_curve(op, out, by_curve[op["curve"]])
        elif kind == "hypercircle":
            why = check_hypercircle(op, out)
        else:
            why = check_conic(op, out)
        if why:
            bad[op["name"]] = why
    return bad
