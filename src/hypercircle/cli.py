"""Command line entry points.

Every command prints one JSON report to stdout and a short human summary
(with timings) to stderr; --json keeps stdout-only output for scripting.
The JSON stream is byte-stable across runs on identical inputs, which is
why timings never appear in it.

Exit codes: 0 success, 1 FAIL verdict or internal inconsistency (any
ArithmeticError a command lets escape counts as one), 2 bad input, 3
resource budget exhausted.
"""

import argparse
import json
import sys
import time

from .descent import witness_ideal
from .exprparse import (ExpressionError, build_problem, parse_component,
                        parse_curve_file, parse_polynomial)
from .fields import QQ, ReduciblePolynomialError, make_extension
from .groebner import DEFAULT_PAIR_BUDGET, PairBudgetExceededError, dimension
from .hypercircles import (InternalInconsistencyError, LinearFraction,
                           hypercircle_degree_field, points_at_infinity,
                           primitive_infinity_point, unit_to_hypercircle)
from .numtheory import SearchCapExceededError
from .quadfields import (ConicSpec, crt_set, parametrization_fields,
                         prime_set, verify_pairwise_distinct)
from .render import (render_field_element, render_fraction, render_mpoly,
                     render_point, render_rational, render_unipoly)
from .reparam import coefficient_field_degree, optimal_affine_reparametrize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_problem(path, cli_budget):
    if cli_budget is not None and cli_budget < 1:
        raise ValueError("budget must be positive")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read '{path}': {exc.strerror}") from exc
    curve = parse_curve_file(text)
    phi = build_problem(curve)
    budget = cli_budget or curve.budget or DEFAULT_PAIR_BUDGET
    return phi, budget


def _points_json(points):
    return [render_point(p) for p in points]


def _ideal_json(gens):
    return [render_mpoly(g) for g in gens]


def _parametrization_json(phi):
    return [render_rational(c, "t") for c in phi.components()]


def _cmd_reparam(args):
    phi, budget = _read_problem(args.file, args.budget)
    rep = optimal_affine_reparametrize(phi, budget)
    report = {
        "command": "reparam",
        "status": rep.status,
        "n": phi.field.degree,
        "minpoly": render_unipoly(phi.field.minpoly, "x"),
        "witness_ideal": _ideal_json(rep.witness),
        "infinity_points": _points_json(rep.infinity_points),
    }
    if rep.delta is not None:
        report["delta"] = render_mpoly(rep.delta)
    if rep.dimension is not None:
        report["dimension"] = rep.dimension
    if rep.status == "success":
        emb = rep.embedding
        report["r"] = rep.r
        report["gamma_minpoly"] = render_unipoly(emb.minpoly, "x")
        report["gamma_in_alpha"] = render_field_element(emb.gamma)
        report["shift"] = render_unipoly(rep.shift.as_unipoly(), "t")
        report["reparametrization"] = _parametrization_json(
            rep.reparametrized)
        report["coefficient_field_degree"] = coefficient_field_degree(
            rep.reparametrized)
        if rep.relative_minpoly is not None:
            report["relative_minpoly"] = render_unipoly(
                rep.relative_minpoly, "x")
        if rep.second_witness is not None:
            report["second_witness"] = _ideal_json(rep.second_witness)
        summary = (f"success: r = {rep.r}, "
                   f"shift = {report['shift']}")
        code = EXIT_OK
    else:
        report["fail_reason"] = rep.fail_reason
        summary = f"FAIL: {rep.fail_reason}"
        code = EXIT_FAIL
    return report, summary, code


def _cmd_witness(args):
    phi, budget = _read_problem(args.file, args.budget)
    tower = phi.field
    gens, delta = witness_ideal(phi, budget)
    dim = tower.degree if not gens else dimension(gens, budget)
    report = {
        "command": "witness",
        "status": "success",
        "n": tower.degree,
        "minpoly": render_unipoly(tower.minpoly, "x"),
        "witness_ideal": _ideal_json(gens),
        "delta": render_mpoly(delta),
        "dimension": dim,
    }
    summary = (f"witness ideal: {len(gens)} generators, "
               f"dimension {dim}")
    return report, summary, EXIT_OK


def _cmd_infinity(args):
    phi, budget = _read_problem(args.file, args.budget)
    tower = phi.field
    gens, delta = witness_ideal(phi, budget)
    report = {
        "command": "infinity",
        "status": "success",
        "n": tower.degree,
        "minpoly": render_unipoly(tower.minpoly, "x"),
        "witness_ideal": _ideal_json(gens),
        "delta": render_mpoly(delta),
    }
    if not gens:
        report["infinity_points"] = []
        report["note"] = "witness ideal is zero; already over the base"
        return report, "witness ideal is zero", EXIT_OK
    points = points_at_infinity(gens, tower, budget)
    report["infinity_points"] = _points_json(points)
    if points:
        emb = hypercircle_degree_field(points)
        report["r"] = emb.r
        report["gamma_minpoly"] = render_unipoly(emb.minpoly, "x")
        report["gamma_in_alpha"] = render_field_element(emb.gamma)
        summary = f"{len(points)} points at infinity, r = {emb.r}"
    else:
        summary = "no points at infinity"
    return report, summary, EXIT_OK


def _linear_fraction_from(rf, tower):
    num, den = rf.num, rf.den
    if num.degree() > 1 or den.degree() > 1:
        raise ValueError("unit must be (a*t + b)/(c*t + d)")
    return LinearFraction(tower, num[1], num[0], den[1], den[0])


def _cmd_hypercircle(args):
    minpoly = parse_polynomial(args.minpoly, "x")
    tower = make_extension(QQ, minpoly, "a")
    unit = _linear_fraction_from(parse_component(args.unit, tower), tower)
    psi = unit_to_hypercircle(unit)
    point = primitive_infinity_point(tower)
    report = {
        "command": "hypercircle",
        "status": "success",
        "n": tower.degree,
        "minpoly": render_unipoly(minpoly, "x"),
        "components": [render_rational(c, "t") for c in psi],
        "primitive_infinity_point": render_point(point),
    }
    summary = f"hypercircle with {len(psi)} coordinate functions"
    return report, summary, EXIT_OK


def _cmd_conic_fields(args):
    conic = ConicSpec(args.a, args.b, args.c)
    if args.count < 1:
        raise ValueError("count must be positive")
    if args.method == "prime":
        slopes = prime_set(conic.a, conic.b, args.count)
    else:
        slopes = crt_set(conic.a, conic.b, args.count)
    fields = parametrization_fields(conic, slopes)
    distinct = verify_pairwise_distinct(conic.a, conic.b, slopes)
    report = {
        "command": "conic-fields",
        "status": "success",
        "conic": [conic.a, conic.b, conic.c],
        "method": args.method,
        "set": slopes,
        "radicands": [render_fraction(f.radicand) for f in fields],
        "canonical": [f.canonical for f in fields],
        "distinct": distinct,
    }
    summary = (f"{len(slopes)} slopes via {args.method}: "
               f"{', '.join(str(s) for s in slopes)}")
    return report, summary, EXIT_OK


def _build_argparser():
    top = argparse.ArgumentParser(
        prog="hypercircle",
        description="Exact reparametrization of rational curves over "
                    "number fields, and quadratic conic fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="suppress the stderr summary")

    def with_file(p):
        p.add_argument("file", help="curve description file")
        p.add_argument("--budget", type=int, default=None,
                       help="S-pairs one Groebner basis may reduce")
        common(p)

    p = sub.add_parser("reparam",
                       help="optimal affine reparametrization")
    with_file(p)
    p.set_defaults(handler=_cmd_reparam)

    p = sub.add_parser("witness", help="witness ideal of the curve")
    with_file(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("infinity",
                       help="points at infinity of the witness variety")
    with_file(p)
    p.set_defaults(handler=_cmd_infinity)

    p = sub.add_parser("hypercircle",
                       help="hypercircle traced by a unit")
    p.add_argument("minpoly", help="minimal polynomial in x")
    p.add_argument("unit", help="(a*t+b)/(c*t+d) over the extension")
    common(p)
    p.set_defaults(handler=_cmd_hypercircle)

    p = sub.add_parser("conic-fields",
                       help="quadratic parametrization fields of "
                            "a*x^2 + b*y^2 + c")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--method", choices=("prime", "crt"), default="prime")
    p.add_argument("--count", type=int, default=4)
    common(p)
    p.set_defaults(handler=_cmd_conic_fields)
    return top


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    start = time.monotonic()
    try:
        report, summary, code = args.handler(args)
    except (ExpressionError, ReduciblePolynomialError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PairBudgetExceededError, SearchCapExceededError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalInconsistencyError, ArithmeticError) as exc:
        # input errors, division by zero included, are ExpressionError
        # or ValueError above; an arithmetic failure past the parser is
        # the program's own
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_FAIL
    elapsed = time.monotonic() - start
    print(json.dumps(report, sort_keys=True, indent=2))
    if not args.json:
        print(f"{summary}  [{elapsed:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
