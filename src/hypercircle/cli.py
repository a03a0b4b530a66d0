"""Command line entry points.

Every command prints one JSON report to stdout and a short human summary
(with timings) to stderr; --json keeps stdout-only output for scripting.
The JSON stream is byte-stable across runs on identical inputs, which is
why timings never appear in it.

Exit codes: 0 success, 1 FAIL verdict or internal inconsistency (any
ArithmeticError a command lets escape counts as one), 2 bad input, 3
resource budget exhausted.

Each subcommand states its arguments once, as rows of data in
`_commands()`.  A well-formed command line is read from those rows
directly; anything else (help, an abbreviation, `--opt=value`, an
error) goes to an argparse parser built from the same rows, which is
the only place argparse is imported, so its usage, help, messages and
exit codes are the ones a user sees.
"""

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
from .quadfields import (ConicSpec, crt_slopes, parametrization_fields,
                         prime_slopes, verify_pairwise_distinct)
from .render import (render_field_element, render_fraction, render_mpoly,
                     render_point, render_rational, render_unipoly)
from .reparam import (coefficient_field_degree, optimal_affine_reparametrize,
                      require_proper)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_problem(path, cli_budget):
    if cli_budget is not None and cli_budget < 1:
        raise ValueError("budget must be positive")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    require_proper(phi)
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
    source = prime_slopes if args.method == "prime" else crt_slopes
    slopes, fields = [], []
    # each slope's field is built before the next slope is drawn, so a
    # list that the factoring cap stops at slope i costs i slopes and
    # fields, however long a list was asked for
    for n in source(conic.a, conic.b):
        fields += parametrization_fields(conic, [n])
        slopes.append(n)
        if len(slopes) == args.count:
            break
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


# Each argument of a subcommand as (name, kind, default, help): kind is
# str, int, bool for a flag, or the tuple of its choices.  The argparse
# parser and _read_argv both read these rows, so the grammar is stated
# once.
_JSON_FLAG = ("--json", bool, False, "suppress the stderr summary")
_FILE_ARGUMENTS = (
    ("file", str, None, "curve description file"),
    ("--budget", int, None, "S-pairs one Groebner basis may reduce"),
    _JSON_FLAG,
)
_HYPERCIRCLE_ARGUMENTS = (
    ("minpoly", str, None, "minimal polynomial in x"),
    ("unit", str, None, "(a*t+b)/(c*t+d) over the extension"),
    _JSON_FLAG,
)
_CONIC_FIELDS_ARGUMENTS = (
    ("a", int, None, None),
    ("b", int, None, None),
    ("c", int, None, None),
    ("--method", ("prime", "crt"), "prime", None),
    ("--count", int, 4, None),
    _JSON_FLAG,
)


def _commands():
    """(name, help, arguments, handler) of every subcommand, in help
    order; handlers are read when an argv is parsed."""
    return (
        ("reparam", "optimal affine reparametrization", _FILE_ARGUMENTS,
         _cmd_reparam),
        ("witness", "witness ideal of the curve", _FILE_ARGUMENTS,
         _cmd_witness),
        ("infinity", "points at infinity of the witness variety",
         _FILE_ARGUMENTS, _cmd_infinity),
        ("hypercircle", "hypercircle traced by a unit",
         _HYPERCIRCLE_ARGUMENTS, _cmd_hypercircle),
        ("conic-fields", "quadratic parametrization fields of "
                         "a*x^2 + b*y^2 + c", _CONIC_FIELDS_ARGUMENTS,
         _cmd_conic_fields),
    )


def _build_argparser(command=None):
    """The argument parser of `main`, with only the subparser of command
    when it names a subcommand, else with all of them.

    A parse that dispatches to one subcommand reads no other subparser,
    and building the other four would take most of a quick command's
    time.  The top-level usage, which an unrecognized argument prints,
    names every subcommand either way.
    """
    import argparse
    top = argparse.ArgumentParser(
        prog="hypercircle",
        description="Exact reparametrization of rational curves over "
                    "number fields, and quadratic conic fields.")
    commands = _commands()
    table = [row for row in commands if row[0] == command]
    metavar = "{" + ",".join(row[0] for row in commands) + "}"
    sub = top.add_subparsers(dest="command", required=True,
                             metavar=metavar if table else None)
    for name, help_text, arguments, handler in table or commands:
        p = sub.add_parser(name, help=help_text)
        for arg, kind, default, arg_help in arguments:
            if kind is bool:
                p.add_argument(arg, action="store_true", help=arg_help)
            else:
                p.add_argument(arg, default=default, help=arg_help,
                               type=int if kind is int else None,
                               choices=kind if kind not in (int, str)
                               else None)
        p.set_defaults(handler=handler)
    return top


class _Arguments:
    """The parsed arguments of one command, as argparse's Namespace
    holds them, without importing argparse."""

    def __init__(self, values):
        self.__dict__.update(values)


def _read_argv(argv):
    """The arguments the parser of `main` gives argv, when argv is well
    formed; else None, and argparse reads it.

    Well formed is a subcommand, then exactly its positionals and any of
    its options, each option named in full with its value as the next
    token.  Values are converted and checked as argparse does them, and
    a token that starts with "-" is a value only where argparse reads it
    as a negative number.  Help, "--opt=value", abbreviations, "--" and
    every error are left to argparse, which words them.
    """
    for command, _, arguments, handler in _commands():
        if argv and argv[0] == command:
            break
    else:
        return None
    values = {"command": command, "handler": handler}
    options = {}
    positionals = []
    for name, kind, default, _ in arguments:
        if name[0] == "-":
            dest = name.lstrip("-").replace("-", "_")
            options[name] = dest, kind
            values[dest] = default
        else:
            positionals.append((name, kind))
    positionals.reverse()
    tokens = argv[:0:-1]
    while tokens:
        token = tokens.pop()
        if token in options:
            dest, kind = options[token]
            if kind is bool:
                values[dest] = True
                continue
            if not tokens:
                return None
            token = tokens.pop()
        elif positionals:
            dest, kind = positionals.pop()
        else:
            return None
        if token[:1] == "-" and not token[1:].isdecimal():
            return None
        if kind is int:
            try:
                token = int(token)
            except ValueError:
                return None
        elif kind is not str and token not in kind:
            return None
        values[dest] = token
    if positionals:
        return None
    return _Arguments(values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _build_argparser(argv[0] if argv else None).parse_args(argv)
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
