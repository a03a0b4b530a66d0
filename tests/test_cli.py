"""Exit codes, JSON stability, and stream discipline of the CLI."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import input_path, mp_vars, repo_root

from hypercircle import cli
from hypercircle.cli import main
from hypercircle.fields import QQ
from hypercircle.groebner import rational_solutions


def _goldens():
    path = repo_root() / "hcbench" / "goldens.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reparam_quartic_succeeds(capsys):
    code, out, err = run_cli(capsys, "reparam",
                             str(input_path("quartic.curve")), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "success"
    assert report["r"] == 2
    assert report["coefficient_field_degree"] == 2
    assert err == ""


def test_reparam_twist_fails_with_exit_1(capsys):
    code, out, err = run_cli(capsys, "reparam",
                             str(input_path("gaussian_twist.curve")),
                             "--json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["dimension"] == 0
    assert "no points at infinity" in report["fail_reason"]


def test_missing_file_is_input_error(capsys):
    code, out, err = run_cli(capsys, "reparam", "no_such_file.curve")
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_bad_expression_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("minpoly = x^2 +\nx1 = t\n")
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("text,where", [
    ("minpoly = x^2 + 1\nx1 = t^-1\n",
     "x1 (line 2): expected an integer exponent at column 3"),
    ("# a comment\nminpoly = x^2 +\nx1 = t\n",
     "minpoly (line 2): unexpected end of expression at column 6"),
    ("minpoly = x^2 + 1\n\nx1 = t\nx2 = t + y\n",
     "x2 (line 4): unknown variable 'y' at column 5"),
])
def test_expression_error_names_entry_and_file_line(capsys, tmp_path, text,
                                                    where):
    bad = tmp_path / "bad.curve"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"input error: {where}\n"


def test_power_cap_on_the_generator_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("minpoly = x^2 + 1\nx1 = t + a^65\n")
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert code == 2
    assert out == ""
    assert err == ("input error: x1 (line 2): power of degree above 64 "
                   "at column 7\n")


@pytest.mark.parametrize("component,column", [
    ("t + (((2^64)^64)^64)^64", 18),
    ("t + (((a + 1)^64)^64)^16", 23),
])
def test_nested_constant_powers_are_input_errors(capsys, tmp_path,
                                                 component, column):
    # the degree cap counts a constant base as degree one; the bit cap
    # stops these before they build a 2^18-bit integer or 83,000-bit
    # coordinates over QQ(sqrt 2)
    bad = tmp_path / "bad.curve"
    bad.write_text(f"minpoly = x^2 - 2\nx1 = {component}\n")
    start = time.monotonic()
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert err == ("input error: x1 (line 2): constant power above 16384 "
                   f"bits at column {column}\n")


def test_reducible_minpoly_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("minpoly = x^2 - 1\nx1 = (t - a)^2\n")
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert code == 2
    assert "input error" in err


def test_constant_parametrization_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("minpoly = x^2 + 1\nx1 = a\nx2 = 3\n")
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert code == 2
    assert out == ""
    assert "input error" in err


IMPROPER_CURVES = [
    ("x^3 - 2", "(t - a)^2", "(t - a)^4 + 1"),
    ("x^2 - 2", "(t - a)^2 + a", "((t - a)^2 + a)^3 + 1"),
    ("x^4 - 2", "(t - a)^2", "(t - a)^6 + (t - a)^2"),
]


def _improper_curve(tmp_path, minpoly, x1, x2):
    path = tmp_path / "improper.curve"
    path.write_text(f"minpoly = {minpoly}\nx1 = {x1}\nx2 = {x2}\n")
    return str(path)


@pytest.mark.parametrize("minpoly, x1, x2", IMPROPER_CURVES)
def test_improper_parametrization_is_input_error(capsys, tmp_path, minpoly,
                                                 x1, x2):
    # each is a function of (t - a)^2; reparam answered r = 3 on the
    # first, exited 1 on the second and ran past 30 s on the third
    start = time.monotonic()
    code, out, err = run_cli(capsys, "reparam",
                             _improper_curve(tmp_path, minpoly, x1, x2),
                             "--json")
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "input error: parametrization is not proper\n"


@pytest.mark.parametrize("minpoly, x1, x2", IMPROPER_CURVES)
def test_infinity_of_an_improper_parametrization_answers(capsys, tmp_path,
                                                         minpoly, x1, x2):
    # the witness variety and its points at infinity are defined for any
    # parametrization; on the third curve the infinity points took a
    # restriction-of-scalars solve past 30 s
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "infinity",
                           _improper_curve(tmp_path, minpoly, x1, x2),
                           "--json")
    assert time.monotonic() - start < 2.0
    assert code == 0
    assert json.loads(out)["status"] == "success"


def test_budget_exhaustion_is_exit_3(capsys):
    code, out, err = run_cli(capsys, "reparam",
                             str(input_path("quartic.curve")),
                             "--budget", "1")
    assert code == 3
    assert "budget exhausted" in err


@pytest.mark.parametrize("command", ["witness", "infinity"])
def test_witness_budget_exhaustion_is_exit_3(capsys, command):
    # the witness ideal is the first Groebner basis both commands compute
    code, out, err = run_cli(capsys, command,
                             str(input_path("quartic.curve")),
                             "--budget", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("budget exhausted: S-pair budget of 1 exceeded")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_nonpositive_budget_is_input_error(capsys, budget):
    code, out, err = run_cli(capsys, "reparam",
                             str(input_path("quartic.curve")),
                             "--budget", budget)
    assert code == 2
    assert out == ""
    assert "budget must be positive" in err


def test_primality_beyond_the_exact_bound_is_exit_3():
    # conic-fields factors its coefficients: N = 10^30 + 57 is a strong
    # probable prime whose primality no exact test here decides in
    # bounded time
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "conic-fields", "1", "1",
         "-1000000000000000000000000000057"],
        capture_output=True, text=True, timeout=1)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exhausted: ")
    assert "strong probable prime is beyond the exact Miller-Rabin bound" \
        in proc.stderr


def test_pollard_rho_cap_is_exit_3():
    # N = (10^20 + 39) * (10^20 + 129): neither rho nor ECM splits it
    # within the modular multiplications one factorize call may spend
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "conic-fields", "1", "1",
         "-10000000000000000016800000000000000005031"],
        capture_output=True, text=True, timeout=5)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget exhausted: Pollard rho")


def _conic_fields_crt(count):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "conic-fields", "1", "1", "-6",
         "--method", "crt", "--count", str(count)],
        capture_output=True, text=True, timeout=60)
    return proc, time.monotonic() - start


def test_a_long_crt_list_stops_where_the_factoring_cap_does():
    # the 11th slope's field is past the factoring cap; a longer list is
    # drawn slope by slope, so it stops there as soon
    short, _ = _conic_fields_crt(11)
    long, elapsed = _conic_fields_crt(100000)
    assert short.returncode == long.returncode == 3
    assert long.stderr == short.stderr
    assert long.stderr.startswith("budget exhausted: ")
    assert elapsed < 5


@pytest.mark.parametrize("n", [
    "1000000000000000000000000000057",
    "10000000000000000016800000000000000005031",
])
def test_a_rational_root_is_found_without_factoring_integers(n):
    # (x - 1)(x^2 - N) with N a large probable prime or a product of
    # two 20-digit primes: the lifted linear factors modulo a prime
    # find the root 1, and no integer is factored
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "hypercircle",
         f"x^3 - x^2 - {n}*x + {n}", "t"],
        capture_output=True, text=True, timeout=1)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("input error: reducible minimal polynomial, "
                           "witness factor x - 1\n")


def test_the_witness_factor_is_rendered(capsys, tmp_path):
    code, out, err = run_cli(capsys, "hypercircle", "x^4 - 4", "t")
    assert (code, out) == (2, "")
    assert err == ("input error: reducible minimal polynomial, witness "
                   "factor x^2 - 2\n")
    curve = tmp_path / "reducible.curve"
    curve.write_text("minpoly = x^2 - 4\nx1 = t\n")
    code, out, err = run_cli(capsys, "reparam", str(curve))
    assert (code, out) == (2, "")
    assert err == ("input error: reducible minimal polynomial, witness "
                   "factor x + 2\n")


def test_witness_of_a_high_power_is_bounded(tmp_path):
    # saturating by the norm t^36 of (1/t + 1/t)^12 over QQ(2^(1/3))
    # ran for minutes; the elimination needs a fraction of a second
    curve = tmp_path / "power.curve"
    curve.write_text("minpoly = x^3 - 2\nx1 = (1/t + 1/t)^12\n")
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "witness", str(curve),
         "--json"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dimension"] == 1
    assert len(report["witness_ideal"]) == 10


@pytest.mark.parametrize("minpoly, unit", [
    ("x^2 - 1000000000000000000000000000057", "t"),
    ("x^2 - 30000000000018200000000002759", "t"),
    ("x^10 + x + 1", "(t + a)/(a*t + 1)"),
])
def test_certified_irreducible_minpoly_answers(minpoly, unit):
    # the degree patterns modulo a few primes prove these irreducible,
    # so neither factoring nor a Groebner split search runs
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "hypercircle", minpoly, unit,
         "--json"],
        capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["status"] == "success"


def _raise_positive_dimensional(args):
    x, y = mp_vars(QQ, 2)
    rational_solutions([x - y], 2)


def _raiser(exc):
    def handler(args):
        raise exc
    return handler


@pytest.mark.parametrize("handler, message", [
    (_raise_positive_dimensional, "not zero-dimensional"),
    (_raiser(ArithmeticError("primitive element search exceeded its cap")),
     "exceeded its cap"),
    (_raiser(ArithmeticError("vanishing norm of a nonzero denominator")),
     "vanishing norm"),
    (_raiser(ZeroDivisionError("inverse of zero field element")),
     "inverse of zero"),
])
def test_escaping_arithmetic_error_is_internal_inconsistency(
        capsys, monkeypatch, handler, message):
    monkeypatch.setattr(cli, "_cmd_witness", handler)
    code, out, err = run_cli(capsys, "witness",
                             str(input_path("quartic.curve")))
    assert code == 1
    assert out == ""
    assert err.startswith("internal inconsistency: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("component", ["1/(t - t)", "t/(a^2 + 1)"])
def test_division_by_zero_in_input_is_input_error(capsys, tmp_path,
                                                  component):
    bad = tmp_path / "bad.curve"
    bad.write_text(f"minpoly = x^2 + 1\nx1 = {component}\nx2 = t\n")
    code, out, err = run_cli(capsys, "reparam", str(bad))
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_conic_fields_zero_coefficient_is_input_error(capsys):
    code, out, err = run_cli(capsys, "conic-fields", "1", "1", "0")
    assert code == 2
    assert "input error" in err


def test_conic_fields_prime_method(capsys):
    code, out, err = run_cli(capsys, "conic-fields", "1", "1", "-6",
                             "--count", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["set"] == [5, 41, 701, 266381]
    assert report["radicands"] == ["3/13", "3/841", "3/245701",
                                   "3/35479418581"]
    assert report["distinct"] is True


def test_conic_fields_crt_method(capsys):
    code, out, err = run_cli(capsys, "conic-fields", "1", "1", "-6",
                             "--method", "crt", "--count", "6", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["set"] == [5, 26, 391, 4031, 175306, 9276086]
    assert report["canonical"] == [39, 4062, 229323, 24373443,
                                   184393161822, 516274628876382]


def test_conic_fields_square_prime_factor_in_c(capsys):
    # c = -6 p^2 with p = 10^12 + 39 prime: the squarefree cores need p^2
    # split off a cofactor, where rho alone runs out of evaluations
    p = 10**12 + 39
    assert -6 * p**2 == -6000000000468000000009126
    code, out, err = run_cli(capsys, "conic-fields", "--count", "2",
                             "--json", "1", "1", "-6000000000468000000009126")
    assert code == 0
    report = json.loads(out)
    code, out, err = run_cli(capsys, "conic-fields", "--count", "2",
                             "--json", "1", "1", "-6")
    assert code == 0
    base = json.loads(out)
    assert report["canonical"] == base["canonical"]
    assert ([Fraction(r) for r in report["radicands"]]
            == [Fraction(r) * p**2 for r in base["radicands"]])


def test_hypercircle_command(capsys):
    code, out, err = run_cli(capsys, "hypercircle", "x^2 + 1", "1/(t + a)",
                             "--json")
    assert code == 0
    report = json.loads(out)
    assert report["components"] == ["(t)/(t^2 + 1)", "(-1)/(t^2 + 1)"]
    assert report["primitive_infinity_point"] == ["a", "1", "0"]


def test_witness_command(capsys):
    code, out, err = run_cli(capsys, "witness",
                             str(input_path("gaussian_cusp.curve")),
                             "--json")
    assert code == 0
    report = json.loads(out)
    assert report["witness_ideal"] == ["t0*t1 - t0",
                                       "t1^3 - 3*t1^2 + 3*t1 - 1"]
    assert report["dimension"] == 1


def test_infinity_command(capsys):
    code, out, err = run_cli(capsys, "infinity",
                             str(input_path("quartic.curve")), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["r"] == 2
    assert report["infinity_points"] == [
        ["-12 + 8*a - 3*a^2 + a^3", "8", "-3", "1", "0"],
        ["-8*a + 3*a^2 - a^3", "8", "-3", "1", "0"],
    ]


def test_json_output_is_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "reparam",
                         str(input_path("quartic.curve")), "--json")
    _, out2, _ = run_cli(capsys, "reparam",
                         str(input_path("quartic.curve")), "--json")
    assert out1 == out2


def test_summary_goes_to_stderr_without_json_flag(capsys):
    code, out, err = run_cli(capsys, "conic-fields", "1", "1", "-6")
    assert code == 0
    json.loads(out)  # stdout stays pure JSON either way
    assert "slopes via prime" in err
    assert "[" in err and "s]" in err  # timing lives in the summary only


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hypercircle", "conic-fields", "1", "1",
         "-6", "--count", "2", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["set"] == [5, 41]


# ---------------------------------------------------------------------------
# argument handling: main builds only the subparser its command names,
# and must answer every invocation as the parser with all of them does

ARGUMENT_CASES = [
    [], ["--help"], ["-h"],
    ["reparam", "--help"], ["witness", "--help"], ["infinity", "-h"],
    ["hypercircle", "--help"], ["conic-fields", "--help"],
    ["reparam"], ["hypercircle", "x^2 + 1"], ["conic-fields", "1", "1"],
    ["bogus"], ["bogus", "-h"],
    ["conic-fields", "1", "1", "-6", "--method", "foo"],
    ["reparam", "a.curve", "--budget", "x"],
    ["conic-fields", "1", "1", "-6", "--count", "x"],
    ["witness", "a.curve", "extra"],
    ["conic-fields", "1", "1", "-6", "--bogus"],
]


def _parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("columns", ["80", "36"])
@pytest.mark.parametrize("argv", ARGUMENT_CASES, ids=" ".join)
def test_argument_handling_matches_the_full_parser(capsys, monkeypatch,
                                                   argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    full = cli._build_argparser()
    assert _parse_outcome(capsys, main, argv) == \
        _parse_outcome(capsys, full.parse_args, argv)


def test_main_reads_its_command_from_sys_argv(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["conic-fields", "1", "1", "-6", "--method", "foo"]
    monkeypatch.setattr(sys, "argv", ["hypercircle"] + argv)
    full = cli._build_argparser()
    assert _parse_outcome(capsys, lambda _: main(), None) == \
        _parse_outcome(capsys, full.parse_args, argv)


def _counting_parsers(monkeypatch):
    # cli imports argparse only when it builds a parser, so the class is
    # patched where argparse defines it
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@pytest.mark.parametrize("command", [row[0] for row in cli._commands()])
def test_a_command_builds_only_its_own_subparser(monkeypatch, command):
    built = _counting_parsers(monkeypatch)
    cli._build_argparser(command)
    assert built == ["hypercircle", f"hypercircle {command}"]


def test_the_full_parser_has_every_subcommand(monkeypatch):
    built = _counting_parsers(monkeypatch)
    cli._build_argparser("bogus")
    assert built == ["hypercircle"] + [f"hypercircle {row[0]}"
                                       for row in cli._commands()]


def test_import_builds_no_parser():
    # a parser built at import time would be paid by every process,
    # whatever its command
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import hypercircle.cli\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# tokens that sit on the edges of the grammar: negative numbers and
# dashed strings, options with "=" or abbreviated, "--", help, the
# strings int() reads past the ASCII digits, and a digit that is no \d
_EDGE_TOKENS = (
    "-6", "-0", "-1.5", "-.5", "-", "--", "-h", "--help", "--bud",
    "--count=3", "--json=1", "--js", "-x", "-t + 1", "", " 5", "+5", "1_0",
    "\u0663", "-\u0663", "-\u00b2", "5\n", "-6\n", "x^2 + 1",
    "(t + a)/(a*t + 1)", "prime", "crt", "foo", "3", "0", "12",
    "inputs/quartic.curve",
)


def _random_argv(rng):
    """A command line near the grammar: a well-formed one, often with a
    token inserted, dropped or replaced."""
    tokens = [t for argv in ARGUMENT_CASES for t in argv] + list(_EDGE_TOKENS)
    commands = cli._commands()
    if rng.random() < 0.05:
        return [rng.choice(tokens) for _ in range(rng.randrange(5))]
    command, _, arguments, _ = rng.choice(commands)
    words = []
    for name, kind, _, _ in arguments:
        if name[0] != "-":
            words.append([rng.choice(tokens)])
        elif rng.random() < 0.5:
            value = [] if kind is bool else [rng.choice(
                kind if isinstance(kind, tuple) and rng.random() < 0.7
                else tokens)]
            words.append([name] + value)
    rng.shuffle(words)
    argv = [command] + [t for word in words for t in word]
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(1, len(argv) + 1)
        change = rng.randrange(3)
        if change == 0:
            argv.insert(i, rng.choice(tokens))
        elif i < len(argv):
            if change == 1:
                del argv[i]
            else:
                argv[i] = rng.choice(tokens)
    return argv


def test_the_command_table_reader_agrees_with_argparse(capsys):
    # whatever the reader accepts, argparse reads to the same arguments
    # and handler; whatever it declines, argparse answers in main
    full = cli._build_argparser()
    rng = random.Random(33)
    accepted = 0
    for _ in range(4000):
        argv = _random_argv(rng)
        args = cli._read_argv(argv)
        if args is not None:
            assert vars(args) == vars(full.parse_args(argv)), argv
            accepted += 1
    assert capsys.readouterr() == ("", "")
    assert accepted > 400


def test_isdecimal_is_the_digit_class_of_argparse():
    # argparse reads "-" + digits as a negative number by r"\d"
    chars = "".join(map(chr, range(0x110000)))
    assert "".join(re.findall(r"\d", chars)) == \
        "".join(c for c in chars if c.isdecimal())


def _workload_argvs(tmp_path):
    script = (
        "import json, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import workloads\n"
        "out = []\n"
        "for w in sorted(workloads.GENERATORS):\n"
        "    for seed in (1, 3, 21):\n"
        "        d = os.path.join(sys.argv[2], f'{w}-{seed}')\n"
        "        out += [op['argv'] for op in workloads.build(w, seed, d)]\n"
        "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", script, str(repo_root() / "hcbench"),
         str(tmp_path)], capture_output=True, text=True, env=env,
        check=True, timeout=120)
    return json.loads(done.stdout)


def test_every_benchmark_and_golden_argv_takes_the_command_table(tmp_path):
    full = cli._build_argparser()
    argvs = _workload_argvs(tmp_path)
    argvs += [golden["argv"] for golden in _goldens().values()]
    assert len(argvs) > 300
    for argv in argvs:
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(full.parse_args(argv))


def test_well_formed_commands_load_no_argparse(monkeypatch):
    monkeypatch.chdir(repo_root())
    code = ("import sys\n"
            "from hypercircle.cli import main\n"
            "codes = [main(['conic-fields', '1', '1', '-6', '--method',\n"
            "               'crt', '--count', '3', '--json']),\n"
            "         main(['reparam', 'inputs/quartic.curve', '--json'])]\n"
            "print(codes, 'argparse' in sys.modules,\n"
            "      'gettext' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == "[0, 0] False False\n"


def test_help_is_argparse_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run([sys.executable, "-m", "hypercircle", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == cli._build_argparser().format_help()


@pytest.mark.parametrize("name", sorted(_goldens()))
def test_golden_reports_are_reproduced_byte_for_byte(capsys, monkeypatch,
                                                     name):
    # the bundled curves under reparam, witness and infinity, and the
    # fixed conic-fields lists, whose reports the benchmark pins too
    golden = _goldens()[name]
    monkeypatch.chdir(repo_root())
    code, out, _ = run_cli(capsys, *golden["argv"])
    assert (code, out) == (golden["code"], golden["stdout"])


def test_curve_file_with_a_byte_order_mark_reads_the_same(capsys,
                                                          tmp_path):
    text = input_path("quartic.curve").read_bytes()
    marked = tmp_path / "quartic.curve"
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    want = run_cli(capsys, "reparam", str(input_path("quartic.curve")),
                   "--json")
    got = run_cli(capsys, "reparam", str(marked), "--json")
    assert want[0] == 0
    assert got == want
