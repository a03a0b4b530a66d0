import time

import pytest

from helpers import input_path

from hypercircle.exprparse import build_problem, parse_curve_file
from hypercircle.fields import QQ, make_extension
from hypercircle.reparam import optimal_affine_reparametrize
from hypercircle.upoly import UniPoly


def _load(name):
    return build_problem(parse_curve_file(input_path(name).read_text()))


@pytest.fixture(scope="session")
def qi():
    """The degree-2 tower QQ(a), a^2 = -1."""
    return make_extension(QQ, UniPoly(QQ, (1, 0, 1)), "a")


@pytest.fixture(scope="session")
def quartic():
    """phi over QQ(a), a of degree 4, for the worked example."""
    return _load("quartic.curve")


@pytest.fixture(scope="session")
def quartic_report(quartic):
    """(report, elapsed seconds) for one full run on the quartic input."""
    start = time.monotonic()
    report = optimal_affine_reparametrize(quartic)
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def gaussian_cusp():
    return _load("gaussian_cusp.curve")


@pytest.fixture(scope="session")
def gaussian_twist():
    return _load("gaussian_twist.curve")
