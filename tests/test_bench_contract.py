"""The names the benchmark harness reaches into the program by.

hcbench/tracer.py wraps the functions its SPANS table names, found by
name in their hypercircle modules, and hcbench/worker.py reports
kernel.backend_name().  A rename that breaks `--trace 1` fails here.
The harness is only read, never imported.
"""

import ast
import importlib

import pytest

from helpers import repo_root

from hypercircle import kernel


def _spans():
    tree = ast.parse((repo_root() / "hcbench" / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["SPANS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("hcbench/tracer.py defines no SPANS table")


SPANS = _spans()


@pytest.mark.parametrize("module", sorted(SPANS))
def test_every_traced_function_resolves(module):
    mod = importlib.import_module(f"hypercircle.{module}")
    for name in SPANS[module]:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_kernel_reports_its_backend():
    assert kernel.backend_name() == "python"
