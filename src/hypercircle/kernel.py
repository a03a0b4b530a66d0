"""The term kernel: arithmetic on term dicts keyed by exponent tuples.

The functions are defined in _kernel_py and re-exported here; `mpoly`
is their caller, with the test-only `groebner.spoly`.  The Groebner
engine and the descent work on packed monomials of their own.  There is
one backend, the pure-Python one, and backend_name() reports it.
"""

from ._kernel_py import (  # noqa: F401
    ORDER_BLOCK, ORDER_GREVLEX, ORDER_LEX, add_terms, addmul_terms, cmp_exp,
    exp_div, exp_lcm, leading_exponent, mul_terms, neg_terms, scale_terms,
    sub_terms)


def backend_name() -> str:
    return "python"


def available_backends():
    return [backend_name()]
