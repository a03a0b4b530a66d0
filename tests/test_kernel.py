"""The term kernel on exponent tuples: orders and exponent helpers."""

from hypercircle import kernel
from hypercircle._kernel_py import ORDER_BLOCK, ORDER_GREVLEX, ORDER_LEX
from hypercircle import _kernel_py as pyk


def test_python_backend_always_available():
    assert "python" in kernel.available_backends()


def test_grevlex_hand_order():
    # degree first, then smaller trailing exponent wins ties
    assert pyk.cmp_exp((1, 2, 0), (0, 0, 3), ORDER_GREVLEX, 0) > 0
    assert pyk.cmp_exp((2, 0, 0), (0, 2, 0), ORDER_GREVLEX, 0) > 0
    assert pyk.cmp_exp((1, 1, 1), (1, 1, 1), ORDER_GREVLEX, 0) == 0
    assert pyk.cmp_exp((0, 3, 0), (1, 0, 2), ORDER_GREVLEX, 0) > 0


def test_lex_hand_order():
    assert pyk.cmp_exp((1, 0, 0), (0, 9, 9), ORDER_LEX, 0) > 0
    assert pyk.cmp_exp((1, 2, 0), (1, 1, 9), ORDER_LEX, 0) > 0


def test_block_order_compares_first_block_first():
    # split 1: exponent 0 forms the first block, rest compared grevlex
    assert pyk.cmp_exp((1, 0, 0), (0, 9, 9), ORDER_BLOCK, 1) > 0
    assert pyk.cmp_exp((1, 0, 1), (1, 2, 0), ORDER_BLOCK, 1) < 0
    assert pyk.cmp_exp((1, 0, 3), (1, 2, 0), ORDER_BLOCK, 1) > 0


def test_exp_helpers():
    assert pyk.exp_div((4, 2), (3, 0)) == (1, 2)
    assert pyk.exp_div((1, 2), (3, 0)) is None
    assert pyk.exp_lcm((1, 5), (2, 0)) == (2, 5)


def test_cmp_antisymmetry_and_total_degree():
    cases = [((0, 1, 2), (2, 1, 0)), ((3, 0, 0), (0, 0, 3)), ((1, 1, 0), (0, 2, 0))]
    for e1, e2 in cases:
        assert pyk.cmp_exp(e1, e2, ORDER_GREVLEX, 0) == -pyk.cmp_exp(e2, e1, ORDER_GREVLEX, 0)
        if sum(e1) > sum(e2):
            assert pyk.cmp_exp(e1, e2, ORDER_GREVLEX, 0) > 0
