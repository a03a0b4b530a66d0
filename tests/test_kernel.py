"""The term kernel's monomial comparison: with an order, mpoly.Packing
makes int comparison of packed monomials the monomial order."""

from hypercircle.mpoly import GREVLEX, Packing


def _cmp(e1, e2, order=GREVLEX, bound=15):
    packing = Packing(len(e1), bound, order)
    p1, p2 = packing.pack(e1), packing.pack(e2)
    return (p1 > p2) - (p1 < p2)


def test_grevlex_hand_order():
    # degree first, then smaller trailing exponent wins ties
    assert _cmp((1, 2, 0), (0, 0, 3)) > 0
    assert _cmp((2, 0, 0), (0, 2, 0)) > 0
    assert _cmp((1, 1, 1), (1, 1, 1)) == 0
    assert _cmp((0, 3, 0), (1, 0, 2)) > 0


def test_cmp_antisymmetry_and_total_degree():
    cases = [((0, 1, 2), (2, 1, 0)), ((3, 0, 0), (0, 0, 3)), ((1, 1, 0), (0, 2, 0))]
    for e1, e2 in cases:
        assert _cmp(e1, e2) == -_cmp(e2, e1) != 0
        if sum(e1) > sum(e2):
            assert _cmp(e1, e2) > 0
