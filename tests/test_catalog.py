import math

import pytest

from monovar.catalog import (
    IDENTITY_20,
    PHI,
    SIGMA1,
    SIGMA2,
    alpha,
    b_word,
    beta,
    c_oracle_word,
    code_of,
    coded_identity,
    d_oracle_word,
    delta,
    gamma,
    identity_system,
    jkk_basis,
    w_family,
    w_family_split,
)
from monovar.decomposition import decompose, profile
from monovar.words import EMPTY, L, Letter, Word, parse_word, substitute


def test_b_words():
    assert b_word(0) == EMPTY
    assert b_word(1) == parse_word("x0x1")
    assert b_word(2) == parse_word("x1x2x0x1")
    assert b_word(2, 2) == parse_word("x1x2")
    assert b_word(3) == parse_word("x2x3x1x2x0x1")
    with pytest.raises(ValueError):
        b_word(2, 3)


def test_identity_series_small_instances():
    assert str(alpha(1)) == "x1y1x0x1y1 = y1x1x0x1y1"
    assert str(beta(1)) == "xx1xx0x1 = x1xxx0x1"
    assert str(gamma(1)) == "y1y0x1y1x0x1 = y1y0y1x1x0x1"
    assert str(delta(1, 1)) == "y2y1x1y2x0x1y1 = y2y1y2x1x0x1y1"
    assert str(delta(2, 2)) == "y3y2x2y3x1x2y2x0x1 = y3y2y3x2x1x2y2x0x1"
    assert str(jkk_basis(1)) == "xx1xx0x1 = xxx1x0x1"


def test_delta_m_below_k():
    d = delta(2, 1)
    assert d.lhs == parse_word("y2y1x2y2x1x2x0x1y1")
    assert d.rhs == parse_word("y2y1y2x2x1x2x0x1y1")


def test_alpha_1_is_sigma1_with_t_erased():
    collapsed = SIGMA1.substitute({L("t"): EMPTY})
    renamed = collapsed.substitute({
        L("x"): Word([L("x1")]), L("y"): Word([L("y1")]), L("z"): Word([L("x0")]),
    })
    assert renamed == alpha(1)


def test_named_identities():
    assert str(IDENTITY_20) == "xyxzx = xyxz"
    assert coded_identity("(20)") == IDENTITY_20
    assert coded_identity("sigma1") == SIGMA1
    assert coded_identity("sigma2") == SIGMA2
    assert len(PHI) == 3
    for code in ["(17)", "(19)", "(22)", "nope"]:
        with pytest.raises(KeyError):
            coded_identity(code)


def test_identity_systems():
    assert identity_system("phi") == PHI
    assert IDENTITY_20 in identity_system("phi+")
    with pytest.raises(KeyError):
        identity_system("psi")


def test_w_family_base_case():
    assert w_family(1) == parse_word("z1t1xz1z2xt2z2")
    assert w_family_split(1, 0, 1) == w_family(1)
    # no interior block: x^2 sits before the shuffle
    assert w_family_split(1, 0, 0) == parse_word("z1t1x^2z1z2t2z2")


def test_w_family_permutations():
    w = w_family(2, pi=[2, 1], tau=[1, 2])
    assert w == parse_word("z1t1z2t2xz2z3z1z4xt3z3t4z4")
    with pytest.raises(ValueError):
        w_family(2, pi=[1, 1])


def test_w_family_split_interior():
    assert w_family_split(2, 1, 2) == parse_word("z1t1z2t2z1z3xz2z4xt3z3t4z4")
    assert w_family_split(2, 1, 1) == parse_word("z1t1z2t2z1z3x^2z2z4t3z3t4z4")


def test_oracle_words():
    assert c_oracle_word(2) == parse_word("x")
    assert c_oracle_word(4) == parse_word("x^3")
    assert d_oracle_word(1) == parse_word("xy")
    assert d_oracle_word(3) == parse_word("xy1xy2x")


# Expected k-decompositions of both sides of the four identity series.
# Dividers and blocks follow a fixed pattern in k and m.


def _xs(i):
    return Letter("x", i)


def _ys(i):
    return Letter("y", i)


def _tail(top, special=None, special_block=None):
    """Divider/block pairs x(top), x(top-1), ... x0 with block x(j+1) after
    divider x(j), except that divider x(special) is followed by special_block."""
    dividers, blocks = [], []
    for j in range(top, -1, -1):
        dividers.append(_xs(j))
        if special is not None and j == special:
            blocks.append(special_block)
        else:
            blocks.append(Word([_xs(j + 1)]))
    return dividers, blocks


def _render(dividers, blocks):
    parts = []
    for d, b in zip(dividers, blocks):
        parts.append("λ" if d is None else str(d))
        parts.append(f"[{b}]" if len(b) else "[λ]")
    return "·".join(parts)


def expected_alpha(k, side):
    first = [_xs(k), _ys(k)] if side == "lhs" else [_ys(k), _xs(k)]
    tail_d, tail_b = _tail(k - 1, special=k - 1,
                           special_block=Word([_xs(k), _ys(k)]))
    dividers = [None] + first + tail_d
    blocks = [EMPTY, EMPTY, EMPTY] + tail_b
    return _render(dividers, blocks)


def expected_beta(k, side):
    x = L("x")
    tail_d, tail_b = _tail(k - 1, special=k - 1, special_block=Word([_xs(k)]))
    dividers = [None, _xs(k)] + tail_d
    if side == "lhs":
        blocks = [Word([x]), Word([x])] + tail_b
    else:
        blocks = [EMPTY, Word([x, x])] + tail_b
    return _render(dividers, blocks)


def expected_gamma(k, side):
    tail_d, tail_b = _tail(k - 1)
    dividers = [None, _ys(1), _ys(0), _xs(k)] + tail_d
    y1 = Word([_ys(1)])
    if side == "lhs":
        blocks = [EMPTY, EMPTY, EMPTY, y1] + tail_b
    else:
        blocks = [EMPTY, EMPTY, y1, EMPTY] + tail_b
    return _render(dividers, blocks)


def expected_delta(k, m, side):
    if m < k:
        tail_d, tail_b = _tail(k - 1, special=m - 1,
                               special_block=Word([_xs(m), _ys(m)]))
        dividers = [None, _ys(m + 1), _ys(m), _xs(k)] + tail_d
        ym1 = Word([_ys(m + 1)])
        if side == "lhs":
            blocks = [EMPTY, EMPTY, EMPTY, ym1] + tail_b
        else:
            blocks = [EMPTY, EMPTY, ym1, EMPTY] + tail_b
    else:
        tail_d, tail_b = _tail(k - 1, special=k - 1,
                               special_block=Word([_xs(k), _ys(k)]))
        dividers = [None, _ys(k), _xs(k)] + tail_d
        yk1 = Word([_ys(k + 1)])
        if side == "lhs":
            blocks = [yk1, EMPTY, yk1] + tail_b
        else:
            blocks = [yk1, yk1, EMPTY] + tail_b
    return _render(dividers, blocks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_alpha_beta_gamma_decompositions(k):
    for side in ["lhs", "rhs"]:
        assert decompose(getattr(alpha(k), side), k).render() == expected_alpha(k, side)
        assert decompose(getattr(beta(k), side), k).render() == expected_beta(k, side)
        assert decompose(getattr(gamma(k), side), k).render() == expected_gamma(k, side)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta_decompositions(k):
    for m in range(1, k + 1):
        for side in ["lhs", "rhs"]:
            got = decompose(getattr(delta(k, m), side), k).render()
            assert got == expected_delta(k, m, side), (k, m, side)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_depth_index_law(k):
    """Indexed letters have depth equal to their index, on every side of
    every series identity; the squared letter of the beta pair splits at
    k+1 on the left and never on the right."""
    sides = []
    for ident in [alpha(k), beta(k), gamma(k), jkk_basis(k)]:
        sides.extend([ident.lhs, ident.rhs])
    for m in range(1, k + 1):
        sides.extend([delta(k, m).lhs, delta(k, m).rhs])
    for w in sides:
        for letter in w.content():
            if letter.index is not None:
                assert profile(w).depth(letter) == letter.index, (w, letter)
    assert profile(beta(k).lhs).depth(L("x")) == k + 1
    assert profile(beta(k).rhs).depth(L("x")) == math.inf


def test_coded_identity_resolves_parametric_codes():
    assert coded_identity("sigma2") == SIGMA2
    assert coded_identity("alpha:2") == alpha(2)
    assert coded_identity("beta:1") == beta(1)
    assert coded_identity("gamma:3") == gamma(3)
    assert coded_identity("delta:3.1") == delta(3, 1)
    assert coded_identity("jkk:2") == jkk_basis(2)
    for bad in ["alpha:0", "delta:2", "jkk:x", "nonsense"]:
        with pytest.raises((KeyError, ValueError)):
            coded_identity(bad)
    assert code_of(IDENTITY_20) == "(20)"
    assert code_of(alpha(1)) is None
