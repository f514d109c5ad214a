"""Catalog of identities and word families used by the variety deciders."""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .words import Identity, Letter, Word, identity, parse_word


def _x(i: int) -> Letter:
    return Letter("x", i)


def _y(i: int) -> Letter:
    return Letter("y", i)


def b_word(s: int, q: int = 1) -> Word:
    """Descending chain of overlapping pairs x(s-1) x(s) ... x(q-1) x(q).

    b_word(0) is the empty word.
    """
    if s == 0:
        return Word()
    if not 1 <= q <= s:
        raise ValueError("need 1 <= q <= s")
    letters: list[Letter] = []
    for j in range(s, q - 1, -1):
        letters.extend([_x(j - 1), _x(j)])
    return Word(letters)


def alpha(k: int) -> Identity:
    """xk yk x(k-1) xk yk b(k-1) = yk xk x(k-1) xk yk b(k-1)"""
    if k < 1:
        raise ValueError("k must be >= 1")
    tail = Word([_x(k - 1), _x(k), _y(k)]) + b_word(k - 1)
    return Identity(Word([_x(k), _y(k)]) + tail, Word([_y(k), _x(k)]) + tail)


def beta(k: int) -> Identity:
    """x xk x b(k) = xk x^2 b(k)"""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Letter("x")
    return Identity(Word([x, _x(k), x]) + b_word(k),
                    Word([_x(k), x, x]) + b_word(k))


def gamma(k: int) -> Identity:
    """y1 y0 xk y1 b(k) = y1 y0 y1 xk b(k)"""
    if k < 1:
        raise ValueError("k must be >= 1")
    y1, y0 = _y(1), _y(0)
    return Identity(Word([y1, y0, _x(k), y1]) + b_word(k),
                    Word([y1, y0, y1, _x(k)]) + b_word(k))


def delta(k: int, m: int) -> Identity:
    """y(m+1) ym xk y(m+1) b(k,m) ym b(m-1) = y(m+1) ym y(m+1) xk b(k,m) ym b(m-1)"""
    if not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")
    tail = b_word(k, m) + Word([_y(m)]) + b_word(m - 1)
    return Identity(Word([_y(m + 1), _y(m), _x(k), _y(m + 1)]) + tail,
                    Word([_y(m + 1), _y(m), _y(m + 1), _x(k)]) + tail)


def jkk_basis(k: int) -> Identity:
    """x xk x b(k) = x^2 xk b(k); with PHI it is a basis for the top J step."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Letter("x")
    return Identity(Word([x, _x(k), x]) + b_word(k),
                    Word([x, x, _x(k)]) + b_word(k))


PHI: tuple[Identity, ...] = (
    identity("xyx", "xyx^2"),
    identity("x^2y^2", "y^2x^2"),
    identity("x^2y", "x^2yx"),
)

SIGMA1 = identity("xyzxty", "yxzxty")
SIGMA2 = identity("xtyzxy", "xtyzyx")

# xyxzx = xyxz collapses every occurrence of a letter after its second one
IDENTITY_20 = identity("xyxzx", "xyxz")

_NAMED: dict[str, Identity] = {
    "sigma1": SIGMA1,
    "sigma2": SIGMA2,
    "(20)": IDENTITY_20,
    "phi1": PHI[0],
    "phi2": PHI[1],
    "phi3": PHI[2],
    "xx=xxx": identity("x^2", "x^3"),
    "xxy=yxx": identity("x^2y", "yx^2"),
    "xyxzx=xxyz": identity("xyxzx", "x^2yz"),
}


def coded_identity(code: str) -> Identity:
    """Look up an identity by code: a fixed code, or a parametric one.

    "alpha:2", "beta:1", "gamma:3" and "jkk:2" take the band index after
    the colon; "delta:3.1" takes band and stage.
    """
    if code in _NAMED:
        return _NAMED[code]
    m = re.fullmatch(r"(alpha|beta|gamma|jkk):(\d+)", code)
    if m:
        maker = {"alpha": alpha, "beta": beta, "gamma": gamma,
                 "jkk": jkk_basis}[m.group(1)]
        return maker(int(m.group(2)))
    m = re.fullmatch(r"delta:(\d+)\.(\d+)", code)
    if m:
        return delta(int(m.group(1)), int(m.group(2)))
    known = ", ".join(sorted(_NAMED))
    raise KeyError(f"unknown identity code {code!r}; known codes: {known}, "
                   "alpha:<k>, beta:<k>, gamma:<k>, delta:<k>.<m>, jkk:<k>")


def code_of(ident: Identity) -> Optional[str]:
    """The fixed code for an identity, or None when it has no name."""
    for code, known in _NAMED.items():
        if known == ident:
            return code
    return None


def identity_system(name: str) -> tuple[Identity, ...]:
    """Named rewriting systems for the derivation tools."""
    systems = {
        "phi": PHI,
        "phi+": PHI + (SIGMA2, IDENTITY_20),
        "sigma": (SIGMA1, SIGMA2),
    }
    try:
        return systems[name]
    except KeyError:
        raise KeyError(f"unknown identity system {name!r}; known: "
                       + ", ".join(sorted(systems)))


# Word families separating the varieties without a finite identity basis.


def _check_perm(p: Sequence[int], n: int, name: str) -> None:
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{name} must be a permutation of 1..{n}")


def _z(i: int) -> Letter:
    return Letter("z", i)


def _t(i: int) -> Letter:
    return Letter("t", i)


def w_family_split(n: int, k: int, l: int,
                   pi: Optional[Sequence[int]] = None,
                   tau: Optional[Sequence[int]] = None) -> Word:
    """z1 t1 .. zn tn, then the shuffled middle pairs with the two x
    occurrences inserted after positions k and l, then t(n+1) z(n+1) ...

    Split (0, n) is the plain family word and (0, 0) its squared variant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= l <= n:
        raise ValueError("need 0 <= k <= l <= n")
    pi = list(pi) if pi is not None else list(range(1, n + 1))
    tau = list(tau) if tau is not None else list(range(1, n + 1))
    _check_perm(pi, n, "pi")
    _check_perm(tau, n, "tau")
    x = Letter("x")
    letters: list[Letter] = []
    for i in range(1, n + 1):
        letters.extend([_z(i), _t(i)])
    for i in range(1, n + 1):
        if i == k + 1:
            letters.append(x)
        if i == l + 1:
            letters.append(x)
        letters.extend([_z(pi[i - 1]), _z(n + tau[i - 1])])
    if k == n:
        letters.append(x)
    if l == n:
        letters.append(x)
    for i in range(n + 1, 2 * n + 1):
        letters.extend([_t(i), _z(i)])
    return Word(letters)


def w_family(n: int, pi: Optional[Sequence[int]] = None,
             tau: Optional[Sequence[int]] = None) -> Word:
    return w_family_split(n, 0, n, pi, tau)


# Oracle words: the finite monoid of all subwords of one of these words
# decides the matching variety.

ORACLE_WORD_L = parse_word("xzxyty")
ORACLE_WORD_M = parse_word("xyzxty")


def c_oracle_word(n: int) -> Word:
    """x^(n-1) decides the n-th bounded-occurrence variety."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return Word([Letter("x")] * (n - 1))


def d_oracle_word(k: int) -> Word:
    """xy for level 1, then x y1 x y2 x ... x y(k-1) x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return parse_word("xy")
    x = Letter("x")
    letters = [x]
    for j in range(1, k):
        letters.extend([_y(j), x])
    return Word(letters)
