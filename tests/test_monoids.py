import random

import pytest
from hypothesis import given, settings, strategies as st

from monovar import monoids
from monovar.catalog import (
    IDENTITY_20,
    ORACLE_WORD_L,
    ORACLE_WORD_M,
    PHI,
    SIGMA1,
    SIGMA2,
    c_oracle_word,
    d_oracle_word,
)
from monovar.deciders import decide, parse_variety, semi_decide_d
from monovar.monoids import (
    Monoid,
    ReesQuotient,
    b21,
    k5,
    named_monoid,
    p1,
    rees_quotient,
)
from monovar.words import (
    Identity,
    L,
    Word,
    collapsing_letters,
    identity,
    image_letters,
    iter_matches,
    parse_identity,
    parse_word,
)


def test_fixed_monoids_are_monoids():
    for m in [p1(), b21(), k5()]:
        m.check()


def test_p1_products():
    m = p1()
    e, a = m.index["e"], m.index["a"]
    assert m.labels[m.mul(e, a)] == "0"
    assert m.labels[m.mul(a, e)] == "a"
    assert m.labels[m.mul(a, a)] == "0"


def test_b21_products():
    m = b21()
    i = m.index
    assert m.mul(i["a"], i["b"]) == i["ab"]
    assert m.mul(i["ab"], i["a"]) == i["a"]
    assert m.mul(i["ba"], i["ba"]) == i["ba"]
    assert m.mul(i["ab"], i["ba"]) == i["0"]


def test_k5_products():
    m = k5()
    i = m.index
    assert m.mul(i["a"], i["a"]) == i["a"]
    assert m.mul(i["a"], i["b"]) == i["a"]
    assert m.mul(i["b"], i["b"]) == i["bb"]
    assert m.mul(i["bb"], i["a"]) == i["bb"]
    assert m.mul(i["b"], i["ba"]) == i["bb"]


def test_rees_quotient_sizes():
    assert len(rees_quotient(parse_word("x"))) == 3
    assert len(rees_quotient(parse_word("xy"))) == 5
    assert len(rees_quotient(parse_word("xzxyty"))) == 21


def test_rees_quotient_structure():
    m = rees_quotient(parse_word("xy"))
    m.check()
    i = m.index
    assert m.mul(i["x"], i["y"]) == i["xy"]
    assert m.mul(i["y"], i["x"]) == i["0"]
    assert m.mul(i["xy"], i["xy"]) == i["0"]
    assert m.letter_index(L("x")) == i["x"]
    assert m.letter_index(L("q")) == m.zero_index


@given(st.lists(st.sampled_from([L("x"), L("y"), L("z")]), min_size=1, max_size=4).map(Word))
@settings(max_examples=25, deadline=None)
def test_rees_quotient_always_associative(w):
    ReesQuotient(w).check()


def test_satisfies_basic():
    s_xy = rees_quotient(parse_word("xy"))
    assert not s_xy.satisfies(identity("x", "x^2"))
    assert s_xy.satisfies(identity("x^2", "x^3"))
    s_x = rees_quotient(parse_word("x"))
    assert s_x.satisfies(identity("x^2", "x^3"))
    assert not s_x.satisfies(identity("x", "x^2"))


def test_satisfies_letter_cap():
    m = p1()
    five = identity("abcde", "edcba")
    with pytest.raises(ValueError):
        m.satisfies(five)
    assert not m.satisfies(five, max_letters=5)
    with pytest.raises(ValueError, match="above the cap of 4"):
        rees_quotient(parse_word("xy")).satisfies(five)
    # with the cap raised, brute force refuses more than MAX_ASSIGNMENTS
    # before evaluating any; factor matching alone needs no bound
    bound = "assignments; the bound is 1e[+]07"
    with pytest.raises(ValueError, match=rf"6\*\*10 {bound}"):
        b21().satisfies(identity("x^2y^2ztuvwsrq", "y^2x^2ztuvwsrq"),
                        max_letters=10)
    six = identity("abcdef", "abcdefa")
    with pytest.raises(ValueError, match=rf"21\*\*6 {bound}"):
        rees_quotient(ORACLE_WORD_L).find_violation(six, max_letters=6)
    assert not rees_quotient(ORACLE_WORD_L).satisfies(six, max_letters=6)


DIFFERENTIAL_QUOTIENTS = [
    *(rees_quotient(parse_word(w)) for w in ("xx", "xy", "xyx", "xyxy")),
    rees_quotient(parse_word("xy"), parse_word("yx")),
    rees_quotient(ORACLE_WORD_L),
    rees_quotient(ORACLE_WORD_M),
    *(rees_quotient(d_oracle_word(k)) for k in (2, 3, 4)),
    rees_quotient(c_oracle_word(4)),
]


def _edited_identity(rng: random.Random) -> Identity:
    """A word on up to three letters against a different word: an edit of
    it (a swap, an insertion or a deletion, which may change the content)
    or a fresh word."""
    letters = [L(c) for c in "xyz"[:rng.randint(1, 3)]]
    u = [rng.choice(letters) for _ in range(rng.randint(1, 7))]
    v = list(u)
    while v == u:
        i = rng.randrange(len(v) + 1)
        edit = rng.randrange(5)
        if edit == 0 and 0 < i < len(v):
            v[i - 1], v[i] = v[i], v[i - 1]
        elif edit == 1:
            v.insert(i, rng.choice(letters))
        elif edit == 2 and len(v) > 1 and i < len(v):
            del v[i]
        elif edit == 3 and i < len(v):
            v.insert(i, v[i])
        else:
            v = [rng.choice(letters) for _ in range(rng.randint(1, 7))]
    return Identity(Word(u), Word(v))


def test_factor_matching_agrees_with_brute_force():
    """ReesQuotient decides by factor matching; the table brute force of
    Monoid.find_violation is its reference, down to the first refuting
    assignment."""
    rng = random.Random(5003)
    holds = mixed = 0
    for n in range(6000):
        quotient = DIFFERENTIAL_QUOTIENTS[n % len(DIFFERENTIAL_QUOTIENTS)]
        ident = _edited_identity(rng)
        fast = quotient.find_violation(ident)
        assert fast == Monoid.find_violation(quotient, ident), (
            quotient.name, str(ident))
        assert quotient.satisfies(ident) == (fast is None)
        holds += fast is None
        mixed += ident.lhs.content() != ident.rhs.content()
    assert holds > 1000 and mixed > 500, (holds, mixed)


def test_quotients_decide_sigma1_without_brute_force(monkeypatch):
    """sigma1 in L, in L~ and in the first three D oracles is decided
    without enumerating assignments in a quotient; B21, a plain table,
    still enumerates."""
    brute_force = Monoid._first_violation

    def guarded(self, ident, letters):
        if isinstance(self, ReesQuotient):
            raise AssertionError(f"brute force in {self.name} on {ident}")
        return brute_force(self, ident, letters)

    monkeypatch.setattr(Monoid, "_first_violation", guarded)
    holds = "holds [oracle: holds in S(xzxyty) under every substitution]"
    assert str(decide(parse_variety("L"), SIGMA1)) == holds
    assert str(decide(parse_variety("L~"), SIGMA1)) == holds
    assert semi_decide_d(SIGMA1, k=3) == "unknown"


@pytest.mark.parametrize("generators, text", [
    (("xzxyty",), "xyzxty = yxzxty"),
    (("xy", "yx"), "xx = xxx"),
])
def test_refutes_searches_once_per_side_and_generator(
        monkeypatch, generators, text):
    """An identity the quotient satisfies is matched both ways against
    every generator, one matcher run each, which walks every start."""
    calls = []

    def counting(pattern, target, nonempty=frozenset()):
        calls.append((pattern, target))
        return iter_matches(pattern, target, nonempty)

    monkeypatch.setattr(monoids, "iter_matches", counting)
    quotient = rees_quotient(*map(parse_word, generators))
    ident = parse_identity(text)
    assert not quotient._refutes(ident)
    assert calls == [(u.letters, w.letters)
                     for u in (ident.lhs, ident.rhs) for w in quotient.words]
    assert len(calls) == 2 * len(generators)


@pytest.mark.parametrize("generator, text, matches, factors", [
    ("xzxyty", "xxyyz = zyyxx", 56, 42),
    ("xy", "x^2y^2 = x^3y^3", 6, 0),
])
def test_moves_a_factor_skips_empty_factors(
        monkeypatch, generator, text, matches, factors):
    """A match onto an empty factor sends every letter to the empty word
    on both sides, so the other side's image is built only for the
    matches onto nonempty factors."""
    calls = []

    def counting(letters, xi):
        calls.append(xi)
        return image_letters(letters, xi)

    monkeypatch.setattr(monoids, "image_letters", counting)
    quotient = rees_quotient(parse_word(generator))
    ident = parse_identity(text)
    assert not collapsing_letters(ident) and not quotient._refutes(ident)
    found = [(start, stop) for side in (ident.lhs, ident.rhs)
             for start, stop, _ in iter_matches(side.letters,
                                                quotient.words[0].letters)]
    assert len(found) == matches
    assert len(calls) == sum(stop > start for start, stop in found) == factors


def test_b21_refutes_both_swap_identities():
    # The Brandt monoid separates the two sides of each swap identity:
    # sending x -> a, y -> b and the padding letters z, t -> 1 turns the
    # left side of SIGMA1 into abab = ab but the right side into baab = 0.
    m = b21()
    hit = m.find_violation(SIGMA1, max_letters=6)
    assert hit is not None
    lhs, rhs = (m.evaluate(side, hit) for side in (SIGMA1.lhs, SIGMA1.rhs))
    assert lhs != rhs
    assert m.find_violation(SIGMA2, max_letters=6) is not None


def test_k5_identity_facts():
    """K5 satisfies phi1, phi3, sigma2 and (20) but refutes
    phi2 = x^2y^2 = y^2x^2, which K accepts. So K5 is not in K, and its
    variety lies above K."""
    m = k5()
    xyx_xyxx, xxyy_yyxx, xxy_xxyx = PHI
    assert m.satisfies(xyx_xyxx)
    assert m.satisfies(xxy_xxyx)
    assert m.satisfies(SIGMA2)
    assert m.satisfies(IDENTITY_20)
    violation = m.find_violation(xxyy_yyxx)
    assert violation is not None
    x, y = violation[L("x")], violation[L("y")]
    lhs = m.evaluate(parse_word("x^2y^2"), violation)
    rhs = m.evaluate(parse_word("y^2x^2"), violation)
    assert lhs != rhs
    assert not m.satisfies(identity("xyxy", "yxyx"))


def test_p1_satisfies_e_style_identities():
    m = p1()
    assert m.satisfies(identity("x^2", "x^3"))
    assert m.satisfies(identity("x^2y", "xyx"))
    assert not m.satisfies(identity("xy", "yx"))


def test_named_monoid():
    assert named_monoid("P1") is p1()
    assert len(named_monoid("S(xy)")) == 5
    with pytest.raises(KeyError):
        named_monoid("Q7")


def test_dump_contains_all_labels():
    text = b21().dump()
    for label in ["1", "a", "b", "ab", "ba", "0"]:
        assert label in text


def test_describe_assignment():
    m = p1()
    text = m.describe_assignment({L("y"): 1, L("x"): 2})
    assert text == "x=a, y=e"
