import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monovar import deciders
from monovar.catalog import (
    PHI,
    SIGMA1,
    SIGMA2,
    alpha,
    beta,
    delta,
    gamma,
)
from monovar.deciders import (
    Variety,
    _keys,
    _plan,
    _rule,
    chain_bits,
    chain_of,
    decide,
    parse_variety,
    semi_decide_d,
    separating_witness,
    structural_c,
    verify_chain,
)
from monovar.decomposition import profile
from monovar.words import Identity, Letter, Word, iter_words, parse_identity

V = parse_variety
pi = parse_identity


def ident(text: str) -> Identity:
    return pi(text)


# ---------------------------------------------------------------- parsing


@pytest.mark.parametrize("name", [
    "T", "SL", "C2", "C5", "D1", "D3", "E", "K",
    "F1", "H2", "I3", "J2.1", "J3.3", "LRB", "RRB", "L", "M",
    "D", "N", "O",
])
def test_parse_round_trip(name):
    assert V(name).name == name


def test_parse_is_case_insensitive_and_handles_duals():
    assert V("f2") == V("F2")
    assert V("j2.1~").dual
    assert V("L~").name == "L~"
    assert V("E~").base == V("E")


@pytest.mark.parametrize("bad", ["C1", "C0", "D0", "F0", "J0.1", "J2.3", "J2.0", "X9", "",
                                 "D01", "E2", "F", "J2", "F2.1"])
def test_parse_rejects_malformed_names(bad):
    # parse_variety is cached; a bad name must raise on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            V(bad)
    assert V("J2.1") == V("J2.1")


def test_variety_validation():
    with pytest.raises(ValueError):
        Variety("C", k=1)
    with pytest.raises(ValueError):
        Variety("J", k=2, m=3)
    assert Variety("J", k=3, m=2).name == "J3.2"


# ---------------------------------------------------------------- claims


def failed_claim(variety: str, identity: Identity) -> str:
    """The code of the claim at which the variety rejects the identity."""
    verdict = decide(V(variety), identity)
    assert not verdict.holds, verdict
    return verdict.reasons[0].claim


def test_letters_claim_decides_c2():
    assert decide(V("C2"), ident("xyx = x^2y")).holds
    assert failed_claim("C2", ident("xy = xyx")) == "letters"
    assert failed_claim("C2", ident("x = y")) == "letters"


def test_skeleton_claim_decides_d1():
    # deleting the multiple letters must leave the same word
    assert decide(V("D1"), ident("xyx = x^2y")).holds
    assert decide(V("D1"), ident("xtyx = x^2ty")).holds
    assert failed_claim("D1", ident("xty^2 = txy^2")) == "skeleton"


def test_h1h2_claim_decides_f_k_on_catalog_identities():
    assert decide(V("F2"), alpha(2)).holds
    assert decide(V("F2"), delta(2, 2)).holds
    assert failed_claim("F3", delta(2, 2)) == "h1h2@2"
    assert decide(V("F4"), ident("xyxzytszxs = xyxzytszxs")).holds


# ---------------------------------------------------------------- decide: basics


def test_every_variety_accepts_a_trivial_identity():
    same = ident("xyx = xyx")
    for v in chain_of(2) + [V("LRB"), V("RRB"), V("L"), V("M"), V("C4"), V("D3")]:
        assert decide(v, same).holds, v.name


def test_only_the_trivial_variety_accepts_a_renaming():
    swap = ident("x = y")
    assert decide(V("T"), swap).holds
    for v in chain_of(2)[1:] + [V("LRB"), V("RRB"), V("L"), V("M")]:
        assert not decide(v, swap).holds, v.name


def test_sl_is_content_comparison():
    assert decide(V("SL"), ident("xy = yx^2")).holds
    assert decide(V("SL"), ident("xy = yx")).holds
    # sides with different letters: only group varieties satisfy these
    assert not decide(V("SL"), ident("xy = x")).holds
    assert not decide(V("SL"), ident("x = y")).holds


def test_c2_counts_occurrences_up_to_two():
    assert decide(V("C2"), ident("xy = yx")).holds
    assert decide(V("C2"), ident("x^2y = yx^3")).holds
    assert not decide(V("C2"), ident("xy = yx^2")).holds


def test_d1_needs_equal_simple_skeletons():
    assert decide(V("D1"), ident("xyx = x^2y")).holds
    assert not decide(V("D1"), ident("xty^2 = txy^2")).holds


def test_e_compares_first_restrictors_at_level_zero():
    assert decide(V("E"), ident("x^2y = xyx")).holds
    assert not decide(V("E"), ident("xyx = yx^2")).holds


def test_lrb_compares_first_occurrence_orders():
    assert decide(V("LRB"), ident("xy = xyx")).holds
    assert not decide(V("LRB"), ident("xy = yx")).holds
    assert not decide(V("RRB"), ident("xy = xyx")).holds
    assert decide(V("RRB"), ident("yx^2y = xy")).holds


# ---------------------------------------------------------------- decide: worked examples

# Each pair below separates two adjacent members of the chain: the lower
# variety accepts the identity, the next one rejects it for the stated
# reason.


def test_alpha_separates_f1_from_h1():
    a1 = alpha(1)
    assert decide(V("F1"), a1).holds
    verdict = decide(V("H1"), a1)
    assert not verdict.holds
    reason = verdict.reasons[0]
    assert reason.claim == "h1-depth@1"
    assert reason.letter == Letter("x", 1)
    assert "λ" in reason.detail and "y1" in reason.detail


def test_beta_separates_h2_from_i2():
    b2 = beta(2)
    assert decide(V("H2"), b2).holds
    verdict = decide(V("I2"), b2)
    assert not verdict.holds
    reason = verdict.reasons[0]
    assert reason.claim == "h1@2"
    assert reason.letter == Letter("x")
    assert "λ" in reason.detail and "x2" in reason.detail


def test_gamma_separates_i2_from_j21():
    g2 = gamma(2)
    assert decide(V("I2"), g2).holds
    verdict = decide(V("J2.1"), g2)
    assert not verdict.holds
    reason = verdict.reasons[0]
    assert reason.claim == "h2-depth@2:1"
    assert reason.letter == Letter("y", 1)
    assert "x2" in reason.detail and "y0" in reason.detail


def test_delta_separates_j22_from_f3():
    d22 = delta(2, 2)
    assert decide(V("J2.2"), d22).holds
    verdict = decide(V("F3"), d22)
    assert not verdict.holds
    reason = verdict.reasons[0]
    assert reason.claim == "h1h2@2"
    assert reason.letter == Letter("y", 3)
    assert "x2" in reason.detail and "y2" in reason.detail


@pytest.mark.parametrize("k", [1, 2, 3])
def test_defining_identities_are_accepted(k):
    assert decide(V(f"F{k}"), alpha(k)).holds
    assert decide(V(f"H{k}"), beta(k)).holds
    assert decide(V(f"I{k}"), gamma(k)).holds
    for m in range(1, k + 1):
        assert decide(V(f"J{k}.{m}"), delta(k, m)).holds


@pytest.mark.parametrize("k", [1, 2, 3])
def test_band_endpoint_is_rejected_one_band_up(k):
    dkk = delta(k, k)
    assert decide(V(f"J{k}.{k}"), dkk).holds
    assert not decide(V(f"F{k+1}"), dkk).holds


def test_k_accepts_every_base_identity():
    for base in PHI:
        assert decide(V("K"), base).holds
    assert decide(V("K"), ident("xyxy = yxyx")).holds
    assert decide(V("K"), ident("x^2y^2 = y^2x^2")).holds
    assert not decide(V("K"), ident("xyx = xxy")).holds


# ---------------------------------------------------------------- decide: oracles


@pytest.mark.parametrize("name,text,expected", [
    ("C3", "x^2 = x^3", False),
    ("C3", "x^3 = x^4", True),
    ("C3", "xy = yx", True),
    ("D2", "x^2 = x^3", True),
    ("D2", "xyx = xyx^2", False),
    ("D2", "xy = yx", False),
    ("L", "x^3 = x^4", True),
    ("L", "xy = yx", False),
    ("L", "xzxyty = zxxyty", False),
    ("M", "x^3 = x^4", True),
    ("M", "xyzxty = yxzxty", False),
])
def test_oracle_backed_varieties(name, text, expected):
    assert decide(V(name), ident(text)).holds is expected


def test_oracle_failure_names_the_monoid():
    verdict = decide(V("M"), SIGMA1)
    assert not verdict.holds
    assert "S(xyzxty)" in verdict.reasons[0].detail


def test_structural_c_matches_the_oracle_route():
    rng = random.Random(7)
    letters = [Letter("x"), Letter("y")]
    for _ in range(150):
        u = Word([rng.choice(letters) for _ in range(rng.randint(0, 6))])
        w = Word([rng.choice(letters) for _ in range(rng.randint(0, 6))])
        probe = Identity(u, w)
        for n in (2, 3, 4):
            assert structural_c(n, probe) == decide(V(f"C{n}"), probe).holds
    with pytest.raises(ValueError):
        structural_c(1, ident("x = x"))


# ---------------------------------------------------------------- limit varieties


def test_limit_varieties_have_no_exact_decider():
    with pytest.raises(ValueError, match="semi_decide_d"):
        decide(V("D"), ident("x = x"))
    for name in ("N", "O"):
        with pytest.raises(ValueError):
            decide(V(name), ident("x = x"))


def test_semi_decide_d_known_answers():
    assert semi_decide_d(ident("x = x^2")) == "fails"
    assert semi_decide_d(ident("xy = yx")) == "fails"
    assert semi_decide_d(ident("x^2 = x^3")) == "holds"
    assert semi_decide_d(ident("x^2y = yx^2")) == "unknown"
    # basis identities of the limit variety must never be refuted
    for base in (SIGMA1, SIGMA2, gamma(1)):
        assert semi_decide_d(base) != "fails"
    with pytest.raises(ValueError):
        semi_decide_d(ident("x = x"), k=0)


def test_forces_group():
    # sides with different letters force a group: along the chain only T
    # satisfies them, and SL already rejects them on its content claim
    for text in ("x = y", "xy = x"):
        assert [v.name for v in chain_of(1) if decide(v, ident(text))] == ["T"]
        assert decide(V("SL"), ident(text)).reasons[0].claim == "content"
    assert decide(V("SL"), ident("xy = yx")).holds


# ---------------------------------------------------------------- the chain


def test_chain_of_one():
    assert [v.name for v in chain_of(1)] == [
        "T", "SL", "C2", "D1", "E", "F1", "H1", "I1", "J1.1", "F2",
    ]


def test_chain_of_two_extends_chain_of_one():
    names = [v.name for v in chain_of(2)]
    assert names[:9] == [v.name for v in chain_of(1)][:9]
    assert names[9:] == ["F2", "H2", "I2", "J2.1", "J2.2", "F3"]
    with pytest.raises(ValueError):
        chain_of(0)


def test_separating_witnesses_are_strict():
    chain = chain_of(3)
    for smaller, larger in zip(chain, chain[1:]):
        witness = separating_witness(smaller, larger)
        assert decide(smaller, witness).holds, (smaller.name, larger.name)
        assert not decide(larger, witness).holds, (smaller.name, larger.name)


def test_separating_witness_requires_adjacency():
    with pytest.raises(ValueError):
        separating_witness(V("T"), V("E"))


def test_chain_of_lists_the_bands():
    """T, SL, C2, D1 and E, then the band F_k, H_k, I_k, J_k.1, ...,
    J_k.k for each k <= kmax, and F_{kmax+1} last."""
    for kmax in range(1, 9):
        names = ["T", "SL", "C2", "D1", "E"]
        for k in range(1, kmax + 1):
            names += [f"F{k}", f"H{k}", f"I{k}"]
            names += [f"J{k}.{m}" for m in range(1, k + 1)]
        assert [v.name for v in chain_of(kmax)] == names + [f"F{kmax + 1}"]


def test_duals_are_not_chain_pairs():
    """alpha(1) separates F1 from H1, but F1~ and H1~ both accept it, so
    no pair with a dual gets a witness."""
    assert all(decide(V(name), alpha(1)).holds for name in ("F1~", "H1~"))
    chain = chain_of(3)
    pairs = [(a.dualized, b.dualized) for a, b in zip(chain, chain[1:])]
    pairs += [(V("F1~"), V("H1")), (V("F1"), V("H1~"))]
    assert (V("T~"), V("SL~")) in pairs
    for smaller, larger in pairs:
        message = f"{smaller} and {larger} are not adjacent in the chain"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            separating_witness(smaller, larger)


def class_groups(bases: str, max_len: int) -> list[list[Word]]:
    """All words over the letters up to the length, grouped by letter
    classes (the letters occurring once and the repeated ones)."""
    groups: dict = {}
    for w in iter_words(tuple(Letter(b) for b in bases), max_len):
        groups.setdefault((w.simple(), w.multiple()), []).append(w)
    return list(groups.values())


@lru_cache(maxsize=None)
def letter_table(w: Word, kmax: int) -> dict:
    """Each letter of w to its depth and its restrictor at every occurrence
    i <= 2 and level k <= kmax + 1, read one at a time from Profile."""
    p = profile(w)
    return {x: (p.depth(x), {(i, k): p.restrictor(x, i, k)
                             for i in range(1, min(len(pos), 2) + 1)
                             for k in range(kmax + 2)})
            for x, pos in p.positions.items()}


def reference_bits(u: Word, w: Word, kmax: int) -> dict[str, bool]:
    """Acceptance of u = w by every member of chain_of(kmax), by name,
    read letter by letter as the guarded definitions state it: h1-depth@k
    takes letters whose smaller depth on the two sides is at most k,
    h2-depth@k:m letters of left depth at most m."""
    tu, tw = letter_table(u, kmax), letter_table(w, kmax)
    letters, repeated = sorted(u.content()), sorted(u.multiple())

    def same(occurrences, k, keep=lambda x: True):
        return all(tu[x][1][i, k] == tw[x][1][i, k]
                   for i, xs in occurrences for x in xs if keep(x))

    classes = (u.simple(), u.multiple()) == (w.simple(), w.multiple())
    bits = {"T": True, "SL": u.content() == w.content(), "C2": classes,
            "D1": classes and u.delete(repeated) == w.delete(repeated),
            "E": classes and same([(1, letters)], 0)}
    for k in range(1, kmax + 2):
        f = bits[f"F{k}"] = classes and same([(1, letters), (2, repeated)], k - 1)
        bits[f"H{k}"] = f and same([(1, letters)], k,
                                   lambda x: min(tu[x][0], tw[x][0]) <= k)
        i = bits[f"I{k}"] = f and same([(1, letters)], k)
        for m in range(1, k + 1):
            bits[f"J{k}.{m}"] = i and same([(2, repeated)], k,
                                           lambda x: tu[x][0] <= m)
    return bits


def test_chain_bits_agree_with_decide():
    """chain_bits against decide, and against reference_bits, which reads
    Profile.restrictor and Profile.depth letter by letter and shares no
    code with the claim keys."""
    rng = random.Random(20260815)
    letters = [Letter("x"), Letter("y"), Letter("z")]
    probes = []
    for _ in range(200):
        u = Word([rng.choice(letters) for _ in range(rng.randint(0, 5))])
        w = Word([rng.choice(letters) for _ in range(rng.randint(0, 5))])
        probes.append((u, w, 2))
    # most random pairs differ in letter classes and stop at C2; these
    # reach the claims past it
    words = list(iter_words((Letter("x"), Letter("y")), 5))
    probes += [(u, w, 3) for u in words for w in words if u != w
               and (u.simple(), u.multiple()) == (w.simple(), w.multiple())]
    for u, w, kmax in probes:
        chain = chain_of(kmax)
        bits = chain_bits(u, w, kmax)
        assert len(bits) == len(chain)
        ref = reference_bits(u, w, kmax)
        for bit, v in zip(bits, chain):
            assert bit == decide(v, Identity(u, w)).holds, (str(u), str(w), v.name)
            assert bit == ref[v.name], (str(u), str(w), v.name)
    # The reference alone on every same-class pair over {x, y, z}: a depth
    # bound of m + 1 in J's key shows on a dozen of these pairs only.
    names = [v.name for v in chain_of(3)]
    for group in class_groups("xyz", 5):
        for u in group:
            for w in group:
                ref = reference_bits(u, w, 3)
                assert chain_bits(u, w, 3) == tuple(map(ref.get, names)), \
                    (str(u), str(w))


def test_chain_classes_fix_the_shallow_letters():
    """On F_k's class both sides have the same letters of depth at most
    k, and on I_k's class the same ones of depth at most m for every
    m <= k.  The depth claims' keys rest on this, and it makes J's
    left-side depth guard symmetric on I_k's class."""
    names = [v.name for v in chain_of(3)]
    checked = 0
    for group in class_groups("xyz", 5):
        for u in group:
            for w in group:
                du, dw = profile(u).depths, profile(w).depths
                accepted = dict(zip(names, chain_bits(u, w, 3)))
                for k in range(1, 4):
                    if not accepted[f"F{k}"]:
                        continue
                    checked += 1
                    for m in range(1, k + 1) if accepted[f"I{k}"] else (k,):
                        assert ({x for x in du if du[x] <= m}
                                == {x for x in dw if dw[x] <= m}), \
                            (str(u), str(w), k, m)
    assert checked > 1000


def test_cross_class_pairs_stop_at_c2():
    """Every member from C2 on rejects a pair of words whose letter classes
    differ, so such a pair can only show the monotone pattern T, maybe SL,
    then nothing.  This is why verify_chain compares only a sample of
    them."""
    words = list(iter_words((Letter("x"), Letter("y")), 5))
    assert [v.name for v in chain_of(3)][:3] == ["T", "SL", "C2"]
    cross = 0
    for u in words:
        for w in words:
            if (u.simple(), u.multiple()) != (w.simple(), w.multiple()):
                cross += 1
                assert not any(chain_bits(u, w, 3)[2:]), (str(u), str(w))
    assert cross == 2966


# What every claim-decided variety checks, read from the claim codes of a
# trivial identity: each one adds one claim to the variety it extends.
CLAIM_CODES = {
    "T": "trivial", "SL": "content", "C2": "letters",
    "D1": "letters, skeleton", "E": "letters, h1@0",
    "F1": "letters, h1h2@0", "H1": "letters, h1h2@0, h1-depth@1",
    "I1": "letters, h1h2@0, h1@1",
    "J1.1": "letters, h1h2@0, h1@1, h2-depth@1:1",
    "F2": "letters, h1h2@1", "H2": "letters, h1h2@1, h1-depth@2",
    "I2": "letters, h1h2@1, h1@2",
    "J2.1": "letters, h1h2@1, h1@2, h2-depth@2:1",
    "J2.2": "letters, h1h2@1, h1@2, h2-depth@2:2",
    "F3": "letters, h1h2@2", "H3": "letters, h1h2@2, h1-depth@3",
    "I3": "letters, h1h2@2, h1@3",
    "J3.1": "letters, h1h2@2, h1@3, h2-depth@3:1",
    "J3.2": "letters, h1h2@2, h1@3, h2-depth@3:2",
    "J3.3": "letters, h1h2@2, h1@3, h2-depth@3:3",
    "F4": "letters, h1h2@3",
    # xyx stabilizes at level 1
    "K": "letters, h1h2@0, h1h2@1",
}


def test_plan_rows_extend_their_parents():
    """Each member's plan row names a member earlier in the chain, so
    _accepts has its bit before it reads it, and the claims decide reads
    for the member are its parent's claims plus the one the row adds."""
    for kmax in range(1, 7):
        chain = chain_of(kmax)
        rows = _plan(kmax)
        assert len(rows) == len(chain)
        roots = []
        for n, (v, (parent, claim)) in enumerate(zip(chain, rows)):
            codes = [c.code for c in _rule(v)]
            if parent is None:
                roots.append(v.name)
                assert codes == [claim.code], v.name
            else:
                assert parent < n, (kmax, v.name)
                inherited = [c.code for c in _rule(chain[parent])]
                assert codes == inherited + [claim.code], (kmax, v.name)
        assert roots == ["T", "SL", "C2"]


def test_keys_read_one_claim_per_member(monkeypatch):
    """One key call per member and word, in chain order: 21 per word at
    kmax 3, where reading every member's claims from the root makes 57."""
    calls = []

    def count_keys(kmax):
        rows = []
        for parent, claim in _plan(kmax):
            def key(p, claim=claim):
                calls.append(claim.code)
                return claim.key(p)
            rows.append((parent, claim._replace(key=key)))
        monkeypatch.setattr(deciders, "_plan", lambda _: tuple(rows))
        return [claim.code for _, claim in rows]

    codes = count_keys(3)
    _keys(profile(pi("xyzxzy = x").lhs), 3)
    assert calls == codes and len(calls) == len(chain_of(3)) == 21
    calls.clear()
    count_keys(1)
    report = verify_chain(kmax=1, letters=2, max_len=3)
    assert report.ok and len(calls) == report.words * len(chain_of(1))


# The rest of the variety table: a root claim, an oracle, or no decider.
OTHER_CODES = {"LRB": "ini", "RRB": "ini", "C3": "oracle", "D2": "oracle",
               "L": "oracle", "M": "oracle"}


def test_claim_codes_are_pinned():
    names = [v.name for v in chain_of(3)] + ["K"]
    assert names == list(CLAIM_CODES)
    for name, codes in {**CLAIM_CODES, **OTHER_CODES}.items():
        verdict = decide(V(name), ident("xyx = xyx"))
        assert verdict.holds
        assert ", ".join(r.claim for r in verdict.reasons) == codes
    for name, code in OTHER_CODES.items():
        assert failed_claim(name, ident("x = y")) == code
    with pytest.raises(ValueError, match="^D has no exact decider; semi_decide_d"):
        decide(V("D"), ident("x = x"))
    for name in ("N", "O"):
        with pytest.raises(ValueError, match=f"^{name} has no exact decider$"):
            decide(V(name), ident("x = x"))


@pytest.mark.parametrize("letters, max_len, decided", [
    pytest.param("xy", 5, ("K",), id="xy-5"),
    pytest.param("xyz", 4, ("K",), id="xyz-4"),
    pytest.param("xy", 4, ("LRB", "RRB", "C3", "D2", "D3", "L", "M"),
                 id="xy-4"),
])
def test_deciders_are_equivalence_relations(letters, max_len, decided):
    """chain_of(2) through chain_bits, and the decided varieties through
    decide, accept a reflexive, symmetric and transitive relation on
    words."""
    words = list(iter_words(tuple(Letter(b) for b in letters), max_len))
    names = [v.name for v in chain_of(2)] + list(decided)
    accepted = {name: {u: set() for u in words} for name in names}
    for u in words:
        for w in words:
            bits = chain_bits(u, w, 2) + tuple(
                decide(V(name), Identity(u, w)).holds for name in decided)
            for name, bit in zip(names, bits):
                if bit:
                    accepted[name][u].add(w)
    for name in names:
        acc = accepted[name]
        for u in words:
            assert u in acc[u], (name, "reflexive", str(u))
            for w in acc[u]:
                assert u in acc[w], (name, "symmetric", str(u), str(w))
                # u ~ w and w ~ z give u ~ z
                assert acc[w] <= acc[u], (name, "transitive", str(u), str(w))


def test_chain_acceptance_survives_multiplication():
    """An accepted u = w stays accepted as au = aw and ua = wa for every
    letter a, as in any equational theory."""
    letters = (Letter("x"), Letter("y"))
    words = list(iter_words(letters, 4))
    for u in words:
        for w in words:
            bits = chain_bits(u, w, 2)
            for a in (Word([x]) for x in letters):
                for moved in (chain_bits(a + u, a + w, 2),
                              chain_bits(u + a, w + a, 2)):
                    assert all(b <= m for b, m in zip(bits, moved)), \
                        (str(u), str(w), str(a))


@pytest.mark.parametrize("name", ["K", "LRB", "RRB", "C3", "D2", "D3", "L", "M"])
def test_decided_acceptance_survives_multiplication(name):
    """The same for the varieties decided outside the chain, through
    decide: an accepted u = w over {x, y} up to length 4 stays accepted
    as au = aw and ua = wa."""
    v = V(name)
    letters = (Letter("x"), Letter("y"))
    words = list(iter_words(letters, 4))
    accepted = [(u, w) for u in words for w in words
                if u != w and decide(v, Identity(u, w)).holds]
    assert accepted, name
    for u, w in accepted:
        for a in (Word([x]) for x in letters):
            for moved in (Identity(a + u, a + w), Identity(u + a, w + a)):
                assert decide(v, moved).holds, (name, str(u), str(w), str(a))


def test_acceptance_survives_substitution():
    """An identity u = w over {x, y} up to length 4 that a variety accepts
    stays accepted under every substitution sending x and y to 1, x, y,
    xy, yx, xx or yxy, as in any fully invariant congruence: chain_of(2)
    through chain_bits, the other varieties through decide.  Trivial
    images are skipped and each image is decided once per variety."""
    x, y = Letter("x"), Letter("y")
    images = [Word([Letter(b) for b in text])
              for text in ("", "x", "y", "xy", "yx", "xx", "yxy")]
    xis = [{x: a, y: b} for a in images for b in images]
    words = list(iter_words((x, y), 4))
    pairs = [Identity(u, w) for u in words for w in words if u != w]

    @lru_cache(maxsize=None)
    def images_of(probe):
        return {image for xi in xis
                if (image := probe.substitute(xi)).lhs != image.rhs}

    bits = lru_cache(maxsize=None)(lambda p: chain_bits(p.lhs, p.rhs, 2))
    for probe in pairs:
        if any(bits(probe)[1:]):
            for image in images_of(probe):
                assert all(b <= a for b, a in zip(bits(probe), bits(image))), \
                    (str(probe), str(image))
    for v in map(V, ("K", "LRB", "RRB", "C3", "D2")):
        accepted = [probe for probe in pairs if decide(v, probe).holds]
        assert accepted, v.name
        for image in set().union(*map(images_of, accepted)):
            assert decide(v, image).holds, (v.name, str(image))


def test_inclusion_direction():
    """F1 is contained in H1: every identity of H1 holds in F1, and
    alpha(1) holds in F1 but not in H1."""
    pool = [Identity(u, w)
            for u in iter_words((Letter("x"), Letter("y")), 4)
            for w in iter_words((Letter("x"), Letter("y")), 4)]
    accepted = [probe for probe in pool if decide(V("H1"), probe).holds]
    assert any(probe.lhs != probe.rhs for probe in accepted)
    assert all(decide(V("F1"), probe).holds for probe in accepted)
    assert decide(V("F1"), alpha(1)).holds
    assert not decide(V("H1"), alpha(1)).holds


def test_verify_chain_small_run_is_clean():
    report = verify_chain(kmax=1, letters=2, max_len=4, cross_check=200)
    assert report.ok
    assert report.words == 31
    assert not report.violations and not report.witness_failures


def test_verify_chain_profiles_its_own_words():
    """A sweep builds one profile per word and leaves the shared cache to
    the separating witnesses, so groups larger than the cache do not
    thrash it."""
    profile.cache_clear()
    report = verify_chain(kmax=2, letters=3, max_len=6)
    assert report.ok and report.words == 1093
    assert profile.cache_info().misses < report.words


# ---------------------------------------------------------------- duality


@pytest.mark.parametrize("name", ["E", "F1", "H2", "J2.1", "C3", "L", "LRB"])
def test_dual_decides_the_reverse(name):
    rng = random.Random(99)
    letters = [Letter("x"), Letter("y"), Letter("z")]
    dual = V(name + "~") if name != "LRB" else V("RRB")
    for _ in range(40):
        u = Word([rng.choice(letters) for _ in range(rng.randint(0, 5))])
        w = Word([rng.choice(letters) for _ in range(rng.randint(0, 5))])
        probe = Identity(u, w)
        assert decide(dual, probe).holds == decide(V(name), probe.reverse()).holds


# ---------------------------------------------------------------- properties

words_strategy = st.lists(
    st.sampled_from([Letter("x"), Letter("y"), Letter("z")]),
    max_size=7,
).map(Word)


@settings(max_examples=150, deadline=None)
@given(words_strategy, words_strategy)
def test_j_varieties_are_symmetric(u, w):
    probe = Identity(u, w)
    flipped = Identity(w, u)
    for v in (V("J1.1"), V("J2.1"), V("J2.2")):
        assert decide(v, probe).holds == decide(v, flipped).holds


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("xyz"), st.integers(2, 4)),
             min_size=1, max_size=3, unique_by=lambda t: t[0]),
    st.randoms(use_true_random=False),
)
def test_k_accepts_shuffles_without_simple_letters(counts, rng):
    # equal content with every letter repeated: the refinement never moves
    # past the whole-word block, so all restrictors agree
    bag = [Letter(base) for base, count in counts for _ in range(count)]
    u = bag[:]
    w = bag[:]
    rng.shuffle(u)
    rng.shuffle(w)
    assert decide(V("K"), Identity(Word(u), Word(w))).holds


@settings(max_examples=150, deadline=None)
@given(words_strategy, words_strategy)
def test_chain_membership_is_monotone(u, w):
    probe = Identity(u, w)
    chain = chain_of(1)
    verdicts = [decide(v, probe).holds for v in chain]
    # once rejected, every later member rejects too
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert earlier or not later, str(probe)
