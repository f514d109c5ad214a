import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monovar import deduction
from monovar.catalog import IDENTITY_20, PHI, SIGMA2, delta, identity_system
from monovar.deciders import decide, parse_variety
from monovar.deduction import (
    Deduction,
    RewriteStep,
    apply_step,
    bounded_derive,
    check_deduction,
    format_deduction,
    jkk_deduction,
    parse_deduction,
    step,
)
from monovar.words import (
    EMPTY,
    Identity,
    L,
    Letter,
    Word,
    iter_matches,
    iter_words,
    parse_identity,
    parse_word,
    substitute,
)
from test_words import reference_matches

pw = parse_word
pi = parse_identity


# ---------------------------------------------------------------- steps


def test_apply_step_direct():
    st20 = step(IDENTITY_20)
    assert apply_step(pw("xyxzx"), st20) == pw("xyxz")
    # the same step applied to the result goes back
    assert apply_step(pw("xyxz"), st20) == pw("xyxzx")


def test_apply_step_in_context():
    # swapping the tail of a subword via the padded swap identity
    y2, x2, x1 = Letter("y", 2), Letter("x", 2), Letter("x", 1)
    swap = step(SIGMA2, {Letter("x"): Word([y2]), Letter("t"): EMPTY,
                         Letter("y"): Word([x2]), Letter("z"): Word([x1])})
    assert apply_step(pw("y2x2x1y2x2"), swap) == pw("y2x2x1x2y2")


def test_apply_step_with_all_empty_images_is_identity():
    wiped = step(pi("xy = yx"), {Letter("x"): EMPTY, Letter("y"): EMPTY},
                 left=pw("xyx"))
    assert apply_step(pw("xyx"), wiped) == pw("xyx")


def test_apply_step_rejects_words_that_do_not_factor():
    with pytest.raises(ValueError):
        apply_step(pw("yxz"), step(IDENTITY_20))


def test_apply_twice_restores_the_word():
    st20 = step(IDENTITY_20, left=pw("t"))
    w = pw("txyxzx")
    assert apply_step(apply_step(w, st20), st20) == w


letters_xy = st.sampled_from([Letter("x"), Letter("y")])
small_words = st.lists(letters_xy, max_size=4).map(Word)


@settings(max_examples=100, deadline=None)
@given(small_words, small_words,
       st.dictionaries(st.sampled_from([Letter("x"), Letter("y")]),
                       small_words, max_size=2))
def test_substitution_is_a_homomorphism(u, w, xi):
    assert substitute(u + w, xi) == substitute(u, xi) + substitute(w, xi)
    assert substitute(EMPTY, xi) == EMPTY


# ---------------------------------------------------------------- chains


def test_single_word_deduction_checks():
    d = Deduction((pw("xyx"),))
    assert check_deduction(d).ok


def test_deduction_requires_matching_lengths():
    with pytest.raises(ValueError):
        Deduction((pw("x"), pw("y")))
    with pytest.raises(ValueError):
        Deduction((), ())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_band_endpoint_chain_replays(k):
    d = jkk_deduction(k)
    assert len(d) == 8
    assert Identity(d.start, d.end) == delta(k, k)
    report = check_deduction(d)
    assert report.ok and all(step.ok for step in report.diagnostics)


def test_band_endpoint_chain_needs_k_at_least_two():
    with pytest.raises(ValueError):
        jkk_deduction(1)


def test_every_chain_step_stays_inside_the_target_variety():
    # each elementary application uses an identity valid in J2.2, so each
    # consecutive pair must be accepted by the exact decider
    d = jkk_deduction(2)
    v = parse_variety("J2.2")
    for cur, nxt in zip(d.words, d.words[1:]):
        assert decide(v, Identity(cur, nxt)).holds


def test_corrupted_intermediate_word_is_reported():
    d = jkk_deduction(2)
    broken = Deduction(d.words[:4] + (pw("x"),) + d.words[5:], d.steps)
    report = check_deduction(broken)
    assert not report.ok
    assert {step.index for step in report.diagnostics if not step.ok} == {3, 4}


# ---------------------------------------------------------------- format


def test_deduction_round_trips_through_text():
    d = jkk_deduction(2)
    text = format_deduction(d)
    back = parse_deduction(text)
    assert back == d
    assert check_deduction(back).ok


def test_parse_deduction_error_cases():
    with pytest.raises(ValueError):
        parse_deduction("")
    with pytest.raises(ValueError):
        parse_deduction("# id=(20) xi= a=1 b=1\nxyxz")
    with pytest.raises(ValueError):
        parse_deduction("xyxzx\nxyxz")
    with pytest.raises(ValueError):
        parse_deduction("xyxzx\n# id=(20) xi= a=1 b=1")
    with pytest.raises(ValueError):
        parse_deduction("xyxzx\n# id=(20) xi=xy->z a=1 b=1\nxyxz")
    with pytest.raises(KeyError):
        parse_deduction("xyxzx\n# id=nonsense xi= a=1 b=1\nxyxz")


def test_format_needs_identity_codes():
    anonymous = step(pi("xyx = xyx^2"))
    assert anonymous.code == "phi1"
    nameless = step(pi("xzx = xz^2x"))
    d = Deduction((pw("xzx"), pw("xz^2x")), (nameless,))
    with pytest.raises(ValueError):
        format_deduction(d)


# ---------------------------------------------------------------- search


def test_bounded_derive_one_step_member():
    d = bounded_derive(PHI, pi("xyx = xyx^2"), 10, 3)
    assert d is not None and len(d) == 1
    assert check_deduction(d).ok


def test_bounded_derive_reverses_a_word_by_transpositions():
    d = bounded_derive([pi("xy = yx")], pi("xyz = zyx"), 6, 5)
    assert d is not None and len(d) == 2
    assert check_deduction(d).ok
    assert d.start == pw("xyz") and d.end == pw("zyx")


def test_bounded_derive_cannot_shrink_below_two_letters():
    assert bounded_derive([pi("x^2 = x^3")], pi("x = x^2"), 6, 5) is None


def test_bounded_derive_finds_the_collapse_identity():
    d = bounded_derive(PHI, IDENTITY_20, 7, 4)
    assert d is not None and len(d) == 3
    assert check_deduction(d).ok
    # soundness: the base system holds in the claim-decided ceiling variety,
    # so anything it derives must be accepted there
    assert decide(parse_variety("K"), Identity(d.start, d.end)).holds


def test_bounded_derive_is_deterministic():
    runs = [bounded_derive([pi("xy = yx")], pi("xyz = zyx"), 6, 5)
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_bounded_derive_trivial_goal_is_empty():
    d = bounded_derive(PHI, pi("xyx = xyx"), 5, 2)
    assert d is not None and len(d) == 0


def test_bounded_derive_validates_bounds():
    with pytest.raises(ValueError):
        bounded_derive(PHI, pi("x = x"), 0, 3)
    with pytest.raises(ValueError):
        bounded_derive(PHI, pi("x = x"), 5, 0)


def test_bounded_derive_refuses_a_search_past_its_word_bound():
    # one letter: max_len + 1 words, however long
    with pytest.raises(ValueError, match="over 1 letters up to length"):
        bounded_derive([pi("x^2 = x^3")], pi("x = x^2"), 10**9, 5)
    # y occurs on one side of x = xy only, so rewriting can write it: two
    # letters up to length 20 give 2,097,151 words
    with pytest.raises(ValueError, match="over 2 letters up to length 20"):
        bounded_derive([pi("x = xy")], pi("x = x^2"), 20, 5)
    # length 18 gives 524,287 words, within the bound
    bounded_derive([pi("x = xy")], pi("x = x^2"), 18, 2)


def test_bounded_derive_respects_max_len():
    # the only route to xyxz from xyxzx passes through a length-6 word
    assert bounded_derive(PHI, IDENTITY_20, 5, 4) is None


# The slow reference for _successors: a fresh run of the reference search,
# without collapsing letters or the length budget, on every factor w[i:j],
# keeping the matches that cover the whole factor.

def successors_by_factor(w, system, max_len):
    seen = {}
    for ident in system:
        sides = (ident.lhs, ident.rhs)
        for source, target in (sides, sides[::-1]):
            for i in range(len(w) + 1):
                for j in range(i, len(w) + 1):
                    factor = w[i:j]
                    for stop, xi in reference_matches(source.letters,
                                                      factor.letters):
                        if stop != len(factor):
                            continue
                        xi = {letter: Word(image) for letter, image in xi.items()}
                        nxt = w[:i] + substitute(target, xi) + w[j:]
                        if nxt == w or len(nxt) > max_len or nxt in seen:
                            continue
                        seen[nxt] = step(ident, xi, w[:i], w[j:])
    return sorted(seen.items(), key=lambda item: item[0].sort_key())


# In x = yx^2, yx^2 -> x reaches x from xx through the factor x (y->x,
# x->1) and through the whole word (y->1, x->x). The matcher finds the
# longer factor first; the per-factor order records the shorter one.
@pytest.mark.parametrize("name", ["phi", "phi+", "sigma", "x = yx^2"])
def test_successors_match_the_per_factor_search(name):
    system = identity_system(name) if "=" not in name else [pi(name)]
    words = list(iter_words((L("x"), L("y"), L("z")), 4))
    assert len(words) == 121
    for w in words:
        assert (deduction._successors(w, system, 6)
                == successors_by_factor(w, system, 6)), w


def test_successors_search_once_per_start_position(monkeypatch):
    calls = []

    def counting(pattern, target, start=0, nonempty=frozenset()):
        calls.append(start)
        return iter_matches(pattern, target, start, nonempty)

    monkeypatch.setattr(deduction, "iter_matches", counting)
    system = identity_system("phi+")
    w = pw("xyxzyx")
    deduction._successors(w, system, 8)
    # two sides of each of the 5 identities, one run per start 0..6
    assert len(calls) == 2 * len(system) * (len(w) + 1) == 70


def test_successors_skip_the_collapsing_letters_empty_images(monkeypatch):
    yielded = []

    def counting(*args):
        for match in iter_matches(*args):
            yielded.append(match[0])
            yield match

    monkeypatch.setattr(deduction, "iter_matches", counting)
    deduction._successors(pw("xyxzyx"), identity_system("phi+"), 8)
    # 527 without the pruning, almost all of them giving back xyxzyx
    assert len(yielded) == 17
