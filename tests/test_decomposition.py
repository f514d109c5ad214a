import itertools
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from monovar.decomposition import Profile, decompose, profile, render_depths
from monovar.catalog import delta, w_family, w_family_split
from monovar.words import EMPTY, L, Word, iter_words, parse_word

W = parse_word("xyxzytszxs")

letters_st = st.sampled_from([L("x"), L("y"), L("z")])
words_st = st.lists(letters_st, max_size=8).map(Word)


def test_running_example_level_0():
    assert decompose(W, 0).render() == "λ·[xyxzy]·t·[szxs]"


def test_running_example_level_1():
    assert decompose(W, 1).render() == "λ·[xyx]·z·[y]·t·[szxs]"


def test_running_example_level_2():
    assert decompose(W, 2).render() == "λ·[x]·y·[x]·z·[y]·t·[szxs]"


def test_running_example_level_3_and_beyond():
    want = "λ·[λ]·x·[λ]·y·[x]·z·[y]·t·[szxs]"
    assert decompose(W, 3).render() == want
    assert decompose(W, 7).render() == want
    assert decompose(W).render() == want
    assert profile(W).stab == 3


# Restrictors of the running example, for every letter, occurrence and
# level group. Levels 3 and 5 both exercise the "3 and beyond" column.

RESTRICTOR_TABLE = {
    "x": {0: (None, None, "t"), 1: (None, None, "t"),
          2: (None, "y", "t"), 3: (None, "y", "t"), 5: (None, "y", "t")},
    "y": {0: (None, None), 1: (None, "z"), 2: (None, "z"),
          3: ("x", "z"), 5: ("x", "z")},
    "z": {0: (None, "t"), 1: (None, "t"), 2: ("y", "t"),
          3: ("y", "t"), 5: ("y", "t")},
    "s": {0: ("t", "t"), 1: ("t", "t"), 2: ("t", "t"),
          3: ("t", "t"), 5: ("t", "t")},
    "t": {0: (None,), 1: ("z",), 2: ("z",), 3: ("z",), 5: ("z",)},
}


def test_restrictor_table_of_running_example():
    checked = 0
    for name, by_level in RESTRICTOR_TABLE.items():
        letter = L(name)
        for k, values in by_level.items():
            for i, want in enumerate(values, start=1):
                got = profile(W).restrictor(letter, i, k)
                want_letter = None if want is None else L(want)
                assert got == want_letter, (name, i, k, got)
                if k != 5:
                    checked += 1
    # four level groups (0, 1, 2, "3 and beyond") over 10 occurrences;
    # the k=5 rows re-check the unbounded group past stabilisation
    assert checked == 40


def test_restrictor_rejects_missing_occurrence():
    with pytest.raises(ValueError):
        profile(W).restrictor(L("t"), 2, 0)
    with pytest.raises(ValueError):
        profile(W).restrictor(L("q"), 1, 0)


def test_restrictors_reject_a_negative_level():
    """Both restrictor readers refuse level -1 and cache nothing for it."""
    prof = Profile(W)
    with pytest.raises(ValueError):
        prof.restrictors(-1)
    with pytest.raises(ValueError):
        prof.restrictor(L("x"), 1, -1)
    assert not prof._levels


def test_depth_profile_of_running_example():
    prof = profile(W).depth_profile()
    assert prof[L("x")] == 3
    assert prof[L("y")] == 2
    assert prof[L("z")] == 1
    assert prof[L("s")] == math.inf
    assert prof[L("t")] == 0
    assert render_depths(W) == "x:3 y:2 z:1 s:inf t:0"


def test_empty_word():
    d = decompose(EMPTY)
    assert d.render() == "λ·[λ]"
    assert profile(EMPTY).stab == 0


def test_single_letter():
    w = parse_word("x")
    assert decompose(w, 0).render() == "λ·[λ]·x·[λ]"
    assert profile(w).depth(L("x")) == 0


def test_square_word_never_splits():
    w = parse_word("xyxy")
    assert profile(w).stab == 0
    assert decompose(w).render() == "λ·[xyxy]"
    assert profile(w).depth(L("x")) == math.inf
    assert profile(w).depth(L("y")) == math.inf


# The slow reference: levels and depths straight from their definitions.

def refine_by_definition(word, dividers):
    """Inside each block, every letter occurring once in the block and
    nowhere to the left of it becomes a divider.  Each block's left set
    and letter counts are rebuilt from scratch."""
    n, letters = len(word), word.letters
    out = list(dividers)
    bounds = list(dividers) + [n + 1]
    for j in range(len(dividers)):
        lo, hi = bounds[j], bounds[j + 1]
        # block occupies positions lo+1 .. hi-1
        counts = {}
        for p in range(lo + 1, hi):
            letter = letters[p - 1]
            counts[letter] = counts.get(letter, 0) + 1
        left = set(letters[:lo])
        for p in range(lo + 1, hi):
            letter = letters[p - 1]
            if counts[letter] == 1 and letter not in left:
                out.append(p)
    return tuple(sorted(out))


def levels_by_definition(word):
    levels = [tuple(sorted([0] + [word.positions(l)[0]
                                  for l in word.simple()]))]
    while True:
        nxt = refine_by_definition(word, levels[-1])
        if nxt == levels[-1]:
            return levels
        levels.append(nxt)


def depth_by_definition(word, levels, letter):
    """1 + the first level with a divider at or after the first occurrence
    and before the second; 0 for a letter occurring once."""
    pos = word.positions(letter)
    if len(pos) == 1:
        return 0
    for k, dividers in enumerate(levels):
        if any(pos[0] <= p < pos[1] for p in dividers):
            return k + 1
    return math.inf


def restrictor_by_definition(word, dividers, p):
    """The letter of the rightmost divider strictly left of position p,
    None for the empty divider."""
    left = dividers[bisect_left(dividers, p) - 1]
    return word[left - 1] if left else None


def test_levels_and_depths_match_the_definition():
    """Birth levels give the definition's dividers, and every occurrence
    the definition's restrictor, at every level up to one past
    stabilization, on all short words over {x, y, z}, the delta words up
    to k = 24 and some deep ones, and w-family words."""
    words = list(iter_words((L("x"), L("y"), L("z")), 7))
    assert len(words) == 3280
    deltas = [(n, m) for n in range(1, 25) for m in range(1, n + 1)]
    for n, m in deltas + [(90, 1), (90, 45), (90, 90), (120, 120)]:
        words += [delta(n, m).lhs, delta(n, m).rhs]
    for n in range(1, 5):
        for pi in itertools.permutations(range(1, n + 1)):
            words += [w_family(n, pi=pi, tau=pi[::-1]),
                      w_family_split(n, 0, 0, tau=pi),
                      w_family_split(n, n // 2, n, pi=pi)]
    for w in words:
        prof = Profile(w)
        levels = levels_by_definition(w)
        assert prof.stab == len(levels) - 1, w
        past_stab = levels + levels[-1:]
        assert [prof.dividers(k) for k in range(prof.stab + 2)] == \
            past_stab, w
        for k, dividers in enumerate(past_stab):
            for letter, pos in prof.positions.items():
                assert [prof.restrictor(letter, i, k)
                        for i in range(1, len(pos) + 1)] == \
                    [restrictor_by_definition(w, dividers, p) for p in pos], \
                    (w, letter, k)
        assert list(prof.depths.items()) == [
            (l, depth_by_definition(w, levels, l))
            for l in dict.fromkeys(w.letters)], w


@given(words_st)
def test_decomposition_invariants(w):
    prof = Profile(w)
    assert prof.stab <= max(len(w), 0) + 1
    for k in range(prof.stab + 1):
        d = decompose(w, k)
        d.check()
        assert d.divider_positions[0] == 0


@given(words_st)
def test_divider_monotone_in_level(w):
    prof = Profile(w)
    for k in range(prof.stab):
        assert set(prof.dividers(k)) <= set(prof.dividers(k + 1))


@given(words_st)
def test_depth_divider_duality(w):
    """A letter heads a k-divider exactly when its depth is at most k."""
    prof = Profile(w)
    for letter in prof.con:
        d = prof.depth(letter)
        for k in range(prof.stab + 2):
            first = prof.positions[letter][0]
            assert (first in prof.dividers(k)) == (d <= k)


@given(words_st)
def test_restrictors_agree_below_split_level(w):
    """If the first two occurrences share a k-block they share all lower
    blocks as well."""
    prof = Profile(w)
    for letter in prof.mul:
        for k in range(1, prof.stab + 1):
            if prof.restrictor(letter, 1, k) == prof.restrictor(letter, 2, k):
                for r in range(k):
                    assert prof.restrictor(letter, 1, r) == prof.restrictor(letter, 2, r)


@given(words_st.filter(lambda w: len(w) > 0))
def test_last_divider_is_simple(w):
    prof = Profile(w)
    for k in range(prof.stab + 1):
        last = prof.dividers(k)[-1]
        if last != 0:
            assert prof.word.occ(prof.word[last - 1]) == 1


@given(words_st)
@settings(max_examples=60)
def test_depth_matches_block_membership(w):
    """Depth k means the first two occurrences sit in the same (k-2)-block
    but different (k-1)-blocks."""
    prof = Profile(w)
    for letter in prof.mul:
        d = prof.depth(letter)
        if d == math.inf:
            continue
        k = int(d)
        assert prof.restrictor(letter, 1, k - 1) != prof.restrictor(letter, 2, k - 1)
        if k >= 2:
            assert prof.restrictor(letter, 1, k - 2) == prof.restrictor(letter, 2, k - 2)
