import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from monovar.decomposition import profile
from monovar.words import (
    EMPTY,
    MAX_WORD_LENGTH,
    Identity,
    L,
    Letter,
    Word,
    collapsing_letters,
    identity,
    iter_matches,
    iter_words,
    letter_key,
    parse_identity,
    parse_word,
    substitute,
    word,
)

ALPHABET = [L("x"), L("y"), L("z"), L("x0"), L("x1"), L("y2")]

letters_st = st.sampled_from(ALPHABET)
words_st = st.lists(letters_st, max_size=10).map(Word)


def test_parse_simple():
    w = parse_word("xyxzytszxs")
    assert len(w) == 10
    assert str(w) == "xyxzytszxs"


def test_parse_empty_word():
    assert parse_word("1") == EMPTY
    assert str(EMPTY) == "1"
    assert parse_word(" 1 ") == EMPTY


def test_parse_indexed_letters():
    w = parse_word("x1y12x0")
    assert w.letters == (Letter("x", 1), Letter("y", 12), Letter("x", 0))


def test_parse_exponent():
    assert parse_word("x^3") == word("x", "x", "x")
    assert parse_word("x2^2y") == word("x2", "x2", "y")


def test_parse_whitespace_ignored():
    assert parse_word("x y  x") == word("x", "y", "x")


def test_parse_rejects_zero_exponent():
    with pytest.raises(ValueError):
        parse_word("x^0")


def test_parse_caps_the_word_length():
    assert len(parse_word(f"x^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
    for bad in [f"x^{MAX_WORD_LENGTH + 1}", "x^999999999",
                f"y x^{MAX_WORD_LENGTH}", "x" * (MAX_WORD_LENGTH + 1)]:
        with pytest.raises(ValueError, match="longer than"):
            parse_word(bad)


def test_parse_rejects_garbage():
    for bad in ["", "1x", "X", "x^", "x-y", "^2"]:
        with pytest.raises(ValueError):
            parse_word(bad)


_TERM = re.compile(r"([a-z])(\d*)(?:\^(\d+))?")


def reference_parse_word(text: str) -> Word:
    """The slow reference for parse_word: one regex match per term."""
    squeezed = re.sub(r"\s+", "", text)
    if squeezed == "1":
        return EMPTY
    if not squeezed:
        raise ValueError("empty input is not a word; write 1 for the empty word")
    too_long = ValueError(f"word longer than {MAX_WORD_LENGTH} letters "
                          f"in {text[:40]!r}")
    letters: list[Letter] = []
    pos = 0
    while pos < len(squeezed):
        m = _TERM.match(squeezed, pos)
        if m is None:
            raise ValueError(f"unexpected character {squeezed[pos]!r} in {text!r}")
        base, digits, exp = m.groups()
        letter = Letter(base, int(digits) if digits else None)
        count = 1
        if exp is not None:
            count = int(exp)
            if count == 0:
                raise ValueError(f"zero exponent in {text!r}")
            if len(letters) + count > MAX_WORD_LENGTH:
                raise too_long
        letters.extend([letter] * count)
        pos = m.end()
    if len(letters) > MAX_WORD_LENGTH:
        raise too_long
    return Word(letters)


def reference_parse_identity(text: str) -> Identity:
    parts = re.split(r"=|≈", text)
    if len(parts) != 2:
        raise ValueError(f"an identity needs exactly one '=': {text!r}")
    return Identity(reference_parse_word(parts[0]), reference_parse_word(parts[1]))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return str(e)


PARSE_TOKENS = ["x", "y", "z", "t", "0", "1", "2", "^", "^0", "^12",
                "^999999999", " ", "\t", "=", "X", "$"]


def test_parse_matches_the_term_by_term_reference():
    rng = random.Random(15)
    texts = ["x^", "x1^", "x^12^3", "x^0$", "x^6000y^6000x^0", "1", " ", ""]
    texts += ["".join(rng.choices(PARSE_TOKENS, k=rng.randint(1, 12)))
              for _ in range(20_000)]
    errors = 0
    for text in texts:
        want = outcome(reference_parse_word, text)
        assert outcome(parse_word, text) == want, text
        errors += isinstance(want, str)
        assert (outcome(parse_identity, text)
                == outcome(reference_parse_identity, text)), text
    # the corpus reaches both branches
    assert 0 < errors < len(texts)


def test_over_cap_text_fails_before_any_scan():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="longer than"):
        parse_word("x1" * 10**6)
    assert time.perf_counter() - start < 1.0


def test_over_cap_letter_count_reports_the_length_first():
    # The one deliberate difference from the reference: a text with more
    # than MAX_WORD_LENGTH letter characters is too long, whatever else is
    # wrong with it.
    for tail, reference_error in [("x^0", "zero exponent"),
                                  ("$", "unexpected character")]:
        text = "x" * (MAX_WORD_LENGTH + 1) + tail
        with pytest.raises(ValueError, match=reference_error):
            reference_parse_word(text)
        with pytest.raises(ValueError, match="longer than"):
            parse_word(text)


def test_parsed_letters_are_shared():
    u, v = parse_word("x y12"), parse_word("y12^2 x")
    assert u[0] is v[2] and u[1] is v[0] is v[1]


def test_iter_matches_free_end_in_search_order():
    pattern = parse_word("xyx").letters
    target = parse_word("aba").letters
    got = [(stop, {str(l): "".join(map(str, im)) for l, im in xi.items()})
           for stop, xi in iter_matches(pattern, target, 1)]
    # x and y take their shorter images first, x before y
    assert got == [(1, {"x": "", "y": ""}), (2, {"x": "", "y": "b"}),
                   (3, {"x": "", "y": "ba"})]
    stops = [stop for stop, _ in iter_matches(pattern, target)]
    assert stops == [0, 1, 2, 3, 3]


def reference_matches(pattern, target, start=0, nonempty=frozenset()):
    """The slow reference for iter_matches: the same depth-first search
    without the length budget, so a free letter grows its image up to the
    end of target and a bound letter is compared even where the rest of
    the pattern cannot fit."""
    target = tuple(target)
    m, n = len(pattern), len(target)
    # the length of each pattern position's first image when it binds
    least = [1 if letter in nonempty else 0 for letter in pattern]
    bound = {}
    # One frame per matched pattern position: where its image starts and
    # stops, and whether the letter was first bound there (only such a
    # frame can take a longer image when the search backtracks).
    frames = []
    pos = start
    while True:
        i = len(frames)
        if i == m:
            yield pos, bound
        else:
            letter = pattern[i]
            image = bound.get(letter)
            if image is None:
                stop = pos + least[i]
                if stop <= n:
                    bound[letter] = target[pos:stop]
                    frames.append((pos, stop, True))
                    pos = stop
                    continue
            else:
                stop = pos + len(image)
                if target[pos:stop] == image:
                    frames.append((pos, stop, False))
                    pos = stop
                    continue
        while frames:
            begin, stop, free = frames.pop()
            if not free:
                continue
            letter = pattern[len(frames)]
            if stop < n:
                stop += 1
                bound[letter] = target[begin:stop]
                frames.append((begin, stop, True))
                pos = stop
                break
            del bound[letter]
        else:
            return


def copied(search, pattern, target, start=0, nonempty=frozenset()):
    """A matcher's (stop, xi) list, each xi copied as it is yielded."""
    return [(stop, dict(xi))
            for stop, xi in search(pattern, target, start, nonempty)]


XYZ = [L("x"), L("y"), L("z")]
XYZT = XYZ + [L("t")]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(XYZT), max_size=6),
       st.lists(st.sampled_from(XYZT), max_size=9),
       st.sets(st.sampled_from(XYZT)), st.data())
def test_iter_matches_is_the_reference_search(pattern, target, nonempty, data):
    """The length budget cuts only subtrees without a complete match: the
    same stops and substitutions, in the same order."""
    start = data.draw(st.integers(0, len(target)))
    nonempty = frozenset(nonempty)
    assert (copied(iter_matches, pattern, target, start, nonempty)
            == copied(reference_matches, pattern, target, start, nonempty))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(XYZ), max_size=5),
       st.lists(st.sampled_from(XYZ), max_size=7),
       st.sets(st.sampled_from(XYZ)), st.data())
def test_pruned_matches_are_the_unpruned_ones_with_nonempty_images(
        pattern, target, nonempty, data):
    """The slow reference for the nonempty argument: the reference
    search's matches without it, in its order, minus those sending a
    letter of nonempty to the empty word."""
    start = data.draw(st.integers(0, len(target)))
    nonempty = frozenset(nonempty)
    got = copied(iter_matches, pattern, target, start, nonempty)
    reference = [(stop, xi)
                 for stop, xi in copied(reference_matches, pattern, target,
                                        start)
                 if all(xi[l] for l in nonempty & xi.keys())]
    assert got == reference


def text_matches(pattern, target, start=0, nonempty=""):
    """iter_matches on parsed words as (stop, {letter: image}) texts,
    checked against the reference search."""
    pattern, target = parse_word(pattern).letters, parse_word(target).letters
    nonempty = frozenset(L(c) for c in nonempty)
    got = copied(iter_matches, pattern, target, start, nonempty)
    assert got == copied(reference_matches, pattern, target, start, nonempty)
    return [(stop, {str(l): "".join(map(str, im)) for l, im in xi.items()})
            for stop, xi in got]


def test_iter_matches_budget_boundaries():
    # a start at the end of target leaves room for empty images only
    assert text_matches("xyx", "aba", 3) == [(3, {"x": "", "y": ""})]
    assert text_matches("xyx", "aba", 3, "y") == []
    # the empty pattern matches once, at every start
    for start in range(4):
        assert text_matches("1", "aba", start) == [(start, {})]
    # x, y, x need three letters: two remain after start 3, three after 2
    assert text_matches("xyx", "abcbc", 3, "xy") == []
    assert text_matches("xyx", "abcbc", 2, "xy") == [(5, {"x": "c", "y": "b"})]
    # three occurrences of x in 7 letters: images up to length 2, not 3
    assert text_matches("xxx", "a^8", 1) == [
        (1, {"x": ""}), (4, {"x": "a"}), (7, {"x": "aa"})]
    assert [(stop, xi["x"]) for stop, xi in text_matches("xxxy", "a^7", 0, "y")
            if stop == 7] == [(7, ""), (7, "a"), (7, "aa")]
    # a free letter at the last position still reaches the end of target
    assert text_matches("xy", "ab") == [
        (0, {"x": "", "y": ""}), (1, {"x": "", "y": "a"}),
        (2, {"x": "", "y": "ab"}), (1, {"x": "a", "y": ""}),
        (2, {"x": "a", "y": "b"}), (2, {"x": "ab", "y": ""})]
    # ... also after x took the longest image its two occurrences allow
    assert [(stop, xi) for stop, xi in text_matches("xyxz", "ababa", 0, "z")
            if xi["x"] == "ab"] == [(5, {"x": "ab", "y": "", "z": "a"})]


def test_budget_cuts_the_search_steps():
    """Each step of either search reads one pattern position.  Matching
    the left side of sigma1 at every start of xyxzyxzy, skipping the
    collapsing letters' empty images, the budget leaves a fifth of the
    reference's steps and the same 10 matches."""
    ident = parse_identity("xyzxty = yxzxty")
    target = parse_word("xyxzyxzy").letters
    nonempty = collapsing_letters(ident)

    def steps(search):
        reads = []

        class Pattern(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        pattern = Pattern(ident.lhs.letters)
        found = sum(len(copied(search, pattern, target, start, nonempty))
                    for start in range(len(target) + 1))
        return len(reads), found

    assert steps(iter_matches) == (161, 10)
    assert steps(reference_matches) == (788, 10)


@pytest.mark.parametrize("text, letters", [
    ("xyx = xyxx", "x"),
    ("xxyy = yyxx", "xy"),
    ("xyxzx = xyxz", "x"),
    ("xyzxty = yxzxty", "xy"),
])
def test_collapsing_letters_of_catalog_identities(text, letters):
    assert collapsing_letters(parse_identity(text)) == {L(c) for c in letters}


def test_occurrences_and_positions():
    w = parse_word("xyxzytszxs")
    x = L("x")
    assert w.occ(x) == 3
    assert w.positions(x) == (1, 3, 9)
    assert w.positions(L("t")) == (6,)
    assert w.positions(L("u")) == ()


def test_simple_multiple():
    w = parse_word("xyxzytszxs")
    assert w.simple() == {L("t")}
    assert w.multiple() == {L("x"), L("y"), L("z"), L("s")}


def test_delete_retain_partition():
    w = parse_word("xyxzytszxs")
    kept = w.delete(w.simple())
    dropped = w.delete(w.multiple())
    assert len(kept) + len(dropped) == len(w)
    assert dropped == parse_word("t")
    assert w.delete([L("x"), L("y"), L("s")]) == parse_word("ztz")


def test_ini_first_occurrence_order():
    prof = profile(parse_word("xyxzytszxs"))
    assert prof.ini == (L("x"), L("y"), L("z"), L("t"), L("s"))


def test_reverse():
    w = parse_word("xyz")
    assert w.reverse() == parse_word("zyx")
    assert w.reverse().reverse() == w


def test_substitute_empty_image():
    w = parse_word("xtyzxy")
    xi = {L("t"): EMPTY}
    assert substitute(w, xi) == parse_word("xyzxy")


def test_identity_parse_and_render():
    ident = parse_identity("xyxzx = xyxz")
    assert ident.lhs == parse_word("xyxzx")
    assert str(ident) == "xyxzx = xyxz"
    assert parse_identity("x ≈ x^2") == identity("x", "x^2")
    with pytest.raises(ValueError):
        parse_identity("x = y = z")


def test_identity_reverse():
    ident = identity("xy", "yx")
    assert ident.reverse() == identity("yx", "xy")


def test_iter_words_canonical_order():
    ws = list(iter_words([L("x"), L("y")], 2))
    assert ws[:3] == [EMPTY, parse_word("x"), parse_word("y")]
    assert ws[3:] == [parse_word(t) for t in ["xx", "xy", "yx", "yy"]]
    assert len(ws) == 7


@given(words_st)
def test_parse_render_roundtrip(w):
    assert parse_word(str(w)) == w


@given(words_st)
def test_reverse_involution(w):
    assert w.reverse().reverse() == w


@given(words_st, st.sets(letters_st))
def test_delete_retain_complement(w, s):
    # deleting s retains exactly the occurrences of the other letters
    assert len(w.delete(s)) + sum(w.occ(x) for x in s) == len(w)
    assert w.delete(s).content() == w.content() - s


@given(words_st, words_st)
def test_concat_content(u, v):
    assert (u + v).content() == u.content() | v.content()


def test_letter_key_order():
    assert letter_key(L("x")) < letter_key(L("x0")) < letter_key(L("x1"))
    assert letter_key(L("x9")) < letter_key(L("y"))
