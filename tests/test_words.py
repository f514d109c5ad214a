import pytest
from hypothesis import given, strategies as st

from monovar.decomposition import profile
from monovar.words import (
    EMPTY,
    MAX_WORD_LENGTH,
    Identity,
    L,
    Letter,
    Word,
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
