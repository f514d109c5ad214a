"""Words over a countable alphabet of indexed letters, plus identities."""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


class Letter(NamedTuple):
    base: str
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.base
        return f"{self.base}{self.index}"

    def __repr__(self) -> str:
        return f"Letter({str(self)!r})"


def letter_key(letter: Letter) -> tuple[str, int]:
    """Total order on letters: base first, unindexed before indexed."""
    return (letter.base, -1 if letter.index is None else letter.index)


def shortlex_key(letters: Sequence[Letter]):
    """Order letter sequences by length, then letter by letter."""
    return (len(letters), tuple(letter_key(l) for l in letters))


def L(text: str) -> Letter:
    """Shorthand letter constructor, e.g. L("x2")."""
    m = re.fullmatch(r"([a-z])(\d*)", text)
    if m is None:
        raise ValueError(f"bad letter: {text!r}")
    base, digits = m.groups()
    return Letter(base, int(digits) if digits else None)


_SPACE = re.compile(r"\s+")
_PREFIX = re.compile(r"(?:[a-z]\d*(?:\^\d+)?)*")
_TERMS = re.compile(r"([a-z]\d*)(?:\^(\d+))?")
_SIDES = re.compile(r"=|≈")

# Longest word parse_word builds: far above the 245 letters of the longest
# catalog word, delta(120, 120), and low enough that x^999999999 fails at
# once instead of expanding.
MAX_WORD_LENGTH = 10_000


class Word:
    """Immutable finite word. The empty word renders as "1"."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", tuple(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i])
        return self.letters[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(str(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return shortlex_key(self.letters)

    # containment and occurrence counts

    def content(self) -> frozenset[Letter]:
        return frozenset(self.letters)

    def occ(self, letter: Letter) -> int:
        return self.letters.count(letter)

    def positions(self, letter: Letter) -> tuple[int, ...]:
        """1-based positions of all occurrences of letter."""
        return tuple(i + 1 for i, l in enumerate(self.letters) if l == letter)

    def simple(self) -> frozenset[Letter]:
        return frozenset(l for l in self.content() if self.occ(l) == 1)

    def multiple(self) -> frozenset[Letter]:
        return frozenset(l for l in self.content() if self.occ(l) >= 2)

    def max_occ(self) -> int:
        return max((self.occ(l) for l in self.content()), default=0)

    # derived words

    def delete(self, letters: Iterable[Letter]) -> "Word":
        drop = frozenset(letters)
        return Word(l for l in self.letters if l not in drop)

    def reverse(self) -> "Word":
        return Word(reversed(self.letters))


EMPTY = Word()


def word(*texts: str) -> Word:
    """Build a word from letter shorthands, e.g. word("x", "y1", "x")."""
    return Word(L(t) for t in texts)


def parse_word(text: str) -> Word:
    """Parse the word grammar: "1" or a sequence of letter terms.

    A term is a lowercase letter, optional digits (the letter index) and an
    optional positive exponent, e.g. "x", "y12", "x^3".  Whitespace is
    ignored.  A zero exponent is a syntax error, and so is a word longer
    than MAX_WORD_LENGTH letters.  One match finds the well-formed prefix
    and one findall splits it into terms.  Every term starts with one
    letter character, so a text with more than MAX_WORD_LENGTH of them is
    too long, and fails before any scan.
    """
    squeezed = _SPACE.sub("", text)
    if squeezed == "1":
        return EMPTY
    if not squeezed:
        raise ValueError("empty input is not a word; write 1 for the empty word")
    if len(squeezed) > MAX_WORD_LENGTH and sum(
            map(squeezed.count, string.ascii_lowercase)) > MAX_WORD_LENGTH:
        raise _too_long(text)
    end = _PREFIX.match(squeezed).end()
    letters: list[Letter] = []
    for name, exp in _TERMS.findall(squeezed, 0, end):
        letter = _letter(name)
        if not exp:
            letters.append(letter)
            continue
        count = int(exp)
        if count == 0:
            raise ValueError(f"zero exponent in {text!r}")
        if len(letters) + count > MAX_WORD_LENGTH:
            raise _too_long(text)
        letters.extend([letter] * count)
    if end < len(squeezed):
        raise ValueError(f"unexpected character {squeezed[end]!r} in {text!r}")
    if len(letters) > MAX_WORD_LENGTH:
        raise _too_long(text)
    return Word(letters)


@lru_cache(maxsize=1024)
def _letter(name: str) -> Letter:
    """The shared letter of a term's name, e.g. "x" or "y12"."""
    return Letter(name[0], int(name[1:]) if len(name) > 1 else None)


def _too_long(text: str) -> ValueError:
    return ValueError(f"word longer than {MAX_WORD_LENGTH} letters "
                      f"in {text[:40]!r}")


Substitution = Mapping[Letter, Word]


def image_letters(letters: Iterable[Letter],
                  xi: Mapping[Letter, Iterable[Letter]]) -> tuple[Letter, ...]:
    """The letters of xi(letters); unlisted letters map to themselves, and
    an image may be a Word or a letter tuple, the empty one included."""
    return tuple(itertools.chain.from_iterable(xi.get(l, (l,)) for l in letters))


def substitute(w: Word, xi: Substitution) -> Word:
    """Apply the endomorphism xi to w. Unlisted letters map to themselves.

    Mapping a letter to the empty word is allowed.
    """
    return Word(image_letters(w, xi))


@dataclass(frozen=True)
class Identity:
    lhs: Word
    rhs: Word

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"

    def content(self) -> frozenset[Letter]:
        return self.lhs.content() | self.rhs.content()

    def reverse(self) -> "Identity":
        return Identity(self.lhs.reverse(), self.rhs.reverse())

    def substitute(self, xi: Substitution) -> "Identity":
        return Identity(substitute(self.lhs, xi), substitute(self.rhs, xi))


def parse_identity(text: str) -> Identity:
    parts = _SIDES.split(text)
    if len(parts) != 2:
        raise ValueError(f"an identity needs exactly one '=': {text!r}")
    return Identity(parse_word(parts[0]), parse_word(parts[1]))


def identity(lhs: str, rhs: str) -> Identity:
    return Identity(parse_word(lhs), parse_word(rhs))


def collapsing_letters(ident: Identity) -> frozenset[Letter]:
    """The letters l with lhs.delete({l}) == rhs.delete({l}).

    Every substitution sending such a letter to the empty word gives the
    two sides the same image, e.g. x and y in xyzxty = yxzxty.
    """
    u, v = ident.lhs.letters, ident.rhs.letters
    return frozenset(
        l for l in set(u).union(v)
        if len(u) - u.count(l) == len(v) - v.count(l)
        and [a for a in u if a != l] == [b for b in v if b != l])


@lru_cache(maxsize=256)
def _budget_plan(pattern: tuple[Letter, ...], nonempty: frozenset[Letter]
                 ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """iter_matches' set-up for one pattern: per position, the length of
    its first image when it binds and the budget one more letter of its
    image spends (1 plus the later occurrences of its letter); then the
    least length of the whole pattern's image."""
    least = tuple(1 if letter in nonempty else 0 for letter in pattern)
    occurrences: dict[Letter, int] = {}
    cost = []
    for letter in reversed(pattern):
        occurrences[letter] = occurrences.get(letter, 0) + 1
        cost.append(occurrences[letter])
    return least, tuple(reversed(cost)), sum(least)


def iter_matches(
    pattern: Sequence[Letter], target: Sequence[Letter],
    nonempty: frozenset[Letter] = frozenset(),
) -> Iterator[tuple[int, int, dict[Letter, tuple[Letter, ...]]]]:
    """Every substitution xi with xi(pattern) == target[start:stop], for
    any factor of target, as (start, stop, xi).  Letters may map to the
    empty word, except those in nonempty; images are slices of target.

    Matches come by start, and depth first within a start: the earliest
    pattern letter that is free to choose takes its shorter images first.
    A letter of nonempty starts at length 1 instead of 0, which skips
    exactly the subtrees where it maps to the empty word and keeps the
    order of the other matches.  Callers pass the collapsing letters of an
    identity (see collapsing_letters), whose empty image only gives
    matches where both sides agree.  The yielded dict is reused and
    changes when the generator resumes, so copy it to keep it.

    A length budget cuts the search.  need is the least total length the
    unmatched pattern positions can still take: each counts its letter's
    image length if the letter is bound, else 1 or 0 as the letter is in
    nonempty or not.  The budget is len(target) - pos - need.  Binding a
    letter at its least length, or matching a bound one, moves pos up and
    need down by the same amount, so only a longer image spends budget:
    one more letter for a letter with k later occurrences spends 1 + k,
    since each of them grows too.  A letter stops growing when that would
    overspend, and the starts run up to len(target) - need only, the last
    whose budget is not negative.  No subtree so cut holds a complete
    match, and the others are searched as before, so the matches and
    their order are those of the search without the budget.
    """
    target = tuple(target)
    least, cost, need = _budget_plan(tuple(pattern), nonempty)
    m = len(pattern)
    bound: dict[Letter, tuple[Letter, ...]] = {}
    for start in range(len(target) - need + 1):
        budget = len(target) - start - need
        # One frame per matched pattern position.  A letter first bound
        # there keeps where its image starts and stops and the budget left
        # with that image, since only such a frame can take a longer image
        # when the search backtracks; popping it restores that budget.  A
        # bound letter's frame is None.  The budget never goes negative,
        # so no image runs past the end of target.
        frames: list[Optional[tuple[int, int, int]]] = []
        pos = start
        while True:
            i = len(frames)
            if i == m:
                yield start, pos, bound
            else:
                letter = pattern[i]
                image = bound.get(letter)
                if image is None:
                    stop = pos + least[i]
                    bound[letter] = target[pos:stop]
                    frames.append((pos, stop, budget))
                    pos = stop
                    continue
                stop = pos + len(image)
                if target[pos:stop] == image:
                    frames.append(None)
                    pos = stop
                    continue
            while frames:
                frame = frames.pop()
                if frame is None:
                    continue
                begin, stop, budget = frame
                i = len(frames)
                letter = pattern[i]
                if budget >= cost[i]:
                    budget -= cost[i]
                    stop += 1
                    bound[letter] = target[begin:stop]
                    frames.append((begin, stop, budget))
                    pos = stop
                    break
                del bound[letter]
            else:
                break


def iter_words(alphabet: Sequence[Letter], max_len: int, min_len: int = 0) -> Iterator[Word]:
    """All words over alphabet, by length then left-to-right alphabet order."""
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield Word(combo)

