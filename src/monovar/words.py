"""Words over a countable alphabet of indexed letters, plus identities."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
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


def L(text: str) -> Letter:
    """Shorthand letter constructor, e.g. L("x2")."""
    m = re.fullmatch(r"([a-z])(\d*)", text)
    if m is None:
        raise ValueError(f"bad letter: {text!r}")
    base, digits = m.groups()
    return Letter(base, int(digits) if digits else None)


_TERM = re.compile(r"([a-z])(\d*)(?:\^(\d+))?")

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
        return (len(self.letters), tuple(letter_key(l) for l in self.letters))

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
    than MAX_WORD_LENGTH letters.
    """
    squeezed = re.sub(r"\s+", "", text)
    if squeezed == "1":
        return EMPTY
    if not squeezed:
        raise ValueError("empty input is not a word; write 1 for the empty word")
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
                raise _too_long(text)
        letters.extend([letter] * count)
        pos = m.end()
    if len(letters) > MAX_WORD_LENGTH:
        raise _too_long(text)
    return Word(letters)


def _too_long(text: str) -> ValueError:
    return ValueError(f"word longer than {MAX_WORD_LENGTH} letters "
                      f"in {text[:40]!r}")


Substitution = Mapping[Letter, Word]


def substitute(w: Word, xi: Substitution) -> Word:
    """Apply the endomorphism xi to w. Unlisted letters map to themselves.

    Mapping a letter to the empty word is allowed.
    """
    out: list[Letter] = []
    for l in w:
        image = xi.get(l)
        if image is None:
            out.append(l)
        else:
            out.extend(image.letters)
    return Word(out)


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
    parts = re.split(r"=|≈", text)
    if len(parts) != 2:
        raise ValueError(f"an identity needs exactly one '=': {text!r}")
    return Identity(parse_word(parts[0]), parse_word(parts[1]))


def identity(lhs: str, rhs: str) -> Identity:
    return Identity(parse_word(lhs), parse_word(rhs))


def iter_matches(
    pattern: Sequence[Letter], target: Sequence[Letter], start: int = 0,
) -> Iterator[tuple[int, dict[Letter, tuple[Letter, ...]]]]:
    """Every substitution xi with xi(pattern) == target[start:stop], for any
    stop, as (stop, xi).  Letters may map to the empty word; images are
    slices of target.

    Matches come depth first: the earliest pattern letter that is free to
    choose takes its shorter images first.  The yielded dict is reused and
    changes when the generator resumes, so copy it to keep it.
    """
    target = tuple(target)
    m, n = len(pattern), len(target)
    bound: dict[Letter, tuple[Letter, ...]] = {}
    # One frame per matched pattern position: where its image starts and
    # stops, and whether the letter was first bound there (only such a
    # frame can take a longer image when the search backtracks).
    frames: list[tuple[int, int, bool]] = []
    pos = start
    while True:
        i = len(frames)
        if i == m:
            yield pos, bound
        else:
            letter = pattern[i]
            image = bound.get(letter)
            if image is None:
                bound[letter] = ()
                frames.append((pos, pos, True))
                continue
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


def iter_words(alphabet: Sequence[Letter], max_len: int, min_len: int = 0) -> Iterator[Word]:
    """All words over alphabet, by length then left-to-right alphabet order."""
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield Word(combo)

