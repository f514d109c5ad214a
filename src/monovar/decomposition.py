"""Block decompositions of words, divider restrictors and letter depth.

The 0-decomposition of a word cuts it at every occurrence of a letter that
appears exactly once.  Level k+1 refines level k: inside each block, every
letter that occurs exactly once in the block and nowhere to the left of the
block becomes a new divider.  Divider positions stabilise after at most
len(word) rounds.

Dividers only grow from level to level, so every position has a birth
level, the least level at which it is a divider.  A profile finds all
birth levels in one pass and reads each level it needs off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .words import Letter, Word

LAMBDA = "λ"

# A divider set is a sorted tuple of 1-based positions. Position 0 stands for
# the empty divider that precedes the whole word.


class Profile:
    """Cached per-word decomposition data shared by the deciders.

    Letter classes are read when the profile is made.  The birth levels,
    the skeleton and depths are computed on first use and then kept.  So
    is one entry per level read: the row of every position's restrictor,
    which restrictor reads, and the first- and second-occurrence maps,
    which restrictors reads, both from the same pass.
    """

    def __init__(self, word: Word):
        self.word = word
        self.positions: dict[Letter, list[int]] = {}
        for p, letter in enumerate(word.letters, 1):
            self.positions.setdefault(letter, []).append(p)
        self.ini = tuple(self.positions)
        self.con = frozenset(self.ini)
        self.sim = frozenset(l for l, pos in self.positions.items()
                             if len(pos) == 1)
        self.mul = self.con - self.sim
        self._levels: dict[int, tuple[list, tuple[dict, dict]]] = {}

    @cached_property
    def born(self) -> list[float]:
        """Birth level of positions 0 .. len(word): the least level at
        which the position is a divider, inf if it never is.

        Position 0 and the letters occurring once are born at level 0, and
        a later occurrence never is.  A first occurrence becomes a divider
        at level k+1 once a k-divider lies strictly between it and its
        second occurrence, so it is born at 1 + the least birth level
        there.  Those positions lie to its right, so one right-to-left
        pass over the first occurrences fills in every birth level.
        """
        born = [math.inf] * (len(self.word) + 1)
        born[0] = 0
        for pos in reversed(self.positions.values()):
            born[pos[0]] = 0 if len(pos) == 1 else \
                1 + min(born[pos[0] + 1:pos[1]], default=math.inf)
        return born

    @cached_property
    def stab(self) -> int:
        """The last level at which a position is born."""
        return max(b for b in self.born if b != math.inf)

    @cached_property
    def skeleton(self) -> Word:
        """The word left after deleting every repeated letter."""
        return self.word.delete(self.mul)

    @cached_property
    def depths(self) -> dict[Letter, float]:
        """Depth of every letter, in first-occurrence order: the birth
        level of its first occurrence, that is, 1 + the first level with
        a divider at or after the first occurrence and before the second;
        0 for a letter occurring once."""
        return {l: self.born[pos[0]] for l, pos in self.positions.items()}

    def _level(self, k: int) -> tuple[list, tuple[dict, dict]]:
        """Level k's row of every position's restrictor and its first- and
        second-occurrence restrictor maps, from one left-to-right pass that
        tracks the last position born at a level at most k.  Levels past
        stab are stab's."""
        if k < 0:
            raise ValueError("decomposition level must be >= 0")
        k = min(k, self.stab)
        level = self._levels.get(k)
        if level is None:
            row, last = [None], None
            for letter, b in zip(self.word.letters, self.born[1:]):
                row.append(last)
                if b <= k:
                    last = letter
            items = self.positions.items()
            level = self._levels[k] = (row, (
                {l: row[pos[0]] for l, pos in items},
                {l: row[pos[1]] for l, pos in items if len(pos) > 1}))
        return level

    def restrictors(self, k: int) -> tuple[dict, dict]:
        """First- and second-occurrence restrictor maps at level k: every
        letter, resp. every repeated letter, to its restrictor."""
        return self._level(k)[1]

    def dividers(self, k: int) -> tuple[int, ...]:
        if k < 0:
            raise ValueError("decomposition level must be >= 0")
        return tuple(p for p, b in enumerate(self.born) if b <= k)

    def restrictor(self, letter: Letter, i: int, k: int) -> Optional[Letter]:
        """Rightmost k-divider strictly left of the i-th occurrence.

        None stands for the empty divider.
        """
        pos = self.positions.get(letter)
        if pos is None or i < 1 or i > len(pos):
            raise ValueError(f"{self.word} has no occurrence {i} of {letter}")
        return self._level(k)[0][pos[i - 1]]

    def depth(self, letter: Letter) -> float:
        """Least k such that the first two occurrences fall into different
        (k-1)-blocks; 0 for a letter occurring once; inf if they never split.
        """
        if letter not in self.con:
            raise ValueError(f"{letter} does not occur in {self.word}")
        return self.depths[letter]

    def depth_profile(self) -> dict[Letter, float]:
        return dict(self.depths)


@lru_cache(maxsize=256)
def profile(word: Word) -> Profile:
    return Profile(word)


@dataclass(frozen=True)
class Decomposition:
    """A word cut into dividers and blocks at a fixed level."""

    word: Word
    k: int
    divider_positions: tuple[int, ...]

    def divider_letters(self) -> tuple[Optional[Letter], ...]:
        return tuple(None if p == 0 else self.word[p - 1]
                     for p in self.divider_positions)

    def blocks(self) -> tuple[Word, ...]:
        bounds = list(self.divider_positions) + [len(self.word) + 1]
        return tuple(self.word[bounds[j]:bounds[j + 1] - 1]
                     for j in range(len(self.divider_positions)))

    def render(self) -> str:
        parts = []
        for d, b in zip(self.divider_letters(), self.blocks()):
            parts.append(LAMBDA if d is None else str(d))
            parts.append(f"[{b}]" if len(b) else f"[{LAMBDA}]")
        return "·".join(parts)

    def check(self) -> None:
        """Structural invariants: dividers are first occurrences and the
        pieces concatenate back to the word."""
        assert self.divider_positions[0] == 0
        rebuilt: list[Letter] = []
        for p, b in zip(self.divider_positions, self.blocks()):
            if p != 0:
                letter = self.word[p - 1]
                assert self.word.positions(letter)[0] == p
                rebuilt.append(letter)
            rebuilt.extend(b.letters)
        assert Word(rebuilt) == self.word


def decompose(word: Word, k: Optional[int] = None) -> Decomposition:
    """The k-decomposition of word; k defaults to the stabilisation level."""
    prof = profile(word)
    if k is None:
        k = prof.stab
    return Decomposition(word, k, prof.dividers(k))


def render_depths(word: Word) -> str:
    """Depths with multiple letters first, each group in first-occurrence order."""
    prof = profile(word)
    ordered = [l for l in prof.ini if l in prof.mul] + \
              [l for l in prof.ini if l in prof.sim]
    def show(d: float) -> str:
        return "inf" if d == math.inf else str(int(d))
    return " ".join(f"{l}:{show(prof.depth(l))}" for l in ordered)
