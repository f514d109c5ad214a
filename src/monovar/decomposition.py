"""Block decompositions of words, divider restrictors and letter depth.

The 0-decomposition of a word cuts it at every occurrence of a letter that
appears exactly once.  Level k+1 refines level k: inside each block, every
letter that occurs exactly once in the block and nowhere to the left of the
block becomes a new divider.  Divider positions stabilise after at most
len(word) rounds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .words import Letter, Word

LAMBDA = "λ"

# A divider set is a sorted tuple of 1-based positions. Position 0 stands for
# the empty divider that precedes the whole word.


class Profile:
    """Cached per-word decomposition data shared by the deciders.

    Letter classes are read when the profile is made.  Levels, the
    skeleton, depths and the restrictor maps of each level are computed on
    first use and then kept.
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

    @cached_property
    def levels(self) -> list[tuple[int, ...]]:
        """Divider sets of levels 0 .. stab.

        Level k+1 cuts out of its k-block every letter occurring once in
        the block and nowhere to its left, that is, every first occurrence
        whose second occurrence lies past the next k-divider.  So each
        level is one scan of the repeated letters' first two occurrences.
        """
        levels = [tuple(sorted([0] + [pos[0] for pos in self.positions.values()
                                      if len(pos) == 1]))]
        spans = [(pos[0], pos[1]) for pos in self.positions.values()
                 if len(pos) > 1]
        while True:
            at = levels[-1]
            ends = at + (len(self.word) + 1,)   # the last block's end
            nxt = tuple(sorted(set(at).union(
                first for first, second in spans
                if ends[bisect_right(at, first)] < second)))
            if nxt == at:
                return levels
            levels.append(nxt)

    @cached_property
    def stab(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def skeleton(self) -> Word:
        """The word left after deleting every repeated letter."""
        return self.word.delete(self.mul)

    @cached_property
    def depths(self) -> dict[Letter, float]:
        """Depth of every letter, in first-occurrence order: 1 + the first
        level with a divider at or after the first occurrence and before
        the second, which is the level at which the first occurrence
        becomes a divider; 0 for a letter occurring once."""
        born: dict[int, int] = {}
        for lvl, dividers in enumerate(self.levels):
            for p in dividers:
                born.setdefault(p, lvl)
        return {l: 0 if len(pos) == 1 else born.get(pos[0], math.inf)
                for l, pos in self.positions.items()}

    @cached_property
    def _maps(self) -> list:
        return [None] * (self.stab + 1)

    def restrictors(self, k: int) -> tuple[dict, dict]:
        """First- and second-occurrence restrictor maps at level k: every
        letter, resp. every repeated letter, to its restrictor."""
        if k > self.stab:
            k = self.stab
        maps = self._maps[k]
        if maps is None:
            at, items = self.levels[k], self.positions.items()
            maps = self._maps[k] = (
                {l: self._before(pos[0], at) for l, pos in items},
                {l: self._before(pos[1], at) for l, pos in items if len(pos) > 1})
        return maps

    def dividers(self, k: int) -> tuple[int, ...]:
        if k < 0:
            raise ValueError("decomposition level must be >= 0")
        return self.levels[min(k, self.stab)]

    def _before(self, q: int, dividers: tuple[int, ...]) -> Optional[Letter]:
        best = dividers[bisect_left(dividers, q) - 1]
        return None if best == 0 else self.word.letters[best - 1]

    def restrictor(self, letter: Letter, i: int, k: int) -> Optional[Letter]:
        """Rightmost k-divider strictly left of the i-th occurrence.

        None stands for the empty divider.
        """
        pos = self.positions.get(letter)
        if pos is None or i < 1 or i > len(pos):
            raise ValueError(f"{self.word} has no occurrence {i} of {letter}")
        return self._before(pos[i - 1], self.dividers(k))

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
