"""Finite monoids, divisibility oracles and identity satisfaction."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping, Optional

from .words import (
    Identity,
    Letter,
    Word,
    collapsing_letters,
    image_letters,
    iter_matches,
    iter_words,
    letter_key,
    parse_word,
)


# _first_violation refuses a search of more assignments than this: 21**5
# (L or M with five letters), 43**4 (D5) and 5**10 (K5) stay within it.
MAX_ASSIGNMENTS = 10**7


class Monoid:
    """A finite monoid given by a multiplication table over element labels;
    element 0 is the identity."""

    def __init__(self, name: str, labels: list[str], table: list[list[int]]):
        n = len(labels)
        assert len(table) == n and all(len(row) == n for row in table)
        self.name = name
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        self.index = {label: i for i, label in enumerate(labels)}
        assert len(self.index) == n, "duplicate element labels"

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Monoid({self.name}, {len(self)} elements)"

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def check(self) -> None:
        """Assert associativity and the identity laws."""
        n = len(self)
        for i in range(n):
            assert self.mul(0, i) == i and self.mul(i, 0) == i
        for i in range(n):
            for j in range(n):
                ij = self.mul(i, j)
                for k in range(n):
                    assert self.mul(ij, k) == self.mul(i, self.mul(j, k)), (
                        self.labels[i], self.labels[j], self.labels[k])

    def evaluate(self, w: Word, assignment: Mapping[Letter, int]) -> int:
        acc = 0
        for letter in w:
            acc = self.table[acc][assignment[letter]]
        return acc

    def _capped_letters(self, ident: Identity,
                        max_letters: int) -> tuple[Letter, ...]:
        letters = tuple(sorted(ident.content(), key=letter_key))
        if len(letters) > max_letters:
            raise ValueError(
                f"identity {ident} uses {len(letters)} letters, above the "
                f"cap of {max_letters}; pass a larger max_letters to allow "
                f"{len(self)}**{len(letters)} evaluations")
        return letters

    def find_violation(self, ident: Identity,
                       max_letters: int = 4) -> Optional[dict[Letter, int]]:
        """First assignment on which the two sides evaluate differently."""
        letters = self._capped_letters(ident, max_letters)
        return self._first_violation(ident, letters)

    def _first_violation(self, ident: Identity,
                         letters: tuple[Letter, ...]) -> Optional[dict[Letter, int]]:
        """Brute force over all len(self)**len(letters) assignments, the
        last letter's value changing fastest; the reference every faster
        check is tested against.  Raises ValueError, before evaluating
        any, when there are more than MAX_ASSIGNMENTS."""
        if len(self) ** len(letters) > MAX_ASSIGNMENTS:
            raise ValueError(f"checking {ident} in {self.name} takes "
                             f"{len(self)}**{len(letters)} assignments; the "
                             f"bound is {MAX_ASSIGNMENTS:.0e}")
        slot = {letter: i for i, letter in enumerate(letters)}
        lhs = [slot[letter] for letter in ident.lhs]
        rhs = [slot[letter] for letter in ident.rhs]
        table = self.table
        for values in itertools.product(range(len(self)), repeat=len(letters)):
            left = right = 0
            for i in lhs:
                left = table[left][values[i]]
            for i in rhs:
                right = table[right][values[i]]
            if left != right:
                return dict(zip(letters, values))
        return None

    def satisfies(self, ident: Identity, max_letters: int = 4) -> bool:
        return self.find_violation(ident, max_letters) is None

    def describe_assignment(self, assignment: Mapping[Letter, int]) -> str:
        return ", ".join(f"{l}={self.labels[i]}"
                         for l, i in sorted(assignment.items(),
                                            key=lambda kv: letter_key(kv[0])))

    def describe_violation(self, ident: Identity,
                           assignment: Mapping[Letter, int]) -> str:
        """The sentence that reports an assignment refuting ident."""
        lhs = self.labels[self.evaluate(ident.lhs, assignment)]
        rhs = self.labels[self.evaluate(ident.rhs, assignment)]
        return (f"fails in {self.name} under "
                f"{self.describe_assignment(assignment)}: {lhs} vs {rhs}")

    def dump(self) -> str:
        width = max(len(l) for l in self.labels)
        head = " " * width + " | " + " ".join(l.ljust(width) for l in self.labels)
        lines = [head, "-" * len(head)]
        for i, row in enumerate(self.table):
            cells = " ".join(self.labels[j].ljust(width) for j in row)
            lines.append(f"{self.labels[i].ljust(width)} | {cells}")
        return "\n".join(lines)


class ReesQuotient(Monoid):
    """Monoid of all contiguous subwords of one or more words, with 0 for
    any product that is not itself a subword."""

    def __init__(self, *ws: Word):
        assert ws, "at least one generator word required"
        subwords: set[Word] = set()
        for w in ws:
            n = len(w)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    subwords.add(w[i:j])
        ordered = sorted(subwords, key=lambda u: u.sort_key())
        words = [Word()] + ordered
        labels = ["1"] + [str(u) for u in ordered] + ["0"]
        zero = len(labels) - 1
        index_of = {u: i for i, u in enumerate(words)}
        table: list[list[int]] = []
        for u in words:
            row = []
            for v in words:
                row.append(index_of.get(u + v, zero))
            table.append(row)
        table.append([zero] * len(labels))
        for row in table[:-1]:
            row.append(zero)
        super().__init__(f"S({','.join(str(w) for w in ws)})", labels, table)
        self.words = ws
        self.zero_index = zero

    def find_violation(self, ident: Identity,
                       max_letters: int = 4) -> Optional[dict[Letter, int]]:
        """First assignment on which the two sides evaluate differently.

        Factor matching decides whether there is one; brute force then
        finds the first, so a refuted identity reports the same assignment
        as Monoid.find_violation.
        """
        letters = self._capped_letters(ident, max_letters)
        if not self._refutes(ident):
            return None
        hit = self._first_violation(ident, letters)
        assert hit is not None, f"{self.name}: matching refutes {ident}"
        return hit

    def satisfies(self, ident: Identity, max_letters: int = 4) -> bool:
        """Factor matching alone: no witness is needed."""
        self._capped_letters(ident, max_letters)
        return not self._refutes(ident)

    def _refutes(self, ident: Identity) -> bool:
        """S(W) satisfies u = v exactly when u and v have the same content
        and every substitution mapping one side onto a factor of a
        generator maps the other side onto the same factor (Jackson and
        Sapir, Finitely based, finite sets of words, 2000).

        A substitution sending a collapsing letter to the empty word maps
        both sides to the same word, so the search skips those; the set
        is the same in both directions and is worked out once."""
        u, v = ident.lhs, ident.rhs
        if u.content() != v.content():
            return True
        nonempty = collapsing_letters(ident)
        return (self._moves_a_factor(u, v, nonempty)
                or self._moves_a_factor(v, u, nonempty))

    def _moves_a_factor(self, u: Word, v: Word,
                        nonempty: frozenset[Letter]) -> bool:
        """Whether some substitution, with nonempty images for the letters
        of nonempty, maps u onto a factor of a generator and v onto a
        different word: one matcher run per generator, over every start.
        An empty factor sends every letter of u, so also of v, which has
        the same content, to the empty word, and never refutes."""
        for w in self.words:
            target = w.letters
            for start, stop, xi in iter_matches(u.letters, target, nonempty):
                if stop > start and \
                        image_letters(v.letters, xi) != target[start:stop]:
                    return True
        return False

    def letter_index(self, letter: Letter) -> int:
        """Index of the one-letter subword, or of zero if absent."""
        return self.index.get(str(letter), self.zero_index)


@lru_cache(maxsize=256)
def rees_quotient(*ws: Word) -> ReesQuotient:
    return ReesQuotient(*ws)


def _monoid_from_products(name: str, labels: list[str],
                          products: dict[tuple[str, str], str]) -> Monoid:
    """Table builder; "1", listed first, is the identity and "0", if
    present, absorbs."""
    def prod(a: str, b: str) -> str:
        if a == "1":
            return b
        if b == "1":
            return a
        if a == "0" or b == "0":
            return "0"
        return products[(a, b)]

    assert labels[0] == "1"
    index = {l: i for i, l in enumerate(labels)}
    table = [[index[prod(a, b)] for b in labels] for a in labels]
    return Monoid(name, labels, table)


@lru_cache(maxsize=None)
def p1() -> Monoid:
    """Four elements: an idempotent e and a-null element a with ea = 0, ae = a."""
    return _monoid_from_products("P1", ["1", "e", "a", "0"], {
        ("e", "e"): "e",
        ("e", "a"): "0",
        ("a", "e"): "a",
        ("a", "a"): "0",
    })


@lru_cache(maxsize=None)
def b21() -> Monoid:
    """The six element Brandt monoid."""
    return _monoid_from_products("B21", ["1", "a", "b", "ab", "ba", "0"], {
        ("a", "a"): "0",
        ("a", "b"): "ab",
        ("a", "ab"): "0",
        ("a", "ba"): "a",
        ("b", "a"): "ba",
        ("b", "b"): "0",
        ("b", "ab"): "b",
        ("b", "ba"): "0",
        ("ab", "a"): "a",
        ("ab", "b"): "0",
        ("ab", "ab"): "ab",
        ("ab", "ba"): "0",
        ("ba", "a"): "0",
        ("ba", "b"): "b",
        ("ba", "ab"): "0",
        ("ba", "ba"): "ba",
    })


@lru_cache(maxsize=None)
def k5() -> Monoid:
    """Five elements 1, a, b, ba, bb with aa = ab = a and bba = bbb = bb.

    K5 refutes x^2y^2 = y^2x^2 (aabb = a, bbaa = bb), so it is not in K.
    """
    return _monoid_from_products("K5", ["1", "a", "b", "ba", "bb"], {
        ("a", "a"): "a",
        ("a", "b"): "a",
        ("a", "ba"): "a",
        ("a", "bb"): "a",
        ("b", "a"): "ba",
        ("b", "b"): "bb",
        ("b", "ba"): "bb",
        ("b", "bb"): "bb",
        ("ba", "a"): "ba",
        ("ba", "b"): "ba",
        ("ba", "ba"): "ba",
        ("ba", "bb"): "ba",
        ("bb", "a"): "bb",
        ("bb", "b"): "bb",
        ("bb", "ba"): "bb",
        ("bb", "bb"): "bb",
    })


_NAMED_MONOIDS = {"P1": p1, "B21": b21, "K5": k5}


def named_monoid(name: str) -> Monoid:
    """P1, B21, K5, or S(<word>) for a subword quotient."""
    if name in _NAMED_MONOIDS:
        return _NAMED_MONOIDS[name]()
    if name.startswith("S(") and name.endswith(")"):
        return rees_quotient(parse_word(name[2:-1]))
    raise KeyError(f"unknown monoid {name!r}; use P1, B21, K5 or S(<word>)")


# isoterm_search refuses a bound whose candidate words have more letters
# than this in all; criterion 12 tries 87,296 words of 669,696 letters.
MAX_ISOTERM_LETTERS = 10**7


def isoterm_search(w: Word, monoid: Monoid, bound: int) -> Optional[Word]:
    """Look for a different word with the same content that the monoid
    cannot tell from w, trying every candidate with at most bound
    occurrences per letter.  Returns the first hit in (length, alphabet)
    order, or None.

    For a subword quotient the candidates are prescreened by evaluating
    both sides under the letter-to-itself substitution, which can only
    discard words the full check would reject.  None does not prove w is
    an isoterm, only that no witness exists within the bound.
    """
    alphabet = tuple(sorted(w.content(), key=letter_key))
    if not alphabet:
        return None
    if bound < w.max_occ():
        raise ValueError(f"bound {bound} is below the occurrence count of {w}")
    n = len(alphabet)
    letters = 0
    for k in range(n, bound * n + 1):
        letters += k * n ** k
        if letters > MAX_ISOTERM_LETTERS:
            raise ValueError(f"bound {bound} gives candidate words of more "
                             f"than {MAX_ISOTERM_LETTERS} letters in all for {w}")

    prescreen = None
    if isinstance(monoid, ReesQuotient):
        phi = {letter: monoid.letter_index(letter) for letter in alphabet}
        target = monoid.evaluate(w, phi)
        prescreen = lambda u: monoid.evaluate(u, phi) == target
    cap = max(4, len(alphabet))

    content = w.content()
    for u in iter_words(alphabet, bound * n, min_len=n):
        if u == w or u.content() != content:
            continue
        if any(u.occ(letter) > bound for letter in alphabet):
            continue
        if prescreen is not None and not prescreen(u):
            continue
        if monoid.satisfies(Identity(w, u), max_letters=cap):
            return u
    return None
