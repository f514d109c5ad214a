"""Exact word-problem deciders for the variety catalog.

Most varieties are decided by claims.  A claim is a key read from one
word's cached Profile, and it agrees when both sides of an identity have
equal keys: the letter set, the sets of once- and repeatedly-occurring
letters, the word left after deleting repeated letters, the order of first
or last occurrences, or the divider restrictor maps at a fixed
decomposition level, possibly kept to the letters of small depth, or at
stabilization.  A variety adds one claim to the variety it extends: it
accepts u = v when that variety accepts and its claim agrees, so each
chain member reads only its own claim's key.  One predecessor rule,
_below, lays out the chain and its separating identities.  A few varieties
are decided by brute-force evaluation in a finite generator monoid
instead.  Dual varieties reverse both sides and reuse the base decider.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Union

from .catalog import (
    ORACLE_WORD_L,
    ORACLE_WORD_M,
    alpha,
    beta,
    c_oracle_word,
    d_oracle_word,
    delta,
    gamma,
)
from .decomposition import LAMBDA, Profile, profile
from .monoids import b21, rees_quotient
from .words import Identity, Letter, Word, identity, iter_words, letter_key


@dataclass(frozen=True)
class Reason:
    """One checked claim: its code, and the mismatch details when it failed."""

    claim: str
    detail: str
    letter: Optional[Letter] = None
    level: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.claim}: {self.detail}"


@dataclass(frozen=True)
class Verdict:
    holds: bool
    reasons: tuple[Reason, ...]

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        tag = "holds" if self.holds else "fails"
        return f"{tag} [{'; '.join(str(r) for r in self.reasons)}]"


class Claim(NamedTuple):
    """One invariant of a word that a variety compares across the sides.

    key reads one side's profile, and the claim agrees when both sides'
    keys are equal.  differs builds the Reason for sides whose keys
    differ; agrees is the text reported when they are equal, or a
    function of both profiles that lists the Reasons to report.
    """

    code: str
    key: Callable[[Profile], object]
    differs: Optional[Callable[[Profile, Profile], Reason]]
    agrees: Union[str, Callable] = "agrees on both sides"


# Claims past letters are compared only on sides whose letter classes
# agree, since each variety using one extends C2, so a differs function
# finds the same letters in both sides' restrictor maps.

def _content_differs(pu: Profile, pv: Profile) -> Reason:
    odd = ", ".join(map(str, sorted(pu.con ^ pv.con, key=letter_key)))
    return Reason("content", f"letter sets differ: {{{odd}}}")


def _letters_differ(pu: Profile, pv: Profile) -> Reason:
    x = min((pu.sim ^ pv.sim) | (pu.mul ^ pv.mul), key=letter_key)
    left, right = ("once" if x in p.sim else "repeated" if x in p.mul
                   else "missing" for p in (pu, pv))
    return Reason("letters", f"{x} occurs {left} on the left but {right} "
                  "on the right", letter=x)


def _skeleton_differs(pu: Profile, pv: Profile) -> Reason:
    return Reason("skeleton", "after deleting repeated letters the sides "
                  f"read {pu.skeleton} and {pv.skeleton}")


_OCCURRENCES = ("first", "second")


def _restrictors(code: str, level: int, which: str,
                 depth: Optional[int] = None) -> Claim:
    """The restrictor map at the level of the "first" or "second"
    occurrences, or the pair of both maps ("both").  With a depth, the
    map keeps only the letters of depth at most that, that is, the
    letters whose first occurrence is a divider at that level.

    On the class a depth claim runs on, the parent's claims fix which
    letters those are, so they are the same on both sides.
    """
    i = None if which == "both" else _OCCURRENCES.index(which)

    def key(p: Profile):
        maps = p.restrictors(level)
        if i is None:
            return maps
        if depth is None:
            return maps[i]
        m = maps[i]
        return {x: m[x] for x, d in p.depths.items() if d <= depth and x in m}

    def differs(pu: Profile, pv: Profile) -> Reason:
        a, b, j = key(pu), key(pv), i
        if j is None:
            j = 0 if a[0] != b[0] else 1
            a, b = a[j], b[j]
        x = next(x for x in pu.ini if a.get(x) != b.get(x))
        ra, rb = (LAMBDA if r is None else r for r in (a[x], b[x]))
        note = (f" (left depth {int(pu.depths[x])} <= {depth})"
                if which == "second" and depth is not None else "")
        return Reason(code, f"{_OCCURRENCES[j]} restrictor of {x} at level "
                      f"{level}{note}: {ra} vs {rb}", letter=x, level=level)

    return Claim(code, key, differs)


def _h12(level: int) -> Claim:
    return _restrictors(f"h1h2@{level}", level, "both")


def _first_split(pu: Profile, pv: Profile) -> Reason:
    """h1h2 at the first level whose maps differ, found by bisection:
    maps that agree at a level agree at every level below, so the levels
    that differ come after those that agree.  The stable maps differ, so
    the first split lies at or below the later stabilization."""
    j = bisect_left(range(max(pu.stab, pv.stab)), True,
                    key=lambda j: pu.restrictors(j) != pv.restrictors(j))
    return _h12(j).differs(pu, pv)


def _order(side: str, order: Callable[[Profile], tuple[Letter, ...]]) -> Claim:
    """Both sides list their letters in the same order of first (LRB) or
    last (RRB) occurrences."""
    def differs(pu: Profile, pv: Profile) -> Reason:
        a, b = order(pu), order(pv)
        return Reason("ini", f"{side}-occurrence orders differ: "
                      f"{''.join(map(str, a))} vs {''.join(map(str, b))}")
    return Claim("ini", order, differs, f"same {side}-occurrence order")


def _last_order(p: Profile) -> tuple[Letter, ...]:
    """Letters by last occurrence, rightmost first: the reverse's ini."""
    return tuple(sorted(p.ini, key=lambda x: p.positions[x][-1], reverse=True))


@dataclass(frozen=True)
class Variety:
    """A catalog variety name: a family of the variety table, its indices
    and a dual flag.  An index of 0 is not written, so D with k = 0 is the
    limit variety and D1, D2, ... are the indexed series."""

    family: str
    k: int = 0
    m: int = 0
    dual: bool = False

    def __post_init__(self):
        row = _TABLE.get(self.family)
        if row is None:
            raise ValueError(f"unknown variety family {self.family!r}")
        if self.family == "J":
            if not 1 <= self.m <= self.k:
                raise ValueError("J needs indices k >= 1 and 1 <= m <= k")
        elif row.least is None:
            if self.k or self.m:
                raise ValueError(f"{self.family} takes no index")
        elif self.m:
            raise ValueError(f"{self.family} takes one index")
        elif self.k < row.least:
            raise ValueError(f"{self.family} needs an index >= {row.least}")

    @property
    def name(self) -> str:
        return (self.family + (str(self.k) if self.k else "")
                + (f".{self.m}" if self.m else "") + ("~" if self.dual else ""))

    def __str__(self) -> str:
        return self.name

    @property
    def base(self) -> "Variety":
        return replace(self, dual=False)

    @property
    def dualized(self) -> "Variety":
        return replace(self, dual=not self.dual)


_NAME = re.compile(r"([A-Z]+)(\d*)(?:\.(\d+))?")


@lru_cache(maxsize=256)
def parse_variety(text: str) -> Variety:
    t = text.strip().upper()
    dual = t.endswith("~")
    if dual:
        t = t[:-1]
    hit = _NAME.fullmatch(t)
    if hit and hit.group(1) in _TABLE:
        family, k, m = hit.groups()
        v = Variety(family, int(k or 0), int(m or 0), dual)
        if v.name.rstrip("~") == t:   # rejects D0 and leading zeros
            return v
    raise ValueError(
        f"cannot parse variety {text!r}; expected one of T, SL, C<n>, D<k>, "
        "D, E, F<k>, H<k>, I<k>, J<k>.<m>, K, LRB, RRB, L, M, N, O, "
        "optionally suffixed with ~ for the dual")


class Family(NamedTuple):
    """A row of the variety table: the least index of a member (None for a
    family without one) and the rule for a member v.  The rule gives the
    variety v extends (None at a root) and the one claim v adds, or the
    word whose Rees quotient decides v by brute force, or the ValueError
    text when v has no exact decider."""

    least: Optional[int]
    rule: Callable[[Variety], object]


# The variety table.  Only C2 and D1 of their series are decided by
# claims, the higher members by oracles.  K is C2 plus h1h2 at every
# level.  F_j lies in F_{j+1}, so h1h2 at a level implies it at every
# level below, and K compares the stable maps, kept from stabilization on.
_TABLE: dict[str, Family] = {
    "T": Family(None, lambda v: (None, Claim(
        "trivial", lambda p: None, None,
        "the trivial variety satisfies every identity"))),
    "SL": Family(None, lambda v: (None, Claim(
        "content", lambda p: p.con, _content_differs,
        "same letters on both sides"))),
    "C": Family(2, lambda v: (None, Claim(
        "letters", lambda p: (p.sim, p.mul), _letters_differ))
                if v.k == 2 else c_oracle_word(v.k)),
    "D": Family(0, lambda v: (
        "D has no exact decider; semi_decide_d gives a sound partial answer"
        if v.k == 0 else (_C2, Claim("skeleton", lambda p: p.skeleton,
                                     _skeleton_differs)) if v.k == 1
        else d_oracle_word(v.k))),
    "E": Family(None, lambda v: (_C2, _restrictors("h1@0", 0, "first"))),
    "F": Family(1, lambda v: (_C2, _h12(v.k - 1))),
    "H": Family(1, lambda v: (Variety("F", k=v.k), _restrictors(
        f"h1-depth@{v.k}", v.k, "first", depth=v.k))),
    "I": Family(1, lambda v: (Variety("F", k=v.k), _restrictors(
        f"h1@{v.k}", v.k, "first"))),
    "J": Family(1, lambda v: (Variety("I", k=v.k), _restrictors(
        f"h2-depth@{v.k}:{v.m}", v.k, "second", depth=v.m))),
    "K": Family(None, lambda v: (_C2, Claim(
        "h1h2", lambda p: p.restrictors(p.stab), _first_split,
        lambda pu, pv: [Reason(f"h1h2@{j}", "agrees on both sides")
                        for j in range(max(pu.stab, pv.stab) + 1)]))),
    "LRB": Family(None, lambda v: (None, _order("first", lambda p: p.ini))),
    "RRB": Family(None, lambda v: (None, _order("last", _last_order))),
    "L": Family(None, lambda v: ORACLE_WORD_L),
    "M": Family(None, lambda v: ORACLE_WORD_M),
    "N": Family(None, lambda v: "N has no exact decider"),
    "O": Family(None, lambda v: "O has no exact decider"),
}

_C2 = Variety("C", k=2)


@lru_cache(maxsize=256)
def _rule(v: Variety):
    """What decides v: its claims from the root of the table down to its
    own, an oracle word, or the ValueError text."""
    rule = _TABLE[v.family].rule(v)
    if not isinstance(rule, tuple):
        return rule
    parent, claim = rule
    return (() if parent is None else _rule(parent)) + (claim,)


def _oracle_verdict(gen: Word, ident: Identity, max_letters: int) -> Verdict:
    monoid = rees_quotient(gen)
    hit = monoid.find_violation(ident, max_letters=max_letters)
    text = (f"holds in {monoid.name} under every substitution" if hit is None
            else monoid.describe_violation(ident, hit))
    return Verdict(hit is None, (Reason("oracle", text),))


def decide(v: Variety, ident: Identity, max_letters: int = 4) -> Verdict:
    """Exact membership of the identity in the variety's equational theory.

    Raises ValueError for D, N, O and their duals, which have no exact
    decider (use semi_decide_d for D).
    """
    if v.dual:
        return decide(v.base, ident.reverse(), max_letters)
    rule = _rule(v)
    if isinstance(rule, str):
        raise ValueError(rule)
    if isinstance(rule, Word):
        return _oracle_verdict(rule, ident, max_letters)
    pu, pw = profile(ident.lhs), profile(ident.rhs)
    passed = []
    for code, key, differs, agrees in rule:
        if key(pu) != key(pw):
            return Verdict(False, (differs(pu, pw),))
        passed += (agrees(pu, pw) if callable(agrees)
                   else [Reason(code, agrees)])
    return Verdict(True, tuple(passed))


def structural_c(n: int, ident: Identity) -> bool:
    """Occurrence-count criterion for the commutative series: every letter
    occurs equally often on both sides once counts are capped at n."""
    if n < 2:
        raise ValueError("the commutative series starts at index 2")
    u, v = ident.lhs, ident.rhs
    letters = u.content() | v.content()
    return all(min(u.occ(x), n) == min(v.occ(x), n) for x in letters)


def semi_decide_d(ident: Identity, k: int = 5, max_letters: int = 4) -> str:
    """Partial decision for the limit variety D: "holds" when the Brandt
    monoid satisfies the identity (it generates a variety above D),
    "fails" when one of the first k chain oracles refutes it, otherwise
    "unknown"."""
    if k < 1:
        raise ValueError("need at least one oracle level")
    if b21().satisfies(ident, max_letters=max_letters):
        return "holds"
    for j in range(1, k + 1):
        if not rees_quotient(d_oracle_word(j)).satisfies(ident, max_letters):
            return "fails"
    return "unknown"


# The chain up to F1, each member with the sides of the identity that
# separates it from the member before it.
_START = ((Variety("T"), ()), (Variety("SL"), ("x", "y")), (_C2, ("x", "x^2")),
          (Variety("D", k=1), ("xy", "yx")), (Variety("E"), ("xyx", "yx^2")),
          (Variety("F", k=1), ("x^2y", "xyx")))


def _below(v: Variety) -> Optional[tuple[Variety, Callable[[], Identity]]]:
    """The member before v in the chain, and a thunk building the identity
    that member accepts and v rejects: α(k), β(k), γ(k) or δ(k, m) past
    F1.  None for T, for every dual and for every variety off the chain."""
    f, k, m = v.family, v.k, v.m
    if v.dual:
        return None
    if f == "F" and k > 1:
        return Variety("J", k=k - 1, m=k - 1), partial(delta, k - 1, k - 1)
    if f == "H":
        return Variety("F", k=k), partial(alpha, k)
    if f == "I":
        return Variety("H", k=k), partial(beta, k)
    if f == "J":
        return ((Variety("I", k=k), partial(gamma, k)) if m == 1 else
                (Variety("J", k=k, m=m - 1), partial(delta, k, m - 1)))
    for (lower, _), (member, sides) in zip(_START, _START[1:]):
        if v == member:
            return lower, partial(identity, *sides)
    return None


def chain_of(kmax: int) -> list[Variety]:
    """The strictly increasing chain of claim-decided varieties, read down
    by _below from F_{kmax+1}, the first member of the next band, to T."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    chain = [Variety("F", k=kmax + 1)]
    while step := _below(chain[-1]):
        chain.append(step[0])
    return chain[::-1]


def separating_witness(smaller: Variety, larger: Variety) -> Identity:
    """The identity that smaller accepts and larger rejects, when smaller
    is the member just below larger in the chain.  Raises ValueError for
    every other pair, and so for every pair with a dual."""
    step = _below(larger)
    if step is None or step[0] != smaller:
        raise ValueError(f"{smaller.name} and {larger.name} are not adjacent "
                         "in the chain")
    return step[1]()


@lru_cache(maxsize=256)
def _plan(kmax: int) -> tuple[tuple[Optional[int], Claim], ...]:
    """The table row of each member of chain_of(kmax): the index of the
    member it extends (None at a root) and the one claim it adds."""
    chain = chain_of(kmax)
    index = {v: i for i, v in enumerate(chain)}
    return tuple((None if parent is None else index[parent], claim)
                 for parent, claim in (_TABLE[v.family].rule(v) for v in chain))


def _keys(p: Profile, kmax: int) -> list:
    """Each member's key on one word: the key of the claim it adds."""
    return [claim.key(p) for _, claim in _plan(kmax)]


def _accepts(kmax: int, ku: list, kv: list) -> list[bool]:
    """Member bits of u = v from both words' _keys: a member accepts when
    the member it extends accepts and the claim it adds agrees."""
    bits: list[bool] = []
    for (parent, _), a, b in zip(_plan(kmax), ku, kv):
        bits.append((parent is None or bits[parent]) and a == b)
    return bits


def chain_bits(u: Word, v: Word, kmax: int) -> tuple[bool, ...]:
    """Acceptance of u = v by every member of chain_of(kmax), in order."""
    return tuple(_accepts(kmax, _keys(profile(u), kmax),
                          _keys(profile(v), kmax)))


@dataclass(frozen=True)
class ChainReport:
    kmax: int
    letters: int
    max_len: int
    words: int
    pairs: int
    compared: int
    violations: tuple[tuple[Identity, Variety, Variety], ...]
    witness_failures: tuple[tuple[Variety, Variety], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.witness_failures


# The most work verify_chain takes on, in units of about a microsecond of
# CPython each: one per ordered pair of words, one per member key of a
# word, and 30 per letter of each separating witness decided.  All words
# over {x, y, z} up to length 6 at kmax 3 need 1.2e6 units.
MAX_CHAIN_WORK = 2 * 10**7


def verify_chain(kmax: int = 3, letters: int = 3, max_len: int = 6,
                 cross_check: int = 2000) -> ChainReport:
    """Exhaustively confirm chain monotonicity on all identities over the
    given alphabet and length budget, and re-test every canonical
    separating witness.

    Every word's keys are read once, one per member, and _accepts turns a
    pair's keys into member bits.  Every member from C2 on accepts only
    what C2 accepts, so a pair of words whose letter classes differ is
    accepted by T, maybe SL, and nothing else, an always-monotone pattern
    (test_cross_class_pairs_stop_at_c2 pins this).  Keys are therefore
    compared only for pairs that agree on letter classes, plus an evenly
    spaced sample of cross_check disagreeing pairs as a safety net.

    Raises ValueError for a size whose work, worked out before any member
    or word is built, exceeds MAX_CHAIN_WORK.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not 1 <= letters <= 3:
        raise ValueError(f"letters must be 1, 2 or 3 (x, y, z), not {letters}")
    if max_len < 0 or cross_check < 0:
        raise ValueError("max_len and cross_check must be >= 0, not "
                         f"{max_len} and {cross_check}")
    count = sum(letters ** n for n in range(max_len + 1))
    members = 6 + 3 * kmax + kmax * (kmax + 1) // 2   # len(chain_of(kmax))
    work = count * count + count * members + 30 * members * kmax
    if work > MAX_CHAIN_WORK:
        raise ValueError(f"a chain sweep at kmax={kmax} over {count} words "
                         f"needs about {work:.1e} units of work; the bound "
                         f"is {MAX_CHAIN_WORK:.0e}")
    chain = chain_of(kmax)
    assert members == len(chain)
    alphabet = tuple(Letter(base) for base in ("x", "y", "z")[:letters])
    words = list(iter_words(alphabet, max_len))

    # The sweep owns its profiles, so it neither fills nor thrashes the
    # shared profile cache.
    profs = [Profile(w) for w in words]
    keys = [_keys(p, kmax) for p in profs]
    classes = [(p.sim, p.mul) for p in profs]
    groups: dict[tuple[frozenset, frozenset], list[int]] = {}
    for i, key in enumerate(classes):
        groups.setdefault(key, []).append(i)

    # One pair stream: same-class pairs by group, then a sample of the rest
    total = len(words) * (len(words) - 1)
    cross = total - sum(len(g) * (len(g) - 1) for g in groups.values())
    pairs = itertools.chain(
        ((i, j) for g in groups.values() for i in g for j in g if i != j),
        itertools.islice(((i, j) for i, ki in enumerate(classes)
                          for j, kj in enumerate(classes) if ki != kj),
                         0, None, max(1, cross // cross_check))
        if cross_check else ())

    violations: list[tuple[Identity, Variety, Variety]] = []
    compared = 0
    for i, j in pairs:
        compared += 1
        bits = _accepts(kmax, keys[i], keys[j])
        for n in range(1, len(bits)):
            if bits[n] and not bits[n - 1]:
                violations.append((Identity(words[i], words[j]), chain[n - 1],
                                   chain[n]))
                break

    witness_failures = []
    for small, large in zip(chain, chain[1:]):
        wit = separating_witness(small, large)
        if not (decide(small, wit).holds and not decide(large, wit).holds):
            witness_failures.append((small, large))

    return ChainReport(kmax, letters, max_len, len(words), total, compared,
                       tuple(violations), tuple(witness_failures))
