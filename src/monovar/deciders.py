"""Exact word-problem deciders for the variety catalog.

Most varieties are decided by comparing structural data of the two sides
of an identity: the sets of once- and repeatedly-occurring letters, the
word left after deleting repeated letters, and the divider restrictors at
a fixed decomposition level, optionally guarded by letter depth.  A few
varieties are decided by brute-force evaluation in a finite generator
monoid instead.  Dual varieties reverse both sides and reuse the base
decider.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Optional

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
from .decomposition import LAMBDA, profile
from .monoids import b21, rees_quotient
from .words import Identity, Letter, Word, identity, iter_words, letter_key

# Sentinel for "this side has no such occurrence"; compares unequal to both
# None (the empty divider) and any Letter.
_ABSENT = "absent"


def _show(value) -> str:
    if value is None:
        return LAMBDA
    if value is _ABSENT:
        return "absent"
    return str(value)


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


def _holds(*reasons: Reason) -> Verdict:
    return Verdict(True, reasons)


def _fails(reason: Reason) -> Verdict:
    return Verdict(False, (reason,))


class _Signature:
    """Per-word data the claim checks compare: letter classes, the
    simple-letter skeleton, depths, and restrictor maps per level."""

    __slots__ = ("word", "con", "sim", "mul", "ini", "skeleton", "depth",
                 "stab", "h1", "h2")

    def __init__(self, w: Word, levels: int):
        prof = profile(w)
        self.word = w
        self.con = prof.con
        self.sim = prof.sim
        self.mul = prof.mul
        self.ini = prof.ini
        self.skeleton = w.delete(prof.mul)
        self.depth = {x: prof.depth(x) for x in prof.con}
        self.stab = prof.stab
        self.h1 = []
        self.h2 = []
        for j in range(levels + 1):
            self.h1.append({x: prof.restrictor(x, 1, j) for x in prof.con})
            self.h2.append({x: prof.restrictor(x, 2, j) for x in prof.mul})


@lru_cache(maxsize=65536)
def _signature(w: Word, levels: int) -> _Signature:
    return _Signature(w, levels)


def _letter_order(su: _Signature, sv: _Signature) -> list[Letter]:
    """First-occurrence order in the left side, then right-side extras."""
    return list(su.ini) + [x for x in sv.ini if x not in su.con]


def _fail_sim_mul(su: _Signature, sv: _Signature) -> Optional[Reason]:
    if su.sim == sv.sim and su.mul == sv.mul:
        return None
    odd = sorted((su.sim ^ sv.sim) | (su.mul ^ sv.mul), key=letter_key)
    x = odd[0]
    def cls(s: _Signature) -> str:
        if x in s.sim:
            return "once"
        if x in s.mul:
            return "repeated"
        return "missing"
    return Reason("letters", f"{x} occurs {cls(su)} on the left but {cls(sv)} "
                  "on the right", letter=x)


def _fail_skeleton(su: _Signature, sv: _Signature) -> Optional[Reason]:
    if su.skeleton == sv.skeleton:
        return None
    return Reason("skeleton", "after deleting repeated letters the sides "
                  f"read {su.skeleton} and {sv.skeleton}")


def _h(maps: list[dict], x: Letter, level: int):
    return maps[level].get(x, _ABSENT)


def _fail_h1(su: _Signature, sv: _Signature, level: int,
             code: Optional[str] = None) -> Optional[Reason]:
    """First-occurrence restrictors at the level agree for every letter."""
    for x in _letter_order(su, sv):
        a = _h(su.h1, x, level)
        b = _h(sv.h1, x, level)
        if a != b:
            return Reason(code or f"h1@{level}",
                          f"first restrictor of {x} at level {level}: "
                          f"{_show(a)} vs {_show(b)}", letter=x, level=level)
    return None


def _fail_h12(su: _Signature, sv: _Signature, level: int) -> Optional[Reason]:
    """Both restrictors at the level agree for every letter."""
    bad = _fail_h1(su, sv, level, code=f"h1h2@{level}")
    if bad:
        return bad
    for x in _letter_order(su, sv):
        a = _h(su.h2, x, level)
        b = _h(sv.h2, x, level)
        if a != b:
            return Reason(f"h1h2@{level}",
                          f"second restrictor of {x} at level {level}: "
                          f"{_show(a)} vs {_show(b)}", letter=x, level=level)
    return None


def _fail_h1_depth(su: _Signature, sv: _Signature,
                   level: int) -> Optional[Reason]:
    """First restrictors at the level agree for letters whose depth on
    either side is at most the level."""
    for x in _letter_order(su, sv):
        if min(su.depth.get(x, math.inf), sv.depth.get(x, math.inf)) > level:
            continue
        a = _h(su.h1, x, level)
        b = _h(sv.h1, x, level)
        if a != b:
            return Reason(f"h1-depth@{level}",
                          f"first restrictor of {x} at level {level}: "
                          f"{_show(a)} vs {_show(b)}", letter=x, level=level)
    return None


def _fail_h2_depth(su: _Signature, sv: _Signature, level: int,
                   m: int) -> Optional[Reason]:
    """Second restrictors at the level agree for letters of left-side
    depth at most m."""
    for x in su.ini:
        if su.depth[x] > m:
            continue
        a = _h(su.h2, x, level)
        b = _h(sv.h2, x, level)
        if a != b:
            return Reason(f"h2-depth@{level}:{m}",
                          f"second restrictor of {x} at level {level} "
                          f"(left depth {int(su.depth[x])} <= {m}): "
                          f"{_show(a)} vs {_show(b)}", letter=x, level=level)
    return None


# Public claim predicates.

def claim_sim_mul(u: Word, v: Word) -> bool:
    """Both sides have the same once-occurring and repeated letter sets."""
    return u.simple() == v.simple() and u.multiple() == v.multiple()


def claim_simple_skeleton(u: Word, v: Word) -> bool:
    """Deleting every repeated letter of the left side equalizes the sides."""
    mul = u.multiple()
    return u.delete(mul) == v.delete(mul)


def claim_restrictor_level(u: Word, v: Word, level: int) -> bool:
    """Both restrictors agree at decomposition level - 1 for every letter."""
    if level < 1:
        raise ValueError("level must be >= 1")
    su, sv = _signature(u, level - 1), _signature(v, level - 1)
    return _fail_h12(su, sv, level - 1) is None


_SINGLETON_FAMILIES = ("T", "SL", "E", "K", "LRB", "RRB", "L", "M",
                       "D", "N", "O")
_INDEXED_FAMILIES = ("C", "DK", "F", "H", "I", "J")


@dataclass(frozen=True)
class Variety:
    """A catalog variety name: a family tag, optional indices, and a dual
    flag.  DK covers the indexed series rendered D1, D2, ...; the family D
    is the limit variety, which has no exact decider."""

    family: str
    k: int = 0
    m: int = 0
    dual: bool = False

    def __post_init__(self):
        if self.family not in _SINGLETON_FAMILIES + _INDEXED_FAMILIES:
            raise ValueError(f"unknown variety family {self.family!r}")
        if self.family == "C" and self.k < 2:
            raise ValueError("C needs an index >= 2")
        if self.family in ("DK", "F", "H", "I") and self.k < 1:
            raise ValueError(f"{self.family} needs an index >= 1")
        if self.family == "J" and not 1 <= self.m <= self.k:
            raise ValueError("J needs indices k >= 1 and 1 <= m <= k")

    @property
    def name(self) -> str:
        if self.family == "C":
            base = f"C{self.k}"
        elif self.family == "DK":
            base = f"D{self.k}"
        elif self.family == "J":
            base = f"J{self.k}.{self.m}"
        elif self.family in ("F", "H", "I"):
            base = f"{self.family}{self.k}"
        else:
            base = self.family
        return base + ("~" if self.dual else "")

    def __str__(self) -> str:
        return self.name

    @property
    def base(self) -> "Variety":
        return replace(self, dual=False)

    @property
    def dualized(self) -> "Variety":
        return replace(self, dual=not self.dual)


def parse_variety(text: str) -> Variety:
    t = text.strip().upper()
    dual = t.endswith("~")
    if dual:
        t = t[:-1]
    if t in _SINGLETON_FAMILIES:
        return Variety(t, dual=dual)
    hit = re.fullmatch(r"([CDFHI])(\d+)", t)
    if hit:
        family = {"D": "DK"}.get(hit.group(1), hit.group(1))
        return Variety(family, k=int(hit.group(2)), dual=dual)
    hit = re.fullmatch(r"J(\d+)\.(\d+)", t)
    if hit:
        return Variety("J", k=int(hit.group(1)), m=int(hit.group(2)), dual=dual)
    raise ValueError(
        f"cannot parse variety {text!r}; expected one of T, SL, C<n>, D<k>, "
        "D, E, F<k>, H<k>, I<k>, J<k>.<m>, K, LRB, RRB, L, M, N, O, "
        "optionally suffixed with ~ for the dual")


def forces_group(ident: Identity) -> bool:
    """True when the contents differ, so only group varieties satisfy it."""
    return ident.lhs.content() != ident.rhs.content()


def _oracle_verdict(gen: Word, ident: Identity, max_letters: int) -> Verdict:
    monoid = rees_quotient(gen)
    hit = monoid.find_violation(ident, max_letters=max_letters)
    if hit is None:
        return _holds(Reason("oracle", f"holds in {monoid.name} under every "
                             "substitution"))
    lhs = monoid.labels[monoid.evaluate(ident.lhs, hit)]
    rhs = monoid.labels[monoid.evaluate(ident.rhs, hit)]
    return _fails(Reason("oracle", f"fails in {monoid.name} under "
                         f"{monoid.describe_assignment(hit)}: "
                         f"{lhs} vs {rhs}"))


def _claim_verdict(ident: Identity, levels: int, checks) -> Verdict:
    su = _signature(ident.lhs, levels)
    sv = _signature(ident.rhs, levels)
    passed = []
    for code, check in checks:
        bad = check(su, sv)
        if bad:
            return _fails(bad)
        passed.append(Reason(code, "agrees on both sides"))
    return _holds(*passed)


def decide(v: Variety, ident: Identity, max_letters: int = 4) -> Verdict:
    """Exact membership of the identity in the variety's equational theory.

    Raises ValueError for D, N, O and their duals, which have no exact
    decider (use semi_decide_d for D).
    """
    if v.dual:
        return decide(v.base, ident.reverse(), max_letters)
    fam = v.family
    if fam == "T":
        return _holds(Reason("trivial", "the trivial variety satisfies "
                             "every identity"))
    if fam in ("D", "N", "O"):
        hint = "; semi_decide_d gives a sound partial answer" if fam == "D" else ""
        raise ValueError(f"{v.name} has no exact decider{hint}")
    u, w = ident.lhs, ident.rhs
    if fam == "SL":
        if u.content() == w.content():
            return _holds(Reason("content", "same letters on both sides"))
        return _fails(Reason("content", f"letter sets differ: "
                             f"{{{', '.join(map(str, sorted(u.content() ^ w.content(), key=letter_key)))}}}"))
    if fam == "LRB" or fam == "RRB":
        a, b = (u, w) if fam == "LRB" else (u.reverse(), w.reverse())
        side = "first" if fam == "LRB" else "last"
        if a.ini() == b.ini():
            return _holds(Reason("ini", f"same {side}-occurrence order"))
        return _fails(Reason("ini", f"{side}-occurrence orders differ: "
                             f"{''.join(map(str, a.ini()))} vs "
                             f"{''.join(map(str, b.ini()))}"))
    if fam == "C" and v.k >= 3:
        return _oracle_verdict(c_oracle_word(v.k), ident, max_letters)
    if fam == "DK" and v.k >= 2:
        return _oracle_verdict(d_oracle_word(v.k), ident, max_letters)
    if fam == "L":
        return _oracle_verdict(ORACLE_WORD_L, ident, max_letters)
    if fam == "M":
        return _oracle_verdict(ORACLE_WORD_M, ident, max_letters)

    checks: list[tuple[str, Callable]] = [("letters", _fail_sim_mul)]
    levels = 0
    if fam == "C":  # k == 2
        pass
    elif fam == "DK":  # k == 1
        checks.append(("skeleton", _fail_skeleton))
    elif fam == "E":
        checks.append(("h1@0", lambda a, b: _fail_h1(a, b, 0)))
    elif fam == "K":
        levels = max(profile(u).stab, profile(w).stab)
        for j in range(levels + 1):
            checks.append((f"h1h2@{j}",
                           lambda a, b, j=j: _fail_h12(a, b, j)))
    else:
        k = v.k
        levels = k
        checks.append((f"h1h2@{k - 1}",
                       lambda a, b: _fail_h12(a, b, k - 1)))
        if fam == "H":
            checks.append((f"h1-depth@{k}",
                           lambda a, b: _fail_h1_depth(a, b, k)))
        elif fam == "I":
            checks.append((f"h1@{k}", lambda a, b: _fail_h1(a, b, k)))
        elif fam == "J":
            checks.append((f"h1@{k}", lambda a, b: _fail_h1(a, b, k)))
            checks.append((f"h2-depth@{k}:{v.m}",
                           lambda a, b: _fail_h2_depth(a, b, k, v.m)))
    return _claim_verdict(ident, levels, checks)


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


def chain_of(kmax: int) -> list[Variety]:
    """The strictly increasing chain of claim-decided varieties, ending at
    the first member of the next band."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    chain = [Variety("T"), Variety("SL"), Variety("C", k=2),
             Variety("DK", k=1), Variety("E")]
    for k in range(1, kmax + 1):
        chain.append(Variety("F", k=k))
        chain.append(Variety("H", k=k))
        chain.append(Variety("I", k=k))
        for m in range(1, k + 1):
            chain.append(Variety("J", k=k, m=m))
    chain.append(Variety("F", k=kmax + 1))
    return chain


def separating_witness(smaller: Variety, larger: Variety) -> Identity:
    """An identity accepted by the smaller variety's decider and rejected
    by the larger one's, for an adjacent chain pair."""
    pair = (smaller.name, larger.name)
    early = {
        ("T", "SL"): identity("x", "y"),
        ("SL", "C2"): identity("x", "x^2"),
        ("C2", "D1"): identity("xy", "yx"),
        ("D1", "E"): identity("xyx", "yx^2"),
        ("E", "F1"): identity("x^2y", "xyx"),
    }
    if pair in early:
        return early[pair]
    a, b = smaller, larger
    if a.family == "F" and b.family == "H" and a.k == b.k:
        return alpha(a.k)
    if a.family == "H" and b.family == "I" and a.k == b.k:
        return beta(a.k)
    if a.family == "I" and b.family == "J" and (b.k, b.m) == (a.k, 1):
        return gamma(a.k)
    if a.family == "J" and b.family == "J" and a.k == b.k and b.m == a.m + 1:
        return delta(a.k, a.m)
    if a.family == "J" and a.m == a.k and b.family == "F" and b.k == a.k + 1:
        return delta(a.k, a.k)
    raise ValueError(f"{smaller.name} and {larger.name} are not adjacent "
                     "in the chain")


def chain_bits(u: Word, v: Word, kmax: int) -> tuple[bool, ...]:
    """Acceptance of u = v by every decider in chain_of(kmax), in order.

    Equivalent to calling decide for each chain member but sharing all
    per-word data, so bulk runs stay fast.
    """
    su = _signature(u, kmax)
    sv = _signature(v, kmax)
    con_eq = su.con == sv.con
    if su.sim != sv.sim or su.mul != sv.mul:
        # Everything from C2 up checks the letter classes first.
        return (True, con_eq) + (False,) * (len(chain_of(kmax)) - 2)
    h12_eq = [_fail_h12(su, sv, j) is None for j in range(kmax + 1)]
    h1_eq = [_fail_h1(su, sv, j) is None for j in range(kmax + 1)]
    bits = [True, con_eq, True, su.skeleton == sv.skeleton,
            h1_eq[0]]
    for k in range(1, kmax + 1):
        f = h12_eq[k - 1]
        bits.append(f)
        bits.append(f and _fail_h1_depth(su, sv, k) is None)
        i = f and h1_eq[k]
        bits.append(i)
        for m in range(1, k + 1):
            bits.append(i and _fail_h2_depth(su, sv, k, m) is None)
    bits.append(h12_eq[kmax])
    return tuple(bits)


@dataclass(frozen=True)
class InclusionReport:
    smaller: Variety
    larger: Variety
    checked: int
    accepted: int
    counterexample: Optional[Identity]

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def verify_inclusion(smaller: Variety, larger: Variety,
                     identities: Iterable[Identity],
                     limit: Optional[int] = None,
                     max_letters: int = 4) -> InclusionReport:
    """Check that every sampled identity accepted by the larger variety is
    accepted by the smaller one, stopping at the first counterexample."""
    checked = accepted = 0
    for ident in islice(identities, limit):
        checked += 1
        if decide(larger, ident, max_letters).holds:
            accepted += 1
            if not decide(smaller, ident, max_letters).holds:
                return InclusionReport(smaller, larger, checked, accepted,
                                       ident)
    return InclusionReport(smaller, larger, checked, accepted, None)


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


def verify_chain(kmax: int = 3, letters: int = 3, max_len: int = 6,
                 cross_check: int = 2000) -> ChainReport:
    """Exhaustively confirm chain monotonicity on all identities over the
    given alphabet and length budget, and re-test every canonical
    separating witness.

    Acceptance by anything above SL starts with the letter-class check, so
    a pair of words disagreeing there yields the always-monotone pattern
    (T, maybe SL, nothing else).  Full bit vectors are therefore computed
    only for pairs that agree on letter classes, plus an evenly spaced
    sample of cross_check disagreeing pairs as a safety net.
    """
    alphabet = tuple(Letter(base) for base in ("x", "y", "z")[:letters])
    words = list(iter_words(alphabet, max_len))
    chain = chain_of(kmax)

    groups: dict[tuple[frozenset, frozenset], list[Word]] = {}
    for w in words:
        groups.setdefault((w.simple(), w.multiple()), []).append(w)

    violations: list[tuple[Identity, Variety, Variety]] = []

    def run(u: Word, v: Word) -> None:
        bits = chain_bits(u, v, kmax)
        for i in range(len(bits) - 1):
            if bits[i + 1] and not bits[i]:
                violations.append((Identity(u, v), chain[i], chain[i + 1]))
                return

    compared = 0
    for group in groups.values():
        for u in group:
            for v in group:
                if u is not v:
                    compared += 1
                    run(u, v)

    total = len(words) * (len(words) - 1)
    cross = total - compared
    if cross and cross_check:
        stride = max(1, cross // cross_check)
        seen = 0
        for u in words:
            for v in words:
                if u is v or (u.simple(), u.multiple()) == (v.simple(), v.multiple()):
                    continue
                if seen % stride == 0:
                    compared += 1
                    run(u, v)
                seen += 1

    witness_failures = []
    for small, large in zip(chain, chain[1:]):
        wit = separating_witness(small, large)
        if not (decide(small, wit).holds and not decide(large, wit).holds):
            witness_failures.append((small, large))

    return ChainReport(kmax, letters, max_len, len(words), total, compared,
                       tuple(violations), tuple(witness_failures))
