"""Elementary identity applications and bounded derivation search.

A derivation is a sequence of words where each consecutive pair differs by
one application of an identity from a system: the current word factors as
a·ξ(s)·b for one side s of the identity and some substitution ξ, and the
next word is a·ξ(t)·b with the other side in its place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .catalog import code_of, coded_identity
from .words import (
    EMPTY,
    Identity,
    Letter,
    Substitution,
    Word,
    iter_matches,
    letter_key,
    parse_word,
    substitute,
)


@dataclass(frozen=True)
class RewriteStep:
    """One identity application: which identity, under which substitution,
    between which context words. The direction is not stored; applying the
    step matches either side."""

    identity: Identity
    xi: tuple[tuple[Letter, Word], ...] = ()
    left: Word = EMPTY
    right: Word = EMPTY
    code: Optional[str] = None

    def __str__(self) -> str:
        pairs = ", ".join(f"{l}->{w}" for l, w in self.xi) or "id"
        return (f"{self.identity} with ({pairs}) "
                f"between {self.left} and {self.right}")


def step(
    ident: Identity,
    xi: Optional[Substitution] = None,
    left: Word = EMPTY,
    right: Word = EMPTY,
    code: Optional[str] = None,
) -> RewriteStep:
    """Build a step from a substitution mapping, normalising its order."""
    pairs = tuple(sorted((xi or {}).items(), key=lambda p: letter_key(p[0])))
    if code is None:
        code = code_of(ident)
    return RewriteStep(ident, pairs, left, right, code)


def apply_step(w: Word, st: RewriteStep) -> Word:
    """Rewrite w by the step, trying the identity in both directions."""
    xi = dict(st.xi)
    sides = (st.identity.lhs, st.identity.rhs)
    for source, target in (sides, sides[::-1]):
        if w == st.left + substitute(source, xi) + st.right:
            return st.left + substitute(target, xi) + st.right
    raise ValueError(
        f"{w} does not factor as a·ξ(s)·b for either side of {st.identity} "
        f"with the given substitution and contexts a={st.left}, b={st.right}"
    )


@dataclass(frozen=True)
class Deduction:
    """An alternating chain: words[i] is turned into words[i+1] by steps[i]."""

    words: tuple[Word, ...]
    steps: tuple[RewriteStep, ...] = ()

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a deduction needs at least one word")
        if len(self.steps) != len(self.words) - 1:
            raise ValueError("need exactly one step between consecutive words")

    @property
    def start(self) -> Word:
        return self.words[0]

    @property
    def end(self) -> Word:
        return self.words[-1]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class StepDiagnostic:
    index: int
    ok: bool
    message: str


@dataclass(frozen=True)
class DeductionReport:
    diagnostics: tuple[StepDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.diagnostics)

    def __bool__(self) -> bool:
        return self.ok


def check_deduction(d: Deduction) -> DeductionReport:
    """Replay every step and compare with the recorded next word."""
    out = []
    for i, (cur, nxt, st) in enumerate(zip(d.words, d.words[1:], d.steps)):
        try:
            got = apply_step(cur, st)
        except ValueError as err:
            out.append(StepDiagnostic(i, False, str(err)))
            continue
        if got == nxt:
            out.append(StepDiagnostic(i, True, f"{cur} -> {nxt}"))
        else:
            out.append(StepDiagnostic(
                i, False, f"step {i} yields {got} but the chain records {nxt}"))
    return DeductionReport(tuple(out))


# ------------------------------------------------------------- file format

_STEP_LINE = re.compile(r"^#\s*id=(\S+)\s+xi=(\S*)\s+a=(\S+)\s+b=(\S+)\s*$")


def _parse_xi(text: str) -> dict[Letter, Word]:
    xi: dict[Letter, Word] = {}
    if not text:
        return xi
    for pair in text.split(","):
        source, arrow, image = pair.partition("->")
        if not arrow:
            raise ValueError(f"malformed substitution pair {pair!r}")
        key = parse_word(source)
        if len(key) != 1:
            raise ValueError(f"substitution source {source!r} must be one letter")
        xi[key[0]] = parse_word(image)
    return xi


def parse_deduction(text: str) -> Deduction:
    """Read the interchange format: words on their own lines, alternating
    with "# id=<code> xi=<letter>-><word>,... a=<word> b=<word>" lines."""
    words: list[Word] = []
    steps: list[RewriteStep] = []
    pending: Optional[RewriteStep] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _STEP_LINE.match(line)
            if match is None:
                raise ValueError(f"malformed step annotation: {line!r}")
            if not words:
                raise ValueError("step annotation before the first word")
            if pending is not None:
                raise ValueError("two step annotations in a row")
            code, xi_text, left_text, right_text = match.groups()
            pending = step(coded_identity(code), _parse_xi(xi_text),
                           parse_word(left_text), parse_word(right_text),
                           code=code)
        else:
            words.append(parse_word(line))
            if len(words) > 1:
                if pending is None:
                    raise ValueError(f"word {line!r} is missing its step annotation")
                steps.append(pending)
                pending = None
    if pending is not None:
        raise ValueError("dangling step annotation at end of input")
    if not words:
        raise ValueError("empty deduction text")
    return Deduction(tuple(words), tuple(steps))


def format_deduction(d: Deduction) -> str:
    """Serialise to the interchange format. Every step needs a code."""
    lines = [str(d.words[0])]
    for st, nxt in zip(d.steps, d.words[1:]):
        if st.code is None:
            raise ValueError(f"step has no identity code: {st}")
        xi_text = ",".join(f"{l}->{w}" for l, w in st.xi)
        lines.append(f"# id={st.code} xi={xi_text} a={st.left} b={st.right}")
        lines.append(str(nxt))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- derivation search


def _successors(w: Word, system: Sequence[Identity], max_len: int):
    """Deterministic list of (next word, step) one application away.

    One matcher run per start i yields every factor w[i:j] at once; a
    stable sort by stop visits the factors in the order of a loop over j.
    """
    seen: dict[Word, RewriteStep] = {}
    for ident in system:
        sides = (ident.lhs, ident.rhs)
        for source, target in (sides, sides[::-1]):
            for i in range(len(w) + 1):
                found = sorted(
                    ((stop, {letter: Word(image) for letter, image in xi.items()})
                     for stop, xi in iter_matches(source.letters, w.letters, i)),
                    key=lambda match: match[0])
                for j, xi in found:
                    nxt = w[:i] + substitute(target, xi) + w[j:]
                    if nxt == w or len(nxt) > max_len or nxt in seen:
                        continue
                    seen[nxt] = step(ident, xi, w[:i], w[j:])
    return sorted(seen.items(), key=lambda item: item[0].sort_key())


# bounded_derive refuses a search whose words could number more than
# this; the README example needs 3,280 and the derive benchmark's goals
# at most 29,524.
MAX_DERIVE_WORDS = 10**6


def bounded_derive(
    id_system: Iterable[Identity],
    goal: Identity,
    max_len: int,
    max_steps: int,
) -> Optional[Deduction]:
    """Breadth-first search for a deduction of goal.lhs into goal.rhs.

    Identities apply in both directions. None means no deduction within
    the bounds, which says nothing about derivability in general.

    A rewrite only writes letters of the goal, or letters on one side of
    a system identity only, so the search visits at most sum(k**n for n
    up to max_len) words over those k letters.  Raises ValueError when
    that exceeds MAX_DERIVE_WORDS.
    """
    if max_len < 1 or max_steps < 1:
        raise ValueError("bounds must be positive")
    system = sorted(set(id_system),
                    key=lambda i: (i.lhs.sort_key(), i.rhs.sort_key()))
    k = len(goal.content().union(
        *(i.lhs.content() ^ i.rhs.content() for i in system)))
    # past length 20 every k >= 2 is over the cap, so the sum stops there
    words = (max_len + 1 if k < 2
             else (k ** (min(max_len, 20) + 1) - 1) // (k - 1))
    if words > MAX_DERIVE_WORDS:
        raise ValueError(f"a search over {k} letters up to length {max_len} "
                         f"may visit more than {MAX_DERIVE_WORDS:.0e} words")
    start, target = goal.lhs, goal.rhs
    if start == target:
        return Deduction((start,))
    if len(start) > max_len or len(target) > max_len:
        return None
    trail: dict[Word, tuple[Word, RewriteStep]] = {}
    frontier = [start]
    visited = {start}
    for _ in range(max_steps):
        next_frontier: list[Word] = []
        for cur in frontier:
            for nxt, st in _successors(cur, system, max_len):
                if nxt in visited:
                    continue
                visited.add(nxt)
                trail[nxt] = (cur, st)
                if nxt == target:
                    return _rebuild(start, target, trail)
                next_frontier.append(nxt)
        if not next_frontier:
            return None
        frontier = sorted(next_frontier, key=Word.sort_key)
    return None


def _rebuild(start: Word, end: Word,
             trail: Mapping[Word, tuple[Word, RewriteStep]]) -> Deduction:
    words = [end]
    steps: list[RewriteStep] = []
    while words[-1] != start:
        prev, st = trail[words[-1]]
        steps.append(st)
        words.append(prev)
    return Deduction(tuple(reversed(words)), tuple(reversed(steps)))


# ----------------------------------------------- the band-endpoint replay


def jkk_deduction(k: int) -> Deduction:
    """The derivation of the band endpoint identity from the short basis.

    Starts at the left side of delta(k, k) and reaches the right side in
    eight applications of sigma2, the short basis identity, and (20).
    """
    if k < 2:
        raise ValueError("the derivation needs k >= 2")
    from .catalog import IDENTITY_20, SIGMA2, b_word, delta, jkk_basis

    x = {i: Letter("x", i) for i in range(k + 1)}
    y_k, y_k1 = Letter("y", k), Letter("y", k + 1)
    theta = jkk_basis(k)
    tail_1 = b_word(k - 1)
    tail_2 = b_word(k - 2)
    px, pt, py, pz = (Letter(b) for b in "xtyz")

    def w(*letters: Letter) -> Word:
        return Word(letters)

    words = (
        w(y_k1, y_k, x[k], y_k1, x[k - 1], x[k], y_k) + tail_1,
        w(y_k1, y_k, x[k], y_k1, x[k - 1], y_k, x[k]) + tail_1,
        w(y_k1, y_k1, y_k, x[k], x[k - 1], y_k, x[k]) + tail_1,
        w(y_k1, y_k1, y_k, x[k], x[k - 1], x[k], y_k) + tail_1,
        w(y_k1, y_k1, y_k, x[k], x[k - 1], x[k], y_k, x[k - 2], x[k],
          x[k - 1]) + tail_2,
        w(y_k1, y_k1, y_k, x[k], x[k - 1], x[k], y_k, x[k - 2], x[k],
          x[k - 1], x[k]) + tail_2,
        w(y_k1, y_k, y_k1, x[k], x[k - 1], x[k], y_k, x[k - 2], x[k],
          x[k - 1], x[k]) + tail_2,
        w(y_k1, y_k, y_k1, x[k], x[k - 1], x[k], y_k, x[k - 2], x[k],
          x[k - 1]) + tail_2,
        w(y_k1, y_k, y_k1, x[k], x[k - 1], x[k], y_k, x[k - 2],
          x[k - 1]) + tail_2,
    )
    jkk_code = f"jkk:{k}"
    steps = (
        step(SIGMA2, {px: w(y_k), pt: EMPTY, py: w(x[k]),
                      pz: w(y_k1, x[k - 1])},
             w(y_k1), tail_1, code="sigma2"),
        step(theta, {px: w(y_k1), x[k]: w(y_k, x[k])}, code=jkk_code),
        step(SIGMA2, {px: w(y_k), pt: EMPTY, py: w(x[k]), pz: w(x[k - 1])},
             w(y_k1, y_k1), tail_1, code="sigma2"),
        step(IDENTITY_20, {px: w(x[k]), py: w(x[k - 1]),
                           pz: w(y_k, x[k - 2])},
             w(y_k1, y_k1, y_k), w(x[k - 1]) + tail_2, code="(20)"),
        step(IDENTITY_20, {px: w(x[k]), py: w(y_k, x[k - 2]),
                           pz: w(x[k - 1])},
             w(y_k1, y_k1, y_k, x[k], x[k - 1]), tail_2, code="(20)"),
        step(theta, {px: w(y_k1), x[k]: w(y_k),
                     x[k - 1]: w(x[k], x[k - 1], x[k])}, code=jkk_code),
        step(IDENTITY_20, {px: w(x[k]), py: w(y_k, x[k - 2]),
                           pz: w(x[k - 1])},
             w(y_k1, y_k, y_k1, x[k], x[k - 1]), tail_2, code="(20)"),
        step(IDENTITY_20, {px: w(x[k]), py: w(x[k - 1]),
                           pz: w(y_k, x[k - 2])},
             w(y_k1, y_k, y_k1), w(x[k - 1]) + tail_2, code="(20)"),
    )
    d = Deduction(words, steps)
    endpoint = delta(k, k)
    assert d.start == endpoint.lhs and d.end == endpoint.rhs
    return d
