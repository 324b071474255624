"""Equational calculus of cartesian closed structure: its axioms, random
arrows, and the collapse construction showing that adding any unprovable
arrow equation forces all parallel arrows to coincide.

The arrow terms, their text, their translation and the decision
procedure for arrow equality are in ``checker``, which replays collapse.
Arrow equality is decided by translating both sides to lambda terms and
deciding their equality there; the translation sends identity, the
projections, evaluation and the terminal arrow to their pointwise
definitions, composition to function composition, pairing to a pointwise
pair, and currying to a two-argument abstraction over a pair.

Collapse runs the product separation on the translations of two unequal
arrows.  Under the hypothesis that the two arrows are equal (as an axiom
schema, atoms being type variables), the replayed chain derives the
equality of the two product projections at a common object, from which
any two parallel arrows are equal by the pairing laws.
"""

from __future__ import annotations

import random

from .checker import (  # noqa: F401  parse_arrow, show_arrow: the arrow text, re-bound here
    ABang, ACompose, ACurry, AEval, AId, APairing, AProj, ArrowTerm, CollapseCertificate,
    decide_ccc_eq, parse_arrow, replay_collapse, replayed, show_arrow, to_lambda,
)
from .errors import EqualArrows
from . import products as P
from . import syntax as S
from .syntax import Ty, arrow, atom, prod, TERMINAL


def arrow_type_of(f: ArrowTerm) -> tuple[Ty, Ty]:
    return f.src, f.tgt


# ---------------------------------------------------------------------------
# Axioms

def _axiom_instances(rng: random.Random):
    """One random instance of each axiom family, as (name, lhs, rhs)."""
    f = random_arrow(rng)
    yield ("reflexivity", f, f)
    yield ("identity-right", ACompose(f, AId(f.src)), f)
    yield ("identity-left", ACompose(AId(f.tgt), f), f)

    f1 = random_arrow(rng)
    g1 = random_arrow_from(f1.tgt, rng)
    h1 = random_arrow_from(g1.tgt, rng)
    yield ("associativity", ACompose(h1, ACompose(g1, f1)), ACompose(ACompose(h1, g1), f1))

    c = random_type(rng)
    f2 = random_arrow_from(c, rng)
    g2 = random_arrow_from(c, rng)
    pairing = APairing(f2, g2)
    yield ("pairing-first", ACompose(AProj(1, f2.tgt, g2.tgt), pairing), f2)
    yield ("pairing-second", ACompose(AProj(2, f2.tgt, g2.tgt), pairing), g2)

    h = APairing(random_arrow_from(c, rng), random_arrow_from(c, rng))
    a, b = h.tgt.left, h.tgt.right
    yield ("pairing-unique",
           APairing(ACompose(AProj(1, a, b), h), ACompose(AProj(2, a, b), h)), h)

    c3, a3 = random_type(rng), random_type(rng)
    f3 = random_arrow_from(prod(c3, a3), rng)
    b3 = f3.tgt
    cur = ACurry(c3, a3, f3)
    yield ("eval-curry",
           ACompose(AEval(a3, b3),
                    APairing(ACompose(cur, AProj(1, c3, a3)), AProj(2, c3, a3))), f3)

    g4 = ACurry(c3, a3, f3)
    yield ("curry-unique",
           ACurry(c3, a3,
                  ACompose(AEval(a3, b3),
                           APairing(ACompose(g4, AProj(1, c3, a3)), AProj(2, c3, a3)))), g4)

    f5 = random_arrow(rng)
    to_terminal = ACompose(ABang(f5.tgt), f5)
    yield ("terminal", to_terminal, ABang(f5.src))


def check_axioms(samples: int = 20, seed: int = 0) -> dict[str, tuple[int, int]]:
    """Check every axiom family on ``samples`` random instances; the
    report maps each family to (passes, total)."""
    rng = random.Random(seed)
    report: dict[str, list[int]] = {}
    for _ in range(samples):
        for name, lhs, rhs in _axiom_instances(rng):
            ok = decide_ccc_eq(lhs, rhs)
            got = report.setdefault(name, [0, 0])
            got[0] += int(ok)
            got[1] += 1
    return {name: (p, t) for name, (p, t) in report.items()}


# ---------------------------------------------------------------------------
# Random generation

_ATOMS = ("p", "q", "r")


def random_type(rng: random.Random, depth: int = 2) -> Ty:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return atom(rng.choice(_ATOMS))
    if roll < 0.55:
        return TERMINAL
    if roll < 0.8:
        return arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return prod(random_type(rng, depth - 1), random_type(rng, depth - 1))


def random_arrow_from(src: Ty, rng: random.Random, fuel: int = 3) -> ArrowTerm:
    """A random well-formed arrow with the given source."""
    choices = ["id", "bang"]
    if fuel > 0:
        choices += ["compose", "pairing", "curry"]
        if isinstance(src, S.TyProd):
            choices += ["proj", "proj"]
            if isinstance(src.left, S.TyArrow) and src.left.dom is src.right:
                choices += ["eval", "eval"]
    pick = rng.choice(choices)
    if pick == "id":
        return AId(src)
    if pick == "bang":
        return ABang(src)
    if pick == "proj":
        return AProj(rng.choice((1, 2)), src.left, src.right)
    if pick == "eval":
        return AEval(src.right, src.left.cod)
    if pick == "pairing":
        return APairing(random_arrow_from(src, rng, fuel - 1),
                        random_arrow_from(src, rng, fuel - 1))
    if pick == "curry":
        a = random_type(rng, 1)
        f = random_arrow_from(prod(src, a), rng, fuel - 1)
        return ACurry(src, a, f)
    mid = random_arrow_from(src, rng, fuel - 1)
    return ACompose(random_arrow_from(mid.tgt, rng, fuel - 1), mid)


def random_arrow(rng: random.Random, fuel: int = 3) -> ArrowTerm:
    return random_arrow_from(random_type(rng), rng, fuel)


# ---------------------------------------------------------------------------
# Collapse

def collapse(f: ArrowTerm, g: ArrowTerm, max_base: int = 3,
             max_level: int | None = None) -> CollapseCertificate:
    """Certificate that extending the calculus with f = g (as a schema
    over atoms) identifies the two projections at a common object, and
    with them every pair of parallel arrows.  It returns only a
    certificate that ``replay_collapse`` accepts.  Arrows of different
    arrow types raise TypeMismatch in ``decide_eq``."""
    if decide_ccc_eq(f, g):
        raise EqualArrows("the arrows are provably equal")
    sep = P._build(to_lambda(f), to_lambda(g), max_base, max_level)
    return replayed(CollapseCertificate(f=f, g=g, separation=sep), replay_collapse)
