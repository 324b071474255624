"""Equational calculus of cartesian closed structure: arrow terms over
the same objects as the term language, their translation into closed
lambda terms, a decision procedure for arrow equality, and the collapse
construction showing that adding any unprovable arrow equation forces
all parallel arrows to coincide.

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
from dataclasses import dataclass, field

from .errors import EqualArrows, IllFormed, ParseError, TypeMismatch
from . import products as P
from . import syntax as S
from .normalize import closed_value_scope, decide_eq
from .separator import _replayed
from .syntax import Term, Ty, arrow, atom, prod, TERMINAL


# ---------------------------------------------------------------------------
# Arrow terms

class ArrowTerm:
    src: Ty
    tgt: Ty

    def __repr__(self):
        return show_arrow(self)


@dataclass(frozen=True, repr=False)
class AId(ArrowTerm):
    a: Ty

    @property
    def src(self):
        return self.a

    @property
    def tgt(self):
        return self.a


@dataclass(frozen=True, repr=False)
class AProj(ArrowTerm):
    which: int
    a: Ty
    b: Ty

    @property
    def src(self):
        return prod(self.a, self.b)

    @property
    def tgt(self):
        return self.a if self.which == 1 else self.b


@dataclass(frozen=True, repr=False)
class AEval(ArrowTerm):
    a: Ty
    b: Ty

    @property
    def src(self):
        return prod(arrow(self.a, self.b), self.a)

    @property
    def tgt(self):
        return self.b


@dataclass(frozen=True, repr=False)
class ABang(ArrowTerm):
    a: Ty

    @property
    def src(self):
        return self.a

    @property
    def tgt(self):
        return TERMINAL


@dataclass(frozen=True, repr=False)
class ACompose(ArrowTerm):
    g: ArrowTerm
    f: ArrowTerm

    def __post_init__(self):
        if self.f.tgt is not self.g.src:
            raise IllFormed("composition needs the inner target to match the outer source")

    @property
    def src(self):
        return self.f.src

    @property
    def tgt(self):
        return self.g.tgt


@dataclass(frozen=True, repr=False)
class APairing(ArrowTerm):
    f: ArrowTerm
    g: ArrowTerm

    def __post_init__(self):
        if self.f.src is not self.g.src:
            raise IllFormed("pairing needs a common source")

    @property
    def src(self):
        return self.f.src

    @property
    def tgt(self):
        return prod(self.f.tgt, self.g.tgt)


@dataclass(frozen=True, repr=False)
class ACurry(ArrowTerm):
    c: Ty
    a: Ty
    f: ArrowTerm

    def __post_init__(self):
        if self.f.src is not prod(self.c, self.a):
            raise IllFormed("currying needs a product source matching the given objects")

    @property
    def src(self):
        return self.c

    @property
    def tgt(self):
        return arrow(self.a, self.f.tgt)


def arrow_type_of(f: ArrowTerm) -> tuple[Ty, Ty]:
    return f.src, f.tgt


# ---------------------------------------------------------------------------
# Translation and equality

def to_lambda(f: ArrowTerm) -> Term:
    """The closed term of type src -> tgt representing the arrow."""
    if isinstance(f, AId):
        return S.lams(f.a, lambda x: x())
    if isinstance(f, AProj):
        return S.lams(f.src, lambda x: S.proj1(x()) if f.which == 1 else S.proj2(x()))
    if isinstance(f, AEval):
        return S.lams(f.src, lambda x: S.app(S.proj1(x()), S.proj2(x())))
    if isinstance(f, ABang):
        return S.lams(f.a, lambda x: S.UNIT)
    if isinstance(f, ACompose):
        return S.lams(f.src, lambda x: S.app(to_lambda(f.g), S.app(to_lambda(f.f), x())))
    if isinstance(f, APairing):
        return S.lams(f.src, lambda x: S.pair(S.app(to_lambda(f.f), x()),
                                              S.app(to_lambda(f.g), x())))
    if isinstance(f, ACurry):
        return S.lams(f.c, f.a, lambda x, y: S.app(to_lambda(f.f), S.pair(x(), y())))
    raise IllFormed(f"not an arrow term: {f!r}")


def decide_ccc_eq(f: ArrowTerm, g: ArrowTerm) -> bool:
    """Provable equality of two arrows of the same arrow type."""
    if f.src is not g.src or f.tgt is not g.tgt:
        raise TypeMismatch("arrows must share source and target")
    return decide_eq(to_lambda(f), to_lambda(g))


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

SCHEMA_RULE = ("for any parallel h1, h2 : E |- C: "
               "p1[C,C] . <h1, h2> = p2[C,C] . <h1, h2>, hence h1 = h2")


@dataclass
class CollapseCertificate:
    f: ArrowTerm
    g: ArrowTerm
    separation: P.ProductCertificate
    derived_lhs: ArrowTerm = field(default=None)
    derived_rhs: ArrowTerm = field(default=None)
    schema: str = SCHEMA_RULE

    def __post_init__(self):
        if self.derived_lhs is None:
            p = atom("p")
            self.derived_lhs = AProj(1, p, p)
            self.derived_rhs = AProj(2, p, p)


def collapse(f: ArrowTerm, g: ArrowTerm, max_base: int = 3,
             max_level: int | None = None) -> CollapseCertificate:
    """Certificate that extending the calculus with f = g (as a schema
    over atoms) identifies the two projections at a common object, and
    with them every pair of parallel arrows.  It returns only a
    certificate that ``replay_collapse`` accepts."""
    if f.src is not g.src or f.tgt is not g.tgt:
        raise TypeMismatch("arrows must share source and target")
    if decide_ccc_eq(f, g):
        raise EqualArrows("the arrows are provably equal")
    sep = P._build(to_lambda(f), to_lambda(g), max_base, max_level)
    return _replayed(CollapseCertificate(f=f, g=g, separation=sep), replay_collapse)


@closed_value_scope
def replay_collapse(cert: CollapseCertificate) -> bool:
    """Replay a collapse certificate independently of its construction.

    Checks, in order: the stated schema rule is ``SCHEMA_RULE``; the
    separation's sources are the arrow translations; the separation
    stage verifies by normalization (these are the two certified
    equalities; the middle step equating the sides is the hypothesis
    instance); and the derived arrows are provably ``p1[p, p]`` and
    ``p2[p, p]``.  Once the separation verifies, its applied sides,
    abstracted over a pair, equal the translations of those projections,
    so the derived arrows are compared with them, not with rebuilt
    sides.  The closing step, from equal
    projections to equal parallel arrows, is the pairing law
    p1 . <h1, h2> = h1, an axiom of the calculus that ``check_axioms``
    (``betaeta ccc check``) exercises; it is not evidence carried by the
    certificate, so it is not replayed."""
    if cert.schema != SCHEMA_RULE:
        return False
    sep = cert.separation
    if sep.a_source is not to_lambda(cert.f) or sep.b_source is not to_lambda(cert.g):
        return False
    p = atom("p")
    return (P.verify_product(sep)
            and decide_ccc_eq(cert.derived_lhs, AProj(1, p, p))
            and decide_ccc_eq(cert.derived_rhs, AProj(2, p, p)))


# ---------------------------------------------------------------------------
# Surface syntax for arrows

def show_arrow(f: ArrowTerm) -> str:
    if isinstance(f, AId):
        return f"id[{S.show_type(f.a)}]"
    if isinstance(f, AProj):
        return f"p{f.which}[{S.show_type(f.a)}, {S.show_type(f.b)}]"
    if isinstance(f, AEval):
        return f"eval[{S.show_type(f.a)}, {S.show_type(f.b)}]"
    if isinstance(f, ABang):
        return f"bang[{S.show_type(f.a)}]"
    if isinstance(f, ACompose):
        left = show_arrow(f.g)
        if isinstance(f.g, ACompose):
            left = f"({left})"
        return f"{left} . {show_arrow(f.f)}"
    if isinstance(f, APairing):
        return f"<{show_arrow(f.f)}, {show_arrow(f.g)}>"
    return f"curry[{S.show_type(f.c)}, {S.show_type(f.a)}]({show_arrow(f.f)})"


def parse_arrow(text: str) -> ArrowTerm:
    toks = S._Tokens(text)
    out = _parse_compose(toks)
    if toks.peek() is not None:
        raise ParseError(f"trailing input '{toks.peek()}'", toks.pos)
    return out


def _parse_compose(toks) -> ArrowTerm:
    left = _parse_arrow_atom(toks)
    if toks.peek() == ".":
        toks.take(".")
        return ACompose(left, _parse_compose(toks))
    return left


def _bracket_types(toks, n) -> list[Ty]:
    toks.take("[")
    tys = [S._parse_type(toks, None)]
    for _ in range(n - 1):
        toks.take(",")
        tys.append(S._parse_type(toks, None))
    toks.take("]")
    return tys


def _parse_arrow_atom(toks) -> ArrowTerm:
    tok = toks.peek()
    if tok is None:
        raise ParseError("expected an arrow term", toks.pos)
    if tok == "(":
        toks.take("(")
        inner = _parse_compose(toks)
        toks.take(")")
        return inner
    if tok == "<":
        toks.take("<")
        f = _parse_compose(toks)
        toks.take(",")
        g = _parse_compose(toks)
        toks.take(">")
        return APairing(f, g)
    if tok == "id":
        toks.take()
        return AId(_bracket_types(toks, 1)[0])
    if tok == "bang":
        toks.take()
        return ABang(_bracket_types(toks, 1)[0])
    if tok in ("p1", "p2"):
        toks.take()
        a, b = _bracket_types(toks, 2)
        return AProj(1 if tok == "p1" else 2, a, b)
    if tok == "eval":
        toks.take()
        a, b = _bracket_types(toks, 2)
        return AEval(a, b)
    if tok == "curry":
        toks.take()
        c, a = _bracket_types(toks, 2)
        toks.take("(")
        f = _parse_compose(toks)
        toks.take(")")
        return ACurry(c, a, f)
    raise ParseError(f"unexpected '{tok}' in arrow term", toks.pos)
