"""The certificate checker: the instance rule, the arrow terms with their
text and translation, and the replays of separation, product and
collapse certificates by normalization alone.  It imports only
``errors``, ``syntax`` and ``normalize``, and ``certio`` reads
certificates with it alone, so a reader replaying one loads none of the
code that built it (McConnell, Mehlhorn, Näher & Schweitzer, "Certifying
algorithms", 2011).  Every producer ends in its replay here.
``decide_eq`` is looked up on ``normalize`` at each call, so a wrapper
installed there sees every decision taken here.
"""

from __future__ import annotations

from .errors import IllFormed, IllTyped, IndexOutOfRange, ParseError, TypeMismatch
from . import normalize as Nz
from . import syntax as S
from .normalize import closed_value_scope
from .syntax import (
    Context, Record, Term, Ty, arrow, atom, numeral_type, prod, subst_type, TERMINAL,
)


# ---------------------------------------------------------------------------
# The instance rule, and the projector of a product normal form

def _ordered_free_union(a: Term, b: Term) -> list[tuple[str, Ty]]:
    """The free variables of ``a`` and then of ``b``, each once, in order
    of first occurrence."""
    out = list(S.free_vars(a).items())
    seen = {name for name, _ in out}
    for name, ty in S.free_vars(b).items():
        if name not in seen:
            out.append((name, ty))
    return out


def instance_sub(level: int, target: Ty, *sources: Term) -> dict[str, Ty]:
    """The one instance rule of every certificate (after Statman 1982):
    each atom of ``sources`` goes to the numeral type of ``level`` over
    ``target``.  Producers instantiate with it, and verifiers recompute
    it from the stated level and target instead of searching for it."""
    instance = numeral_type(level, target)
    return {name: instance for source in sources for name in S.term_atoms(source)}


def instantiate(sub: dict[str, Ty], a: Term, b: Term):
    """The images of ``a`` and ``b`` under ``sub``, and their free
    variables in order of first occurrence at their image types: the
    ``a_prime``, ``b_prime`` and ``bound_vars`` of a certificate."""
    bound = [(name, subst_type(ty, sub)) for name, ty in _ordered_free_union(a, b)]
    return S.substitute_types(a, sub), S.substitute_types(b, sub), bound


def level_fits(cert) -> bool:
    """Whether the stated level is a natural number below the node count
    of the type of ``cert.a_prime``.  An honest a-side type contains the
    whole numeral type of its level, which has more nodes than that, so
    a verifier refuses a false level before it builds any tower."""
    level = cert.level
    return type(level) is int and 0 <= level < S.type_node_count(cert.a_prime.ty)


def projector(n: int, i: int, ty: Ty) -> Term:
    """Closed term projecting the i-th of n left-nested factors."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"component {i} of {n}")
    def body(x):
        out = x()
        for _ in range(n - i):
            out = S.proj1(out)
        if i > 1:
            out = S.proj2(out)
        return out
    return S.lams(ty, body)


# ---------------------------------------------------------------------------
# Arrow terms of cartesian closed structure

_ARROWS: dict = {}


class ArrowTerm:
    """An arrow of cartesian closed structure, whose fields are its class's
    own ``__slots__``.  Arrows are hash-consed, as types and terms are: one
    constructor interns each by its class and fields, so equal arrows are
    one object, arrows of different classes differ, and no field can be
    assigned.  ``_ends`` gives the source and target, stored when the arrow
    is interned, and raises ``IllFormed`` unless the fields make an arrow."""
    __slots__ = ("src", "tgt")

    def __new__(cls, *fields):
        key = (cls, *fields)
        f = _ARROWS.get(key)
        if f is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields, "
                                f"not {len(fields)}")
            f = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(f, name, value)
            for name, value in zip(("src", "tgt"), f._ends()):
                object.__setattr__(f, name, value)
            _ARROWS[key] = f
        return f

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to '{name}': arrow terms are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        return show_arrow(self)


class AId(ArrowTerm):
    __slots__ = ("a",)

    def _ends(self):
        return self.a, self.a


class AProj(ArrowTerm):
    __slots__ = ("which", "a", "b")

    def _ends(self):
        return prod(self.a, self.b), (self.a if self.which == 1 else self.b)


class AEval(ArrowTerm):
    __slots__ = ("a", "b")

    def _ends(self):
        return prod(arrow(self.a, self.b), self.a), self.b


class ABang(ArrowTerm):
    __slots__ = ("a",)

    def _ends(self):
        return self.a, TERMINAL


class ACompose(ArrowTerm):
    __slots__ = ("g", "f")

    def _ends(self):
        if self.f.tgt is not self.g.src:
            raise IllFormed("composition needs the inner target to match the outer source")
        return self.f.src, self.g.tgt


class APairing(ArrowTerm):
    __slots__ = ("f", "g")

    def _ends(self):
        if self.f.src is not self.g.src:
            raise IllFormed("pairing needs a common source")
        return self.f.src, prod(self.f.tgt, self.g.tgt)


class ACurry(ArrowTerm):
    __slots__ = ("c", "a", "f")

    def _ends(self):
        if self.f.src is not prod(self.c, self.a):
            raise IllFormed("currying needs a product source matching the given objects")
        return self.c, arrow(self.a, self.f.tgt)


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
    """Provable equality of two arrows of the same arrow type; arrows of
    different arrow types raise ``TypeMismatch`` in ``decide_eq``."""
    return Nz.decide_eq(to_lambda(f), to_lambda(g))


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
    """The arrow term that ``show_arrow`` prints as ``text``."""
    toks = S._tokenize(text)
    try:
        out, i = _parse_compose(text, toks, 0)
    except RecursionError:
        # reported at the first token of the most deeply nested group
        depth = deepest = at = 0
        for j, tok in enumerate(toks[:-1]):
            depth += (tok == "(" or tok == "<") - (tok == ")" or tok == ">")
            if depth > deepest:
                deepest, at = depth, j + 1
        raise ParseError("arrow term nested too deeply", S._start(text, toks, at)) from None
    if toks[i] is not None:
        raise ParseError(f"trailing input '{toks[i]}'", S._start(text, toks, i))
    return out


# each reader takes the text, its tokens and the index of the first token
# it reads, and returns what it read with the index past it

def _parse_compose(text, toks, i) -> tuple[ArrowTerm, int]:
    left, i = _parse_arrow_atom(text, toks, i)
    if toks[i] == ".":
        right, i = _parse_compose(text, toks, i + 1)
        return ACompose(left, right), i
    return left, i


def _take(text, toks, i, want) -> int:
    if toks[i] != want:
        raise S._expected(text, toks, i, want)
    return i + 1


def _bracket_types(text, toks, i, n) -> tuple[list[Ty], int]:
    tys = []
    for opener in "[" + "," * (n - 1):
        ty, i = S._read_type(text, toks, _take(text, toks, i, opener), None)
        tys.append(ty)
    return tys, _take(text, toks, i, "]")


# the arrow atoms written NAME[A] or NAME[A, B]: (type count, constructor)
_BRACKETED = {
    "id": (1, AId), "bang": (1, ABang), "eval": (2, AEval),
    "p1": (2, lambda a, b: AProj(1, a, b)), "p2": (2, lambda a, b: AProj(2, a, b)),
}


def _parse_arrow_atom(text, toks, i) -> tuple[ArrowTerm, int]:
    tok = toks[i]
    if tok is None:
        raise ParseError("expected an arrow term", S._start(text, toks, i))
    if tok == "(":
        return _parenthesized(text, toks, i)
    if tok == "<":
        f, i = _parse_compose(text, toks, i + 1)
        g, i = _parse_compose(text, toks, _take(text, toks, i, ","))
        i = _take(text, toks, i, ">")
        return APairing(f, g), i
    if tok in _BRACKETED:
        n, make = _BRACKETED[tok]
        tys, i = _bracket_types(text, toks, i + 1, n)
        return make(*tys), i
    if tok == "curry":
        (c, a), i = _bracket_types(text, toks, i + 1, 2)
        f, i = _parenthesized(text, toks, i)
        return ACurry(c, a, f), i
    raise ParseError(f"unexpected '{tok}' in arrow term", S._start(text, toks, i))


def _parenthesized(text, toks, i) -> tuple[ArrowTerm, int]:
    inner, i = _parse_compose(text, toks, _take(text, toks, i, "("))
    return inner, _take(text, toks, i, ")")


# ---------------------------------------------------------------------------
# Certificates

class SeparationCertificate(Record):
    a_source: Term
    b_source: Term
    a_prime: Term
    b_prime: Term
    bound_vars: list[tuple[str, Ty]]
    head_args: list[Term]
    target_c: Term
    target_d: Term
    target_ctx: Context
    level: int
    base: int
    model_args: list[tuple[Ty, int]]
    relabeling: list[int]
    two_valued: bool = False
    kappa_values: list[int] = []

    def applied(self, side: str) -> Term:
        """The closed context of one side applied to all head arguments."""
        body = self.a_prime if side == "a" else self.b_prime
        frees = [S.free(name, ty) for name, ty in self.bound_vars]
        return S.apps(S.bind(body, *frees), *self.head_args)


class ProductCertificate(Record):
    a_source: Term
    b_source: Term
    a_prime: Term
    b_prime: Term
    iso_forward: Term
    component: int
    n_components: int
    inner: SeparationCertificate

    @property
    def level(self):
        return self.inner.level

    def applied(self, side: str) -> Term:
        """The chosen component of one instantiated side, moved through
        the isomorphism and applied to the inner head arguments."""
        source = self.a_prime if side == "a" else self.b_prime
        proj = projector(self.n_components, self.component, self.iso_forward.ty.cod)
        return S.apps(S.app(proj, S.app(self.iso_forward, source)), *self.inner.head_args)


SCHEMA_RULE = ("for any parallel h1, h2 : E |- C: "
               "p1[C,C] . <h1, h2> = p2[C,C] . <h1, h2>, hence h1 = h2")

_P = atom("p")
# the arrows every collapse derives equal: the two projections of p * p
_PROJ1, _PROJ2 = AProj(1, _P, _P), AProj(2, _P, _P)


class CollapseCertificate(Record):
    f: ArrowTerm
    g: ArrowTerm
    separation: ProductCertificate
    derived_lhs: ArrowTerm = _PROJ1
    derived_rhs: ArrowTerm = _PROJ2
    schema: str = SCHEMA_RULE


# ---------------------------------------------------------------------------
# Replays

def replayed(cert, check):
    """``cert``, once its verifier ``check`` accepts it: each producer ends here."""
    if not check(cert):
        raise AssertionError(f"{check.__name__} rejected the certificate just built")
    return cert


def _replay(cert, target: Ty, images: tuple, goals) -> bool:
    """The one replay of a separation, with or without products.  A level
    that is not a natural number below the node count of the type of
    ``a_prime`` is refused before any tower is built.  ``images`` must be
    the leading part of what ``instantiate`` makes of the sources under
    ``instance_sub`` of the stated level and ``target``, by interned
    identity.  Then each side that ``goals`` yields must be provably equal
    to its target; a malformed side is a type error.  ``base``,
    ``model_args``, ``relabeling`` and ``kappa_values`` are not read."""
    if not level_fits(cert):
        return False
    sub = instance_sub(cert.level, target, cert.a_source, cert.b_source)
    if images != instantiate(sub, cert.a_source, cert.b_source)[:len(images)]:
        return False
    try:
        return all(Nz.decide_eq(side, want) for side, want in goals)
    except (TypeMismatch, S.UnboundVariable):
        raise IllTyped("malformed certificate")


@closed_value_scope
def verify(cert: SeparationCertificate) -> bool:
    """Replay a separation certificate.  Its images are ``a_prime``,
    ``b_prime`` and ``bound_vars`` over the type of ``target_c``.  Both
    applied sides must equal their targets; a two-valued certificate must
    also project correctly on fresh slot variables.  ``separate`` and
    ``separate_two`` run it on what they build before they return it."""
    def goals():
        lhs_a, lhs_b = cert.applied("a"), cert.applied("b")
        yield lhs_a, cert.target_c
        yield lhs_b, cert.target_d
        if cert.two_valued:
            e, f = S.free("e'", _P), S.free("f'", _P)
            yield S.apps(lhs_a, e, f), e
            yield S.apps(lhs_b, e, f), f
    images = (cert.a_prime, cert.b_prime, cert.bound_vars)
    return _replay(cert, cert.target_c.ty, images, goals())


@closed_value_scope
def verify_product(cert: ProductCertificate) -> bool:
    """Replay a product certificate.  Its images are ``a_prime`` and
    ``b_prime`` over the type of the inner ``target_c``, and each applied
    side, given the two projections of a fresh pair variable, must give
    its own.  Of the inner certificate only ``level``, ``head_args`` and
    the type of ``target_c`` are read; its ``a_source`` and ``b_source``
    among the rest record where it came from and are not replayed."""
    x = S.free("x", prod(_P, _P))
    e, f = S.proj1(x), S.proj2(x)
    goals = ((S.apps(cert.applied(side), e, f), want) for side, want in (("a", e), ("b", f)))
    return _replay(cert, cert.inner.target_c.ty, (cert.a_prime, cert.b_prime), goals)


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
    sides.  The closing step, from equal projections to equal parallel
    arrows, is the pairing law p1 . <h1, h2> = h1, an axiom of the
    calculus that ``check_axioms`` (``betaeta ccc check``) exercises; it
    is not evidence carried by the certificate, so it is not replayed."""
    if cert.schema != SCHEMA_RULE:
        return False
    sep = cert.separation
    if sep.a_source is not to_lambda(cert.f) or sep.b_source is not to_lambda(cert.g):
        return False
    return (verify_product(sep)
            and decide_ccc_eq(cert.derived_lhs, _PROJ1)
            and decide_ccc_eq(cert.derived_rhs, _PROJ2))
