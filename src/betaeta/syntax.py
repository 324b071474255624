"""Types and terms of the simply typed lambda calculus with binary
products and a terminal type, plus parsing and printing.

Both types and terms are hash-consed: constructors return the unique
interned node for a given structure, so structural equality is object
identity and towers such as ``A -> A`` iterated sixty times stay linear
in memory.  Binders are nameless (de Bruijn indices); variables that are
free in a whole term are kept as named ``Free`` nodes, which makes
substitution of a term for a free variable capture-proof without any
shifting.  Every term node carries its type, computed at construction;
building an ill-typed application or projection raises immediately.

The interning tables are module-level and take no lock: the workbench
runs in one thread, and callers that add threads must serialize their
use of this module.

The walks over terms and types go through three helpers that visit a
shared node once: ``subterms`` (preorder), ``subtypes`` (post-order) and
``map_term`` (a memoized bottom-up rebuild; once per binder depth when
the image depends on the depth).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import (
    IllTyped,
    ParseError,
    ResourceExhausted,
    TypeMismatch,
    UnboundVariable,
)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


# ---------------------------------------------------------------------------
# Types

class Ty:
    __slots__ = ("uid",)

    def __repr__(self):
        if type_node_count(self) > 64:
            return f"<type #{self.uid}, {type_node_count(self)} shared nodes>"
        return show_type(self)


class TyAtom(Ty):
    __slots__ = ("name",)


class TyTerminal(Ty):
    __slots__ = ()


class TyArrow(Ty):
    __slots__ = ("dom", "cod")


class TyProd(Ty):
    __slots__ = ("left", "right")


_TYPES: dict = {}


def _intern_type(key, make):
    hit = _TYPES.get(key)
    if hit is None:
        hit = make()
        hit.uid = len(_TYPES)
        _TYPES[key] = hit
    return hit


def atom(name: str) -> TyAtom:
    if name == "T":
        raise IllTyped("'T' is reserved for the terminal type")
    def make():
        t = TyAtom()
        t.name = name
        return t
    return _intern_type(("atom", name), make)


def _make_terminal():
    return TyTerminal()


TERMINAL: TyTerminal = _intern_type(("T",), _make_terminal)


def arrow(dom: Ty, cod: Ty) -> TyArrow:
    def make():
        t = TyArrow()
        t.dom = dom
        t.cod = cod
        return t
    return _intern_type(("->", dom.uid, cod.uid), make)


def prod(left: Ty, right: Ty) -> TyProd:
    def make():
        t = TyProd()
        t.left = left
        t.right = right
        return t
    return _intern_type(("*", left.uid, right.uid), make)


def arrows(*tys: Ty) -> Ty:
    """Right-nested arrow over the given types: arrows(A, B, C) = A -> (B -> C)."""
    result = tys[-1]
    for t in reversed(tys[:-1]):
        result = arrow(t, result)
    return result


def tower_type(i: int, base: Ty | None = None) -> Ty:
    """The i-th iterate of A -> A starting from the atom p (or ``base``)."""
    t = base if base is not None else atom("p")
    for _ in range(i):
        t = arrow(t, t)
    return t


def numeral_type(i: int, base: Ty | None = None) -> Ty:
    """Type of level-i numerals: the (i+2)-nd tower type."""
    return tower_type(i + 2, base)


def subtypes(*roots: Ty):
    """Each distinct type node under ``roots`` once, children before their
    parent and the domain (left factor) before the codomain (right
    factor).  One ``seen`` set serves all roots, so a node shared with an
    earlier root is not yielded again.  Iterative, so depth is no limit."""
    seen = set()
    for root in roots:
        if root.uid in seen:
            continue
        stack = [(root, False)]
        while stack:
            ty, expanded = stack.pop()
            if expanded:
                yield ty
                continue
            if ty.uid in seen:
                continue
            seen.add(ty.uid)
            stack.append((ty, True))
            cls = type(ty)
            if cls is TyArrow:
                stack.append((ty.cod, False))
                stack.append((ty.dom, False))
            elif cls is TyProd:
                stack.append((ty.right, False))
                stack.append((ty.left, False))


def type_node_count(ty: Ty) -> int:
    """Number of distinct nodes in the shared representation of ``ty``."""
    return sum(1 for _ in subtypes(ty))


def type_atoms(ty: Ty) -> set[str]:
    return {t.name for t in subtypes(ty) if type(t) is TyAtom}


def subst_type(ty: Ty, mapping: dict[str, Ty], _memo=None) -> Ty:
    """Replace atoms by types throughout ``ty`` (uniform replacement)."""
    if _memo is None:
        _memo = {}
    hit = _memo.get(ty.uid)
    if hit is not None:
        return hit
    if isinstance(ty, TyAtom):
        out = mapping.get(ty.name, ty)
    elif isinstance(ty, TyArrow):
        out = arrow(subst_type(ty.dom, mapping, _memo), subst_type(ty.cod, mapping, _memo))
    elif isinstance(ty, TyProd):
        out = prod(subst_type(ty.left, mapping, _memo), subst_type(ty.right, mapping, _memo))
    else:
        out = ty
    _memo[ty.uid] = out
    return out


def is_product_free(ty: Ty) -> bool:
    if isinstance(ty, TyAtom):
        return True
    if isinstance(ty, TyArrow):
        return is_product_free(ty.dom) and is_product_free(ty.cod)
    return False


def split_arrows(ty: Ty) -> tuple[list[Ty], Ty]:
    """Peel a type into its argument list and final non-arrow result."""
    args = []
    while isinstance(ty, TyArrow):
        args.append(ty.dom)
        ty = ty.cod
    return args, ty


# ---------------------------------------------------------------------------
# Terms

class Term:
    # scope: one more than the largest free de Bruijn index, 0 when closed
    __slots__ = ("uid", "ty", "scope")

    def __repr__(self):
        if _max_annotation_nodes(self) > 64:
            return f"<term #{self.uid} : type #{self.ty.uid}>"
        return show_term(self)


class Var(Term):
    __slots__ = ("index",)


class Free(Term):
    __slots__ = ("name",)


class Lam(Term):
    __slots__ = ("binder", "body")


class App(Term):
    __slots__ = ("fun", "arg")


class Pair(Term):
    __slots__ = ("fst", "snd")


class Proj1(Term):
    __slots__ = ("arg",)


class Proj2(Term):
    __slots__ = ("arg",)


class Unit(Term):
    __slots__ = ()


_TERMS: dict = {}
_NODE_BUDGET = [10_000_000]


def set_node_budget(n: int | None):
    """Cap the number of distinct interned term nodes (None = unlimited)."""
    _NODE_BUDGET[0] = n


def interned_term_count() -> int:
    return len(_TERMS)


def _intern_term(key, make):
    hit = _TERMS.get(key)
    if hit is None:
        budget = _NODE_BUDGET[0]
        if budget is not None and len(_TERMS) >= budget:
            raise ResourceExhausted(
                f"term interner exceeded {budget} nodes; raise the budget to continue")
        hit = make()
        hit.uid = len(_TERMS)
        _TERMS[key] = hit
    return hit


def var(index: int, ty: Ty) -> Var:
    def make():
        t = Var()
        t.index = index
        t.ty = ty
        t.scope = index + 1
        return t
    return _intern_term(("v", index, ty.uid), make)


def free(name: str, ty: Ty) -> Free:
    def make():
        t = Free()
        t.name = name
        t.ty = ty
        t.scope = 0
        return t
    return _intern_term(("f", name, ty.uid), make)


def lam(binder: Ty, body: Term) -> Lam:
    def make():
        t = Lam()
        t.binder = binder
        t.body = body
        t.ty = arrow(binder, body.ty)
        t.scope = max(body.scope - 1, 0)
        return t
    return _intern_term(("l", binder.uid, body.uid), make)


def app(fun: Term, arg: Term) -> App:
    fty = fun.ty
    if not isinstance(fty, TyArrow):
        raise IllTyped(f"cannot apply a term of non-arrow type {show_type(fty)}")
    if fty.dom is not arg.ty:
        raise IllTyped(
            f"argument type {show_type(arg.ty)} does not match domain {show_type(fty.dom)}")
    def make():
        t = App()
        t.fun = fun
        t.arg = arg
        t.ty = fty.cod
        t.scope = max(fun.scope, arg.scope)
        return t
    return _intern_term(("a", fun.uid, arg.uid), make)


def apps(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = app(fun, a)
    return fun


def pair(fst: Term, snd: Term) -> Pair:
    def make():
        t = Pair()
        t.fst = fst
        t.snd = snd
        t.ty = prod(fst.ty, snd.ty)
        t.scope = max(fst.scope, snd.scope)
        return t
    return _intern_term(("p", fst.uid, snd.uid), make)


def proj1(arg: Term) -> Proj1:
    if not isinstance(arg.ty, TyProd):
        raise IllTyped(f"cannot project from non-product type {show_type(arg.ty)}")
    def make():
        t = Proj1()
        t.arg = arg
        t.ty = arg.ty.left
        t.scope = arg.scope
        return t
    return _intern_term(("1", arg.uid), make)


def proj2(arg: Term) -> Proj2:
    if not isinstance(arg.ty, TyProd):
        raise IllTyped(f"cannot project from non-product type {show_type(arg.ty)}")
    def make():
        t = Proj2()
        t.arg = arg
        t.ty = arg.ty.right
        t.scope = arg.scope
        return t
    return _intern_term(("2", arg.uid), make)


def _make_unit():
    t = Unit()
    t.ty = TERMINAL
    t.scope = 0
    return t


UNIT: Unit = _intern_term(("k",), _make_unit)


# ---------------------------------------------------------------------------
# Contexts

class Context:
    """Ordered typing context for free variables; names are distinct."""

    def __init__(self, entries=()):
        self.entries: list[tuple[str, Ty]] = []
        self._index: dict[str, Ty] = {}
        for name, ty in entries:
            self.add(name, ty)

    def add(self, name: str, ty: Ty):
        if name in self._index:
            raise IllTyped(f"duplicate context entry for '{name}'")
        self.entries.append((name, ty))
        self._index[name] = ty
        return self

    def lookup(self, name: str) -> Ty | None:
        return self._index.get(name)

    def __contains__(self, name):
        return name in self._index

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        inside = ", ".join(f"{n}:{show_type(t)}" for n, t in self.entries)
        return f"Context({inside})"


EMPTY = Context()


# ---------------------------------------------------------------------------
# Traversals

def subterms(t: Term):
    """Each distinct node of ``t`` once, in left-to-right preorder: a node
    comes before its children, a function before its argument and a
    pair's first component before its second.  Iterative, so depth is no
    limit."""
    seen = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u.uid in seen:
            continue
        seen.add(u.uid)
        yield u
        cls = type(u)
        if cls is Lam:
            stack.append(u.body)
        elif cls is App:
            stack.append(u.arg)
            stack.append(u.fun)
        elif cls is Pair:
            stack.append(u.snd)
            stack.append(u.fst)
        elif cls is Proj1 or cls is Proj2:
            stack.append(u.arg)


def map_term(t: Term, leaf, binder=None, depth: int | None = None,
             keep=None, post=None) -> Term:
    """Rebuild ``t`` bottom-up through the interning constructors, each
    distinct node once.

    ``leaf(u, d)`` gives the image of a ``Var``, ``Free`` or ``Unit`` node
    ``u`` met under ``d`` binders, counted from ``depth``; ``binder`` maps
    the annotation of every abstraction; a node for which ``keep(u, d)``
    holds is its own image; ``post`` rewrites each image once it is built.
    With ``depth`` None the image of a node must not depend on its depth,
    and the memo is keyed on the uid alone; otherwise on (uid, depth).
    """
    memo: dict = {}
    by_depth = depth is not None

    def go(u, d):
        if keep is not None and keep(u, d):
            return u
        key = (u.uid, d) if by_depth else u.uid
        out = memo.get(key)
        if out is not None:
            return out
        cls = type(u)
        if cls is Lam:
            out = lam(u.binder if binder is None else binder(u.binder), go(u.body, d + 1))
        elif cls is App:
            out = app(go(u.fun, d), go(u.arg, d))
        elif cls is Pair:
            out = pair(go(u.fst, d), go(u.snd, d))
        elif cls is Proj1:
            out = proj1(go(u.arg, d))
        elif cls is Proj2:
            out = proj2(go(u.arg, d))
        else:
            out = leaf(u, d)
        if post is not None:
            out = post(out)
        memo[key] = out
        return out

    return go(t, depth or 0)


def _max_annotation_nodes(t: Term) -> int:
    """Largest shared node count over the annotation types in ``t``;
    used to keep reprs of tower-typed terms from rendering inline."""
    return max(type_node_count(u.ty) for u in subterms(t))


def free_vars(t: Term) -> dict[str, Ty]:
    """Free named variables of ``t`` in order of first occurrence."""
    out: dict[str, Ty] = {}
    for u in subterms(t):
        if type(u) is Free and out.setdefault(u.name, u.ty) is not u.ty:
            raise IllTyped(f"free variable '{u.name}' used at two types")
    return out


def is_closed(t: Term) -> bool:
    return all(type(u) is not Free for u in subterms(t))


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add ``by`` to every de Bruijn index >= cutoff."""
    if by == 0:
        return t
    return map_term(t, lambda u, d: var(u.index + by, u.ty), depth=cutoff,
                    keep=lambda u, d: u.scope <= d)  # no index at or above d


def abstract(body: Term, fv: Free) -> Term:
    """Turn occurrences of the free variable ``fv`` into the index bound
    by a lambda wrapped immediately around ``body``."""
    return map_term(body, lambda u, d: var(d, fv.ty) if u is fv else u, depth=0)


def bind(body: Term, *fvs: Free) -> Term:
    """Close ``body`` over the given free variables, first one outermost."""
    for fv in reversed(fvs):
        body = lam(fv.ty, abstract(body, fv))
    return body


def substitute_term(a: Term, name: str, b: Term) -> Term:
    """Replace the free variable ``name`` by ``b`` throughout ``a``.

    ``b`` must have the variable's type.  Nameless binders make capture
    impossible: ``b`` has no loose indices, so it drops in unchanged at
    any depth.
    """
    def leaf(u, d):
        if type(u) is not Free or u.name != name:
            return u
        if u.ty is not b.ty:
            raise TypeMismatch(
                f"substituting {show_type(b.ty)} for '{name}' : {show_type(u.ty)}")
        return b

    return map_term(a, leaf)


def substitute_types(a: Term, mapping: dict[str, Ty]) -> Term:
    """Apply an atom-to-type substitution to every annotation in ``a``."""
    tymemo: dict = {}

    def ty(t):
        return subst_type(t, mapping, tymemo)

    def leaf(u, d):
        cls = type(u)
        if cls is Var:
            return var(u.index, ty(u.ty))
        return free(u.name, ty(u.ty)) if cls is Free else u

    return map_term(a, leaf, binder=ty)


def term_atoms(a: Term) -> set[str]:
    """Atom names occurring in any type annotation of ``a``."""
    return {t.name for t in subtypes(*(u.ty for u in subterms(a))) if type(t) is TyAtom}


def type_of(a: Term, ctx: Context = EMPTY) -> Ty:
    """Recompute the type of ``a`` from scratch, checking every node and
    that each free variable is bound in ``ctx`` at its annotated type."""

    def go(u, binders):
        if isinstance(u, Var):
            if u.index >= len(binders):
                raise UnboundVariable(f"loose bound variable index {u.index}")
            ty = binders[u.index]
            if ty is not u.ty:
                raise IllTyped("bound variable annotation disagrees with its binder")
            return ty
        if isinstance(u, Free):
            ty = ctx.lookup(u.name)
            if ty is None:
                raise UnboundVariable(f"variable '{u.name}' is not bound in the context")
            if ty is not u.ty:
                raise IllTyped(
                    f"'{u.name}' has type {show_type(ty)} in the context "
                    f"but is annotated {show_type(u.ty)}")
            return ty
        if isinstance(u, Lam):
            return arrow(u.binder, go(u.body, (u.binder,) + binders))
        if isinstance(u, App):
            fty = go(u.fun, binders)
            aty = go(u.arg, binders)
            if not isinstance(fty, TyArrow) or fty.dom is not aty:
                raise IllTyped("application of mismatched types")
            return fty.cod
        if isinstance(u, Pair):
            return prod(go(u.fst, binders), go(u.snd, binders))
        if isinstance(u, Proj1):
            ty = go(u.arg, binders)
            if not isinstance(ty, TyProd):
                raise IllTyped("first projection from a non-product")
            return ty.left
        if isinstance(u, Proj2):
            ty = go(u.arg, binders)
            if not isinstance(ty, TyProd):
                raise IllTyped("second projection from a non-product")
            return ty.right
        return TERMINAL

    ty = go(a, ())
    if ty is not a.ty:
        raise IllTyped("term annotation disagrees with the computed type")
    return ty


_FRESH = [0]


def fresh_free(base: str, ty: Ty) -> Free:
    """A free variable with a unique machine-generated name."""
    _FRESH[0] += 1
    return free(f"{base}%{_FRESH[0]}", ty)


# ---------------------------------------------------------------------------
# Surface syntax

@dataclass(frozen=True)
class SVar:
    name: str


@dataclass(frozen=True)
class SLam:
    name: str
    ty: Ty
    body: "SNode"


@dataclass(frozen=True)
class SApp:
    fun: "SNode"
    arg: "SNode"


@dataclass(frozen=True)
class SPair:
    fst: "SNode"
    snd: "SNode"


@dataclass(frozen=True)
class SProj:
    which: int
    arg: "SNode"


@dataclass(frozen=True)
class SUnit:
    pass


SNode = SVar | SLam | SApp | SPair | SProj | SUnit

_RESERVED = {"p1", "p2", "k"}


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._at, self._tok = -1, None  # the token scanned at position _at

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        if self._at != self.pos:  # scan once per position; take moves on
            self.skip_ws()
            self._at, self._tok = self.pos, self._scan()
        return self._tok

    def _scan(self):
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] in "_'"):
                j += 1
            return self.text[self.pos:j]
        if ch == "-" and self.text[self.pos:self.pos + 2] == "->":
            return "->"
        return ch

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        if expected is not None and tok != expected:
            raise ParseError(f"expected '{expected}', found '{tok}'", self.pos)
        self.pos += len(tok)
        return tok


def _parse_type(toks: _Tokens, aliases) -> Ty:
    left = _parse_type_prod(toks, aliases)
    if toks.peek() == "->":
        toks.take("->")
        return arrow(left, _parse_type(toks, aliases))
    return left


def _parse_type_prod(toks: _Tokens, aliases) -> Ty:
    left = _parse_type_atom(toks, aliases)
    while toks.peek() == "*":
        toks.take("*")
        left = prod(left, _parse_type_atom(toks, aliases))
    return left


def _parse_type_atom(toks: _Tokens, aliases) -> Ty:
    tok = toks.peek()
    if tok is None:
        raise ParseError("expected a type", toks.pos)
    if tok == "(":
        toks.take("(")
        ty = _parse_type(toks, aliases)
        toks.take(")")
        return ty
    if tok == "T":
        toks.take()
        return TERMINAL
    if tok[0].isalpha() or tok[0] == "_":
        toks.take()
        if aliases and tok in aliases:
            return aliases[tok]
        return atom(tok)
    raise ParseError(f"unexpected '{tok}' in type", toks.pos)


def parse_type(text: str, aliases: dict[str, Ty] | None = None) -> Ty:
    toks = _Tokens(text)
    ty = _parse_type(toks, aliases)
    if toks.peek() is not None:
        raise ParseError(f"trailing input '{toks.peek()}'", toks.pos)
    return ty


def _parse_term(toks: _Tokens, aliases) -> SNode:
    tok = toks.peek()
    if tok == "\\":
        toks.take("\\")
        name = toks.take()
        if not (name[0].isalpha() or name[0] == "_") or name in _RESERVED or name == "T":
            raise ParseError(f"bad binder name '{name}'", toks.pos)
        toks.take(":")
        ty = _parse_type(toks, aliases)
        toks.take(".")
        return SLam(name, ty, _parse_term(toks, aliases))
    return _parse_appseq(toks, aliases)


_ATOM_STARTERS = ("(", "<")


def _starts_atom(tok) -> bool:
    if tok is None:
        return False
    return tok in _ATOM_STARTERS or tok[0].isalpha() or tok[0] == "_" or tok == "\\"


def _parse_appseq(toks: _Tokens, aliases) -> SNode:
    node = _parse_atom(toks, aliases)
    while True:
        tok = toks.peek()
        if tok == "\\":
            # A lambda in argument position extends to the end of the input,
            # mirroring the usual convention for trailing abstractions.
            node = SApp(node, _parse_term(toks, aliases))
            return node
        if not _starts_atom(tok):
            return node
        node = SApp(node, _parse_atom(toks, aliases))


def _parse_atom(toks: _Tokens, aliases) -> SNode:
    tok = toks.peek()
    if tok is None:
        raise ParseError("expected a term", toks.pos)
    if tok == "(":
        toks.take("(")
        node = _parse_term(toks, aliases)
        toks.take(")")
        return node
    if tok == "<":
        toks.take("<")
        fst = _parse_term(toks, aliases)
        toks.take(",")
        snd = _parse_term(toks, aliases)
        toks.take(">")
        return SPair(fst, snd)
    if tok == "p1" or tok == "p2":
        toks.take()
        return SProj(1 if tok == "p1" else 2, _parse_atom(toks, aliases))
    if tok == "k":
        toks.take()
        return SUnit()
    if tok[0].isalpha() or tok[0] == "_":
        toks.take()
        return SVar(tok)
    raise ParseError(f"unexpected '{tok}'", toks.pos)


def parse(text: str, aliases: dict[str, Ty] | None = None) -> SNode:
    """Parse surface text into an untyped tree; free variables are kept
    by name and acquire types only at elaboration."""
    toks = _Tokens(text)
    node = _parse_term(toks, aliases)
    if toks.peek() is not None:
        raise ParseError(f"trailing input '{toks.peek()}'", toks.pos)
    return node


def elaborate(node: SNode, ctx: Context = EMPTY) -> Term:
    """Type and convert a surface tree into a nameless interned term."""

    def go(n, binders):
        if isinstance(n, SVar):
            for depth, (name, ty) in enumerate(binders):
                if name == n.name:
                    return var(depth, ty)
            ty = ctx.lookup(n.name)
            if ty is None:
                raise UnboundVariable(f"variable '{n.name}' is not bound in the context")
            return free(n.name, ty)
        if isinstance(n, SLam):
            body = go(n.body, ((n.name, n.ty),) + binders)
            return lam(n.ty, body)
        if isinstance(n, SApp):
            return app(go(n.fun, binders), go(n.arg, binders))
        if isinstance(n, SPair):
            return pair(go(n.fst, binders), go(n.snd, binders))
        if isinstance(n, SProj):
            inner = go(n.arg, binders)
            return proj1(inner) if n.which == 1 else proj2(inner)
        return UNIT

    return go(node, ())


def parse_term(text: str, ctx: Context = EMPTY,
               aliases: dict[str, Ty] | None = None) -> Term:
    return elaborate(parse(text, aliases), ctx)


# ---------------------------------------------------------------------------
# Printing

def show_type(ty: Ty, names: dict[int, str] | None = None, _prec: int = 0) -> str:
    """Render a type; ``names`` maps type uids to alias identifiers."""
    if names is not None and ty.uid in names:
        return names[ty.uid]
    if isinstance(ty, TyAtom):
        return ty.name
    if isinstance(ty, TyTerminal):
        return "T"
    if isinstance(ty, TyArrow):
        inner = f"{show_type(ty.dom, names, 1)} -> {show_type(ty.cod, names, 0)}"
        return f"({inner})" if _prec >= 1 else inner
    inner = f"{show_type(ty.left, names, 1)} * {show_type(ty.right, names, 2)}"
    return f"({inner})" if _prec >= 2 else inner


def show_term(t: Term, type_names: dict[int, str] | None = None) -> str:
    """Render a term in surface syntax.  Binders are named x1, x2, ... by
    depth, skipping any names already taken by free variables."""
    taken = set(free_vars(t))

    def binder_name(depth):
        n = depth + 1
        name = f"x{n}"
        while name in taken:
            n += 1
            name = f"x{n}"
        return name

    def go(u, env, prec):
        # prec 0 = top, 1 = left of an application, 2 = argument position
        if isinstance(u, Var):
            return env[u.index]
        if isinstance(u, Free):
            return u.name
        if isinstance(u, Unit):
            return "k"
        if isinstance(u, Lam):
            name = binder_name(len(env))
            body = go(u.body, (name,) + env, 0)
            s = f"\\{name}:{show_type(u.binder, type_names)}. {body}"
            return f"({s})" if prec > 0 else s
        if isinstance(u, App):
            s = f"{go(u.fun, env, 1)} {go(u.arg, env, 2)}"
            return f"({s})" if prec > 1 else s
        if isinstance(u, Pair):
            return f"<{go(u.fst, env, 0)}, {go(u.snd, env, 0)}>"
        which = "p1" if isinstance(u, Proj1) else "p2"
        s = f"{which} {go(u.arg, env, 2)}"
        return f"({s})" if prec > 1 else s

    # Depth-indexed naming: binder at nesting depth d gets x(d+1).  The env
    # tuple keeps innermost-first names so Var indices look up directly.
    return go(t, (), 0)


def type_alias_table(roots: list[Term | Ty], prefix: str = "ty") -> tuple[list[tuple[str, str]], dict[int, str]]:
    """Build a shared-alias table for every compound type annotating the
    given terms (or listed directly).  Returns the definition list, each
    rendered one level deep, and the uid-to-name map used when printing.

    Tower types make inline rendering exponential; the table keeps the
    text linear in the number of distinct type nodes.
    """
    annotations: list[Ty] = []
    for r in roots:
        if isinstance(r, Ty):
            annotations.append(r)
        else:
            annotations.extend(u.binder if type(u) is Lam else u.ty
                               for u in subterms(r) if type(u) in (Var, Free, Lam))
    nodes = list(subtypes(*annotations))
    order = [ty for ty in nodes if type(ty) in (TyArrow, TyProd)]
    atom_names = {ty.name for ty in nodes if type(ty) is TyAtom}

    while any(f"{prefix}{i}" in atom_names for i in range(len(order))):
        prefix += "_"

    names: dict[int, str] = {}
    defs: list[tuple[str, str]] = []
    for i, ty in enumerate(order):
        name = f"{prefix}{i}"
        if isinstance(ty, TyArrow):
            lhs, rhs = ty.dom, ty.cod
            body = f"{show_type(lhs, names, 1)} -> {show_type(rhs, names, 0)}"
        else:
            body = f"{show_type(ty.left, names, 1)} * {show_type(ty.right, names, 2)}"
        defs.append((name, body))
        names[ty.uid] = name
    return defs, names


def parse_alias_table(defs: list[tuple[str, str]]) -> dict[str, Ty]:
    aliases: dict[str, Ty] = {}
    for name, body in defs:
        aliases[name] = parse_type(body, aliases)
    return aliases
