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
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

from .errors import (
    IllTyped,
    ParseError,
    ResourceExhausted,
    TypeMismatch,
    UnboundVariable,
)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

# Reentrant: building one node may intern its type under the same lock.
_LOCK = threading.RLock()


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
    if hit is not None:
        return hit
    with _LOCK:
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


def type_node_count(ty: Ty) -> int:
    """Number of distinct nodes in the shared representation of ``ty``."""
    seen = set()
    stack = [ty]
    while stack:
        t = stack.pop()
        if t.uid in seen:
            continue
        seen.add(t.uid)
        if isinstance(t, TyArrow):
            stack.append(t.dom)
            stack.append(t.cod)
        elif isinstance(t, TyProd):
            stack.append(t.left)
            stack.append(t.right)
    return len(seen)


def type_atoms(ty: Ty) -> set[str]:
    names = set()
    seen = set()
    stack = [ty]
    while stack:
        t = stack.pop()
        if t.uid in seen:
            continue
        seen.add(t.uid)
        if isinstance(t, TyAtom):
            names.add(t.name)
        elif isinstance(t, TyArrow):
            stack.append(t.dom)
            stack.append(t.cod)
        elif isinstance(t, TyProd):
            stack.append(t.left)
            stack.append(t.right)
    return names


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
    if hit is not None:
        return hit
    with _LOCK:
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

def _max_annotation_nodes(t: Term) -> int:
    """Largest shared node count over the annotation types in ``t``;
    used to keep reprs of tower-typed terms from rendering inline."""
    seen = set()
    worst = 0
    stack = [t]
    while stack:
        u = stack.pop()
        if u.uid in seen:
            continue
        seen.add(u.uid)
        worst = max(worst, type_node_count(u.ty))
        if isinstance(u, Lam):
            stack.append(u.body)
        elif isinstance(u, App):
            stack.extend((u.fun, u.arg))
        elif isinstance(u, Pair):
            stack.extend((u.fst, u.snd))
        elif isinstance(u, (Proj1, Proj2)):
            stack.append(u.arg)
    return worst


def free_vars(t: Term) -> dict[str, Ty]:
    """Free named variables of ``t`` in order of first occurrence."""
    out: dict[str, Ty] = {}
    seen_closed = set()

    def go(u):
        if u.uid in seen_closed:
            return
        if isinstance(u, Free):
            if u.name not in out:
                out[u.name] = u.ty
            elif out[u.name] is not u.ty:
                raise IllTyped(f"free variable '{u.name}' used at two types")
        elif isinstance(u, Lam):
            go(u.body)
        elif isinstance(u, App):
            go(u.fun)
            go(u.arg)
        elif isinstance(u, Pair):
            go(u.fst)
            go(u.snd)
        elif isinstance(u, (Proj1, Proj2)):
            go(u.arg)
        seen_closed.add(u.uid)

    # The "seen" cut is only sound for nodes already fully scanned; since a
    # shared node contributes the same names on every path, skipping repeats
    # preserves first-occurrence order of the names that remain new.
    go(t)
    return out


def is_closed(t: Term) -> bool:
    return not free_vars(t)


def shift(t: Term, by: int, cutoff: int = 0, _memo=None) -> Term:
    """Add ``by`` to every de Bruijn index >= cutoff."""
    if by == 0:
        return t
    if _memo is None:
        _memo = {}
    key = (t.uid, cutoff)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    if isinstance(t, Var):
        out = var(t.index + by, t.ty) if t.index >= cutoff else t
    elif isinstance(t, Lam):
        out = lam(t.binder, shift(t.body, by, cutoff + 1, _memo))
    elif isinstance(t, App):
        out = app(shift(t.fun, by, cutoff, _memo), shift(t.arg, by, cutoff, _memo))
    elif isinstance(t, Pair):
        out = pair(shift(t.fst, by, cutoff, _memo), shift(t.snd, by, cutoff, _memo))
    elif isinstance(t, Proj1):
        out = proj1(shift(t.arg, by, cutoff, _memo))
    elif isinstance(t, Proj2):
        out = proj2(shift(t.arg, by, cutoff, _memo))
    else:
        out = t
    _memo[key] = out
    return out


def abstract(body: Term, fv: Free, _depth: int = 0, _memo=None) -> Term:
    """Turn occurrences of the free variable ``fv`` into the index bound
    by a lambda wrapped immediately around ``body``."""
    if _memo is None:
        _memo = {}
    key = (body.uid, _depth)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    if body is fv:
        out = var(_depth, fv.ty)
    elif isinstance(body, (Var, Free, Unit)):
        out = body
    elif isinstance(body, Lam):
        out = lam(body.binder, abstract(body.body, fv, _depth + 1, _memo))
    elif isinstance(body, App):
        out = app(abstract(body.fun, fv, _depth, _memo), abstract(body.arg, fv, _depth, _memo))
    elif isinstance(body, Pair):
        out = pair(abstract(body.fst, fv, _depth, _memo), abstract(body.snd, fv, _depth, _memo))
    elif isinstance(body, Proj1):
        out = proj1(abstract(body.arg, fv, _depth, _memo))
    else:
        out = proj2(abstract(body.arg, fv, _depth, _memo))
    _memo[key] = out
    return out


def bind(body: Term, *fvs: Free) -> Term:
    """Close ``body`` over the given free variables, first one outermost."""
    for fv in reversed(fvs):
        body = lam(fv.ty, abstract(body, fv))
    return body


def substitute_term(a: Term, name: str, b: Term, _memo=None) -> Term:
    """Replace the free variable ``name`` by ``b`` throughout ``a``.

    ``b`` must have the variable's type.  Nameless binders make capture
    impossible: ``b`` has no loose indices, so it drops in unchanged at
    any depth.
    """
    if _memo is None:
        _memo = {}
    hit = _memo.get(a.uid)
    if hit is not None:
        return hit
    if isinstance(a, Free):
        if a.name == name:
            if a.ty is not b.ty:
                raise TypeMismatch(
                    f"substituting {show_type(b.ty)} for '{name}' : {show_type(a.ty)}")
            out = b
        else:
            out = a
    elif isinstance(a, (Var, Unit)):
        out = a
    elif isinstance(a, Lam):
        out = lam(a.binder, substitute_term(a.body, name, b, _memo))
    elif isinstance(a, App):
        out = app(substitute_term(a.fun, name, b, _memo),
                  substitute_term(a.arg, name, b, _memo))
    elif isinstance(a, Pair):
        out = pair(substitute_term(a.fst, name, b, _memo),
                   substitute_term(a.snd, name, b, _memo))
    elif isinstance(a, Proj1):
        out = proj1(substitute_term(a.arg, name, b, _memo))
    else:
        out = proj2(substitute_term(a.arg, name, b, _memo))
    _memo[a.uid] = out
    return out


def substitute_types(a: Term, mapping: dict[str, Ty], _memo=None, _tymemo=None) -> Term:
    """Apply an atom-to-type substitution to every annotation in ``a``."""
    if _memo is None:
        _memo = {}
        _tymemo = {}
    hit = _memo.get(a.uid)
    if hit is not None:
        return hit
    if isinstance(a, Var):
        out = var(a.index, subst_type(a.ty, mapping, _tymemo))
    elif isinstance(a, Free):
        out = free(a.name, subst_type(a.ty, mapping, _tymemo))
    elif isinstance(a, Lam):
        out = lam(subst_type(a.binder, mapping, _tymemo),
                  substitute_types(a.body, mapping, _memo, _tymemo))
    elif isinstance(a, App):
        out = app(substitute_types(a.fun, mapping, _memo, _tymemo),
                  substitute_types(a.arg, mapping, _memo, _tymemo))
    elif isinstance(a, Pair):
        out = pair(substitute_types(a.fst, mapping, _memo, _tymemo),
                   substitute_types(a.snd, mapping, _memo, _tymemo))
    elif isinstance(a, Proj1):
        out = proj1(substitute_types(a.arg, mapping, _memo, _tymemo))
    elif isinstance(a, Proj2):
        out = proj2(substitute_types(a.arg, mapping, _memo, _tymemo))
    else:
        out = a
    _memo[a.uid] = out
    return out


def term_atoms(a: Term) -> set[str]:
    """Atom names occurring in any type annotation of ``a``."""
    names: set[str] = set()
    seen = set()

    def go(u):
        if u.uid in seen:
            return
        seen.add(u.uid)
        names.update(type_atoms(u.ty))
        if isinstance(u, Lam):
            go(u.body)
        elif isinstance(u, App):
            go(u.fun)
            go(u.arg)
        elif isinstance(u, Pair):
            go(u.fst)
            go(u.snd)
        elif isinstance(u, (Proj1, Proj2)):
            go(u.arg)

    go(a)
    return names


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

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
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
    order: list[Ty] = []
    seen: set[int] = set()

    def visit_type(ty):
        if ty.uid in seen:
            return
        seen.add(ty.uid)
        if isinstance(ty, TyArrow):
            visit_type(ty.dom)
            visit_type(ty.cod)
            order.append(ty)
        elif isinstance(ty, TyProd):
            visit_type(ty.left)
            visit_type(ty.right)
            order.append(ty)

    term_seen: set[int] = set()

    def visit_term(u):
        if u.uid in term_seen:
            return
        term_seen.add(u.uid)
        if isinstance(u, (Var, Free)):
            visit_type(u.ty)
        elif isinstance(u, Lam):
            visit_type(u.binder)
            visit_term(u.body)
        elif isinstance(u, App):
            visit_term(u.fun)
            visit_term(u.arg)
        elif isinstance(u, Pair):
            visit_term(u.fst)
            visit_term(u.snd)
        elif isinstance(u, (Proj1, Proj2)):
            visit_term(u.arg)

    atom_names: set[str] = set()
    for r in roots:
        if isinstance(r, Ty):
            visit_type(r)
            atom_names |= type_atoms(r)
        else:
            visit_term(r)
            atom_names |= term_atoms(r)

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
