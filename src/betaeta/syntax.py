"""Types and terms of the simply typed lambda calculus with binary
products and a terminal type, plus parsing and printing.

Both types and terms are hash-consed: constructors return the unique
interned node for a given structure, so structural equality is object
identity and towers such as ``A -> A`` iterated sixty times stay linear
in memory.  Binders are nameless (de Bruijn indices); variables that are
free in a whole term are kept as named ``Free`` nodes, which makes
substitution of a term for a free variable capture-proof without any
shifting.  Each term node records at construction its ``scope``, one
more than its largest loose de Bruijn index, and ``named``, whether a
``Free`` node sits below it, so ``free_vars``, ``is_closed``, ``bind``
and ``substitute_term`` skip a closed subterm without walking it.  A
term built in code takes its binders from ``lams``, which gives the
body each binder's index directly, so building interns no throwaway
name.  Every term node carries its type, computed at construction;
building an ill-typed application or projection raises immediately.

Term and type text are each read in one pass over their tokens, with an
explicit stack, straight to interned nodes.

The interning tables and the ``memo`` tables, which keep a pure
builder's results for the life of the process, are module-level and
take no lock: the workbench runs in one thread, and callers that add
threads must serialize their use of this module.

``Record`` is the plain record class of the checker's certificates and
of the other modules' results; defining one generates no code.

The walks over terms and types go through three helpers that visit a
shared node once: ``subterms`` (preorder), ``subtypes`` (post-order) and
``map_term`` (a memoized bottom-up rebuild; once per binder depth when
the image depends on the depth).
"""

from __future__ import annotations

import re
import sys
from functools import wraps
from operator import attrgetter

from .errors import (
    IllTyped,
    ParseError,
    ResourceExhausted,
    TooLargeToPrint,
    TypeMismatch,
    UnboundVariable,
)

# From Python 3.11 a call between Python functions takes no C stack, so a
# deep recursion stops at the limit.  Before 3.11 every call takes C stack,
# and on an 8 MB stack (3.10.13) a limit of 20,000 already let deep input
# crash the interpreter; 10,000 keeps a margin of two
sys.setrecursionlimit(max(sys.getrecursionlimit(),
                          100_000 if sys.version_info >= (3, 11) else 10_000))


# ---------------------------------------------------------------------------
# Records

class Record:
    """A record whose fields are the names annotated in its class body, in
    order; a class attribute of the same name is that field's default, and
    a list default is copied for each record.  One constructor serves every
    record class, so defining one generates no code, where a dataclass
    writes and compiles its methods at import."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) == len(fields) and not kwargs:  # every field, in order
            self.__dict__.update(zip(fields, args))
            return
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}, each once")
        for name in fields[len(args):]:
            if name not in kwargs:
                if not hasattr(cls, name):
                    raise TypeError(f"{cls.__name__} is missing the field '{name}'")
                default = getattr(cls, name)
                kwargs[name] = default[:] if type(default) is list else default
        self.__dict__.update(zip(fields, args), **kwargs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Types

class Ty:
    __slots__ = ("uid",)

    def __repr__(self):
        if not fits_inline(self):
            return f"<type #{self.uid}, {type_node_count(self)} shared nodes>"
        return _show_type(self, None, 0)


class TyAtom(Ty):
    __slots__ = ("name",)


class TyTerminal(Ty):
    __slots__ = ()


class TyArrow(Ty):
    __slots__ = ("dom", "cod")


class TyProd(Ty):
    __slots__ = ("left", "right")


_TYPES: dict = {}


def _new_type(cls, key):
    """A new node of class ``cls`` for ``key``, numbered and interned; the
    caller fills in its fields.  Each constructor looks its key up first
    and builds a node only on a miss."""
    t = cls()
    t.uid = len(_TYPES)
    _TYPES[key] = t
    return t


def atom(name: str) -> TyAtom:
    if name == "T":
        raise IllTyped("'T' is reserved for the terminal type")
    key = ("atom", name)
    t = _TYPES.get(key)
    if t is None:
        t = _new_type(TyAtom, key)
        t.name = name
    return t


TERMINAL: TyTerminal = _new_type(TyTerminal, ("T",))


def arrow(dom: Ty, cod: Ty) -> TyArrow:
    key = ("->", dom.uid, cod.uid)
    t = _TYPES.get(key)
    if t is None:
        t = _new_type(TyArrow, key)
        t.dom = dom
        t.cod = cod
    return t


def prod(left: Ty, right: Ty) -> TyProd:
    key = ("*", left.uid, right.uid)
    t = _TYPES.get(key)
    if t is None:
        t = _new_type(TyProd, key)
        t.left = left
        t.right = right
    return t


def arrows(*tys: Ty) -> Ty:
    """Right-nested arrow over the given types: arrows(A, B, C) = A -> (B -> C)."""
    result = tys[-1]
    for t in reversed(tys[:-1]):
        result = arrow(t, result)
    return result


# per base type uid: its tower types by level, grown on demand
_TOWERS: dict = {}


def tower_type(i: int, base: Ty | None = None) -> Ty:
    """The i-th iterate of A -> A starting from the atom p (or ``base``)."""
    t = base if base is not None else atom("p")
    levels = _TOWERS.setdefault(t.uid, [t])
    while len(levels) <= i:
        levels.append(arrow(levels[-1], levels[-1]))
    return levels[i] if i > 0 else t


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


# the most type nodes, written out as trees, that a type or a term prints
# inline; past it a term prints with a type-alias table
INLINE_NODES = 1024
# the most that ``show_term`` writes out with no alias table: a text of a
# few tens of MB at most; past it the term is refused
PRINT_NODES = 1 << 22


def fits_inline(root: Ty | Term, limit: int = INLINE_NODES) -> bool:
    """Whether ``root`` prints inline in bounded text: a type, or the
    types of a term's subterms, written out as trees take at most
    ``limit`` nodes in all.  Each distinct node is visited once and its
    tree size stops just past the cap, so a shared tower costs its
    distinct nodes, not its unfolded tree."""
    roots = {root} if isinstance(root, Ty) else {u.ty for u in subterms(root)}
    cap = limit + 1
    size: dict[int, int] = {}
    for t in subtypes(*roots):  # children first
        cls = type(t)
        if cls is TyArrow:
            n = 1 + size[t.dom.uid] + size[t.cod.uid]
        elif cls is TyProd:
            n = 1 + size[t.left.uid] + size[t.right.uid]
        else:
            n = 1
        size[t.uid] = min(n, cap)
    return sum(size[t.uid] for t in roots) <= limit


def type_atoms(ty: Ty) -> set[str]:
    return {t.name for t in subtypes(ty) if type(t) is TyAtom}


def subst_type(ty: Ty, mapping: dict[str, Ty]) -> Ty:
    """Replace atoms by types throughout ``ty`` (uniform replacement)."""
    out: dict[int, Ty] = {}
    for t in subtypes(ty):  # children first
        cls = type(t)
        if cls is TyArrow:
            out[t.uid] = arrow(out[t.dom.uid], out[t.cod.uid])
        elif cls is TyProd:
            out[t.uid] = prod(out[t.left.uid], out[t.right.uid])
        else:
            out[t.uid] = mapping.get(t.name, t) if cls is TyAtom else t
    return out[ty.uid]


def is_product_free(ty: Ty) -> bool:
    return all(type(t) in (TyAtom, TyArrow) for t in subtypes(ty))


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
    # scope: one more than the largest free de Bruijn index, 0 when closed;
    # named: whether a Free node sits anywhere below (or at) this node
    __slots__ = ("uid", "ty", "scope", "named")

    def __repr__(self):
        if not fits_inline(self):
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


def set_node_budget(n: int | None) -> int | None:
    """Cap the distinct interned term nodes (None = unlimited); returns the old cap."""
    old, _NODE_BUDGET[0] = _NODE_BUDGET[0], n
    return old


def interned_term_count() -> int:
    return len(_TERMS)


def _new_term(cls, key):
    """A new node of class ``cls`` for ``key``, numbered and interned; the
    caller fills in its fields."""
    budget = _NODE_BUDGET[0]
    if budget is not None and len(_TERMS) >= budget:
        raise ResourceExhausted(
            f"term interner exceeded {budget} nodes; raise the budget to continue")
    t = cls()
    t.uid = len(_TERMS)
    _TERMS[key] = t
    return t


_MEMOS: dict[str, dict] = {}  # every memo table, by its builder's name


def memo(key):
    """Keep a pure builder's results for the life of the process.  ``key``
    maps its arguments to uids, ints and strings, so no argument object is
    kept alive; a call that raises stores nothing."""
    # applied where the builder is defined, so that its recursive calls
    # and a patch of its module attribute both go through the table
    def decorate(fn):
        table = _MEMOS[f"{fn.__module__}.{fn.__qualname__}"] = {}

        @wraps(fn)
        def memoized(*args, **kwargs):
            k = key(*args, **kwargs)
            out = table.get(k)
            if out is None:
                out = table[k] = fn(*args, **kwargs)
            return out
        return memoized
    return decorate


# A node that is already interned was type-checked when it was built, so
# each constructor returns a hit before it checks anything.

def var(index: int, ty: Ty) -> Var:
    key = ("v", index, ty.uid)
    t = _TERMS.get(key)
    if t is None:
        t = _new_term(Var, key)
        t.index = index
        t.ty = ty
        t.scope = index + 1
        t.named = False
    return t


def free(name: str, ty: Ty) -> Free:
    key = ("f", name, ty.uid)
    t = _TERMS.get(key)
    if t is None:
        t = _new_term(Free, key)
        t.name = name
        t.ty = ty
        t.scope = 0
        t.named = True
    return t


def lam(binder: Ty, body: Term) -> Lam:
    key = ("l", binder.uid, body.uid)
    t = _TERMS.get(key)
    if t is None:
        t = _new_term(Lam, key)
        t.binder = binder
        t.body = body
        t.ty = arrow(binder, body.ty)
        t.scope = max(body.scope - 1, 0)
        t.named = body.named
    return t


def app(fun: Term, arg: Term) -> App:
    key = ("a", fun.uid, arg.uid)
    t = _TERMS.get(key)
    if t is not None:
        return t
    fty = fun.ty
    if not isinstance(fty, TyArrow):
        raise IllTyped(f"cannot apply a term of non-arrow type {fty!r}")
    if fty.dom is not arg.ty:
        raise IllTyped(
            f"argument type {arg.ty!r} does not match domain {fty.dom!r}")
    t = _new_term(App, key)
    t.fun = fun
    t.arg = arg
    t.ty = fty.cod
    t.scope = max(fun.scope, arg.scope)
    t.named = fun.named or arg.named
    return t


def apps(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = app(fun, a)
    return fun


def pair(fst: Term, snd: Term) -> Pair:
    key = ("p", fst.uid, snd.uid)
    t = _TERMS.get(key)
    if t is None:
        t = _new_term(Pair, key)
        t.fst = fst
        t.snd = snd
        t.ty = prod(fst.ty, snd.ty)
        t.scope = max(fst.scope, snd.scope)
        t.named = fst.named or snd.named
    return t


def _proj(cls, tag, arg):
    key = (tag, arg.uid)
    t = _TERMS.get(key)
    if t is not None:
        return t
    ty = arg.ty
    if not isinstance(ty, TyProd):
        raise IllTyped(f"cannot project from non-product type {ty!r}")
    t = _new_term(cls, key)
    t.arg = arg
    t.ty = ty.left if cls is Proj1 else ty.right
    t.scope = arg.scope
    t.named = arg.named
    return t


def proj1(arg: Term) -> Proj1:
    return _proj(Proj1, "1", arg)


def proj2(arg: Term) -> Proj2:
    return _proj(Proj2, "2", arg)


UNIT: Unit = _new_term(Unit, ("k",))
UNIT.ty = TERMINAL
UNIT.scope = 0
UNIT.named = False


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

    def lookup(self, name: str) -> Ty:
        ty = self._index.get(name)
        if ty is None:
            raise UnboundVariable(f"variable '{name}' is not bound in the context")
        return ty

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

def subterms(t: Term, skip=None):
    """Each distinct node of ``t`` once, in left-to-right preorder: a node
    comes before its children, a function before its argument and a
    pair's first component before its second.  A node for which
    ``skip(u)`` holds is left out with everything below it.  Iterative,
    so depth is no limit."""
    seen = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u.uid in seen or (skip is not None and skip(u)):
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

    try:
        return go(t, depth or 0)
    finally:
        del go  # go reaches itself through its cell: break the cycle, leave no garbage


def free_vars(t: Term) -> dict[str, Ty]:
    """Free named variables of ``t`` in order of first occurrence."""
    out: dict[str, Ty] = {}
    if not t.named:
        return out
    for u in subterms(t, skip=lambda u: not u.named):
        if type(u) is Free and out.setdefault(u.name, u.ty) is not u.ty:
            raise IllTyped(f"free variable '{u.name}' used at two types")
    return out


def is_closed(t: Term) -> bool:
    """No free variable: neither a named one nor a loose de Bruijn index."""
    return t.scope == 0 and not t.named


def shift(t: Term, by: int) -> Term:
    """Add ``by`` to every loose de Bruijn index."""
    if by == 0:
        return t
    return map_term(t, lambda u, d: var(u.index + by, u.ty), depth=0,
                    keep=lambda u, d: u.scope <= d)  # no index at or above d


def bind(body: Term, *fvs: Free) -> Term:
    """Close ``body`` over the named free variables ``fvs``, first one
    outermost, in one pass.  This is for variables a user named, such as
    the free variables of a source; a term built from scratch gets its
    binders from ``lams``."""
    n = len(fvs)
    index = {fv: n - 1 - j for j, fv in enumerate(fvs)}  # the innermost wins

    def leaf(u, d):
        k = index.get(u)
        return u if k is None else var(d + k, u.ty)

    body = map_term(body, leaf, depth=0, keep=lambda u, d: not u.named)
    for fv in reversed(fvs):
        body = lam(fv.ty, body)
    return body


_DEPTH = [0]  # binders open around the body ``lams`` is building


def lams(*tys_then_body) -> Term:
    """``lams(ty1, ..., tyn, body_fn)`` is the term ``\\x1:ty1. ... \\xn:tyn.
    body``, where ``body_fn`` is called with one handle per binder and
    returns the body.  A handle is a zero-argument callable that gives the
    ``Var`` of its binder at the depth where it is called, so a body built
    inside nested ``lams`` calls needs no names and no renaming pass.  A
    closed term built inside ``body_fn`` is the same node as one built
    anywhere else.  A handle is valid only while ``body_fn`` runs."""
    *tys, body_fn = tys_then_body
    d = _DEPTH[0]
    handles = [_handle(d + j, ty) for j, ty in enumerate(tys)]
    _DEPTH[0] = d + len(tys)
    try:
        body = body_fn(*handles)
    finally:
        _DEPTH[0] = d
    for ty in reversed(tys):
        body = lam(ty, body)
    return body


def _handle(level: int, ty: Ty):
    return lambda: var(_DEPTH[0] - 1 - level, ty)


def substitute_term(a: Term, name: str, b: Term) -> Term:
    """Replace the free variable ``name`` by ``b`` throughout ``a``.

    ``b`` must have the variable's type.  Nameless binders make capture
    impossible: ``b`` has no loose indices, so it drops in unchanged at
    any depth.
    """
    def leaf(u, d):  # a Free node: the others are kept
        if u.name != name:
            return u
        if u.ty is not b.ty:
            raise TypeMismatch(
                f"substituting {b.ty!r} for '{name}' : {u.ty!r}")
        return b

    return map_term(a, leaf, keep=lambda u, d: not u.named)


@memo(lambda a, mapping: (a.uid, tuple(sorted((n, t.uid) for n, t in mapping.items()))))
def substitute_types(a: Term, mapping: dict[str, Ty]) -> Term:
    """Apply an atom-to-type substitution to every annotation in ``a``."""
    def ty(t):
        return subst_type(t, mapping)

    def leaf(u, d):
        cls = type(u)
        if cls is Var:
            return var(u.index, ty(u.ty))
        return free(u.name, ty(u.ty)) if cls is Free else u

    return map_term(a, leaf, binder=ty)


@memo(lambda a: a.uid)
def term_atoms(a: Term) -> frozenset[str]:
    """Atom names occurring in any type annotation of ``a``."""
    return frozenset(t.name for t in subtypes(*(u.ty for u in subterms(a))) if type(t) is TyAtom)


def type_of(a: Term, ctx: Context = EMPTY) -> Ty:
    """Recompute the type of ``a`` from scratch, checking every node and
    that each free variable is bound in ``ctx`` at its annotated type."""

    def go(u, binders):
        cls = type(u)
        if cls is Var:
            if u.index >= len(binders):
                raise UnboundVariable(f"loose bound variable index {u.index}")
            if binders[u.index] is not u.ty:
                raise IllTyped("bound variable annotation disagrees with its binder")
            return u.ty
        if cls is Free:
            ty = ctx.lookup(u.name)
            if ty is not u.ty:
                raise IllTyped(
                    f"'{u.name}' has type {ty!r} in the context but is annotated {u.ty!r}")
            return ty
        if cls is Lam:
            return arrow(u.binder, go(u.body, (u.binder,) + binders))
        if cls is App:
            fty, aty = go(u.fun, binders), go(u.arg, binders)
            if type(fty) is not TyArrow or fty.dom is not aty:
                raise IllTyped("application of mismatched types")
            return fty.cod
        if cls is Pair:
            return prod(go(u.fst, binders), go(u.snd, binders))
        if cls is Proj1 or cls is Proj2:
            ty = go(u.arg, binders)
            if type(ty) is not TyProd:
                which = "first" if cls is Proj1 else "second"
                raise IllTyped(f"{which} projection from a non-product")
            return ty.left if cls is Proj1 else ty.right
        return TERMINAL

    try:
        ty = go(a, ())
    finally:
        del go
    if ty is not a.ty:
        raise IllTyped("term annotation disagrees with the computed type")
    return ty


# ---------------------------------------------------------------------------
# Surface syntax
#
# A term is "\x:TY. TERM" or atoms applied in turn, the last of which may
# be such a lambda, so a lambda in argument position reaches as far as it
# can; an atom is "(TERM)", "<TERM, TERM>", "p1 ATOM", "p2 ATOM", "k" or a
# name.  A type is "TY -> TY" (to the right), "TY * TY" (to the left, and
# binding tighter), "(TY)", "T" or a name.
#
# A text is read as its list of tokens, ending in None, by index, with no
# cursor object: ``_read_type`` reads a type, also each binder annotation
# from inside the term pass ``_term_pass``.  Both keep their open frames
# on a list, so nesting depth is no limit, and intern each node as it
# closes.  A token's kind is looked up in the module's constant sets, to
# which a non-ASCII text adds its characters that are no letter.  An
# error's position is worked out from the text and the token's index only
# when the error is raised.  After a type error ``_read_term`` reads the
# text again without building, so a syntax error anywhere in it wins.
#
# The token pattern reads a text, but an ASCII text longer than
# ``_LONG_TEXT`` is tokenized by C string passes: each character that is
# always a token on its own (the ASCII punctuation but "_", "'", "-" and
# ">") is spaced out, the text is split at whitespace, and each distinct
# piece must be one token of the pattern.  No token of the pattern spans a
# space or such a character, so the pieces are then the pattern's tokens.
# If a piece is more than one token ("1x", "a->b"), the pattern reads the
# text after all.  On a certificate's term text the passes take about 0.6
# of the pattern's time from some 300 characters up and break even near
# 130; a text that falls back pays both, so the threshold is 512.  A text
# with a "<" goes to the pattern at once: a pair as ``show_term`` prints
# it ends in a piece such as "x2>", two tokens, since ">" is not spaced
# out (it may end "->").

# a token is "->", a name, or any other character that is not a space; a
# name starts with a letter or "_" and goes on with letters, digits, "_"
# and "'"
_TOKEN = re.compile(r"->|[^\W\d][\w']*|\S")
_ASCII_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|\S")  # the same on ASCII, faster
_SPACE = re.compile(r"\s*")


def _is_name(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"


_LONG_TEXT = 512
# each ASCII character that is always a token on its own, spaced out: the
# punctuation but "_" and "'", which go on names, and "-" and ">" of "->"
_SOLO = [(c, f" {c} ") for c in map(chr, range(33, 127)) if not (c.isalnum() or c in "_'->")]


def _split(text: str) -> list | None:
    """The tokens of an ASCII text read by C string passes, or None when
    some piece between spaces is not one token (``1x``, ``a->b``)."""
    for c, spaced in _SOLO:
        if c in text:  # a search, where replace would count through the text
            text = text.replace(c, spaced)
    toks = text.split()
    return toks if all(map(_ASCII_TOKEN.fullmatch, set(toks))) else None


def _tokenize(text: str) -> list:
    """The tokens of ``text``, then None for the end."""
    if str.isascii(text):  # a TypeError for text that is no string
        toks = _split(text) if len(text) > _LONG_TEXT and "<" not in text else None
        if toks is None:
            toks = _ASCII_TOKEN.findall(text)
    else:
        toks, pos = [], 0
        while (m := _TOKEN.search(text, pos)) is not None:
            tok = m.group()
            # [^\W\d] also matches a numeric character that is no digit,
            # such as "²", and that starts no name: it is a token on its own
            if len(tok) > 1 and not _is_name(tok) and tok != "->":
                tok = tok[0]
            toks.append(tok)
            pos = m.start() + len(tok)
    toks.append(None)
    return toks


def _start(text: str, toks: list, i: int) -> int:
    """Where token ``i`` starts, past the spaces before it; the end of the
    text for the end token."""
    pos = 0
    for tok in toks[:i]:
        pos = _SPACE.match(text, pos).end() + len(tok)
    return _SPACE.match(text, pos).end()


def _expected(text: str, toks: list, i: int, want: str) -> ParseError:
    """The error for token ``i``, which is not ``want``."""
    found = toks[i]
    return ParseError("unexpected end of input" if found is None
                      else f"expected '{want}', found '{found}'", _start(text, toks, i))


def _read_type(text: str, toks: list, i: int, aliases) -> tuple[Ty, int]:
    """The type whose text starts at token ``i``, and the index past it.
    The stack holds the domains of the arrows open at each level, above a
    one-tuple for each open parenthesis with the product read before it."""
    stack = []
    left = None  # the product read so far at the innermost level
    while True:
        tok = toks[i]
        i += 1
        if tok == "(":
            stack.append((left,))
            left = None
            continue
        if tok == "T":
            ty = TERMINAL
        elif tok is not None and _is_name(tok):
            ty = aliases and aliases.get(tok) or atom(tok)
        else:
            raise ParseError("expected a type" if tok is None else f"unexpected '{tok}' in type",
                             _start(text, toks, i - 1))
        while True:  # the atom ``ty`` is complete
            left = ty if left is None else prod(left, ty)
            tok = toks[i]
            if tok == "*" or tok == "->":
                if tok == "->":
                    stack.append(left)
                    left = None
                i += 1
                break
            # the level ends: its arrows, to the right
            while stack and type(stack[-1]) is not tuple:
                left = arrow(stack.pop(), left)
            if not stack:
                return left, i
            if tok != ")":
                raise _expected(text, toks, i, ")")
            i += 1
            ty = left
            (left,) = stack.pop()


def parse_type(text: str, aliases: dict[str, Ty] | None = None) -> Ty:
    toks = _tokenize(text)
    ty, i = _read_type(text, toks, 0, aliases)
    if toks[i] is not None:
        raise ParseError(f"trailing input '{toks[i]}'", _start(text, toks, i))
    return ty


def parse(text: str, aliases: dict[str, Ty] | None = None) -> tuple:
    """Term text as tokens for ``elaborate``, with the type ``aliases``."""
    return text, _tokenize(text), aliases


def elaborate(lexed: tuple, ctx: Context = EMPTY) -> Term:
    """The nameless interned term of lexed text, typed against ``ctx``."""
    return _read_term(*lexed, ctx)


def parse_term(text: str, ctx: Context = EMPTY,
               aliases: dict[str, Ty] | None = None) -> Term:
    return _read_term(text, _tokenize(text), aliases, ctx)


def _read_term(text: str, toks: list, aliases, ctx: Context) -> Term:
    """The term that ``toks`` spell, typed against ``ctx``; a syntax error
    anywhere in the text wins over a type error before it."""
    try:
        return _term_pass(text, toks, aliases, ctx, _BUILD)
    except (IllTyped, UnboundVariable, ResourceExhausted):
        # read the text again without building: a syntax error is raised
        # from there, and this error only when there is none
        _term_pass(text, toks, aliases, ctx, _CHECK)
        raise


def _free_in(name: str, ctx: Context) -> Free:
    return free(name, ctx.lookup(name))


# the node makers of a pass that builds, and of one that only checks the
# syntax: var, free, app, lam, pair, proj1, proj2
_BUILD = (var, _free_in, app, lam, pair, proj1, proj2)
_CHECK = (lambda *_: UNIT,) * 7

# the tokens of an ASCII text that are no name (the end among them), that
# are no variable, and that start no atom; in other text a character that
# is no letter may also be a token on its own
_NOT_NAMES = frozenset([c for c in map(chr, range(128)) if not _is_name(c)] + ["->", None])
_NOT_VARIABLES = _NOT_NAMES | {"p1", "p2", "k"}
_ENDS = _NOT_NAMES - {"(", "\\", "<"}

# A frame of ``_term_pass`` is (tag, the application read so far in it,
# extra).  A frame that waits for a closing token is tagged with it: ")"
# for a parenthesis, "," and ">" for the halves of a pair (the second
# half's extra is the first), and None, the end, for the whole text.  A
# lambda's extra is its binder type, its name and the binding the name
# had before; a projection's is its maker.
_LAM, _PROJ = "lam", "proj"


def _term_pass(text: str, toks: list, aliases, ctx: Context, make) -> Term:
    """The innermost open frame is in three locals and the outer ones on a
    stack; a frame's node is made as it closes."""
    mk_var, mk_free, mk_app, mk_lam, mk_pair, mk_proj1, mk_proj2 = make
    not_variables, ends = _NOT_VARIABLES, _ENDS
    if not text.isascii():
        odd = {tok for tok in toks[:-1] if tok not in _NOT_NAMES and not _is_name(tok)}
        not_variables, ends = not_variables | odd, ends | odd
    bound: dict = {}  # name -> (binder level, type) of its innermost binder
    depth = 0  # binders open
    stack = []
    tag = acc = extra = None
    i = 0
    while True:
        # an atom comes next, or a lambda unless right after p1 or p2
        tok = toks[i]
        i += 1
        if tok not in not_variables:
            hit = bound.get(tok)
            a = mk_var(depth - 1 - hit[0], hit[1]) if hit else mk_free(tok, ctx)
        elif tok == "\\" and tag is not _PROJ:
            name = toks[i]
            if name in not_variables or name == "T":
                if name is None:
                    raise ParseError("unexpected end of input", _start(text, toks, i))
                raise ParseError(f"bad binder name '{name}'", _start(text, toks, i) + len(name))
            if toks[i + 1] != ":":
                raise _expected(text, toks, i + 1, ":")
            ty = toks[i + 2]
            if ty not in not_variables and toks[i + 3] == ".":  # one name, read as _read_type would
                ty = TERMINAL if ty == "T" else aliases and aliases.get(ty) or atom(ty)
                i += 4
            else:
                ty, i = _read_type(text, toks, i + 2, aliases)
                if toks[i] != ".":
                    raise _expected(text, toks, i, ".")
                i += 1
            stack.append((tag, acc, extra))
            tag, acc, extra = _LAM, None, (ty, name, bound.get(name))
            bound[name] = (depth, ty)
            depth += 1
            continue
        elif tok == "(" or tok == "<":
            stack.append((tag, acc, extra))
            tag, acc = (")" if tok == "(" else ","), None
            continue
        elif tok == "p1" or tok == "p2":
            stack.append((tag, acc, extra))
            tag, acc, extra = _PROJ, None, (mk_proj1 if tok == "p1" else mk_proj2)
            continue
        elif tok == "k":
            a = UNIT
        else:
            raise ParseError("expected a term" if tok is None else f"unexpected '{tok}'",
                             _start(text, toks, i - 1))
        while True:  # the atom ``a`` is complete
            while tag is _PROJ:
                a = extra(a)
                tag, acc, extra = stack.pop()
            acc = a if acc is None else mk_app(acc, a)
            tok = toks[i]
            if tok not in ends:
                break
            # the term of the innermost frame ends before ``tok``
            if tag is _LAM:
                ty, name, outer = extra
                bound[name] = outer
                depth -= 1
                a = mk_lam(ty, acc)  # the last atom of the term around it
                tag, acc, extra = stack.pop()
                continue
            if tok != tag:
                if tag is None:
                    raise ParseError(f"trailing input '{tok}'", _start(text, toks, i))
                raise _expected(text, toks, i, tag)
            if tok is None:
                return acc
            i += 1
            if tok == ",":
                tag, acc, extra = ">", None, acc
                break
            a = acc if tok == ")" else mk_pair(extra, acc)
            tag, acc, extra = stack.pop()


# ---------------------------------------------------------------------------
# Printing

def show_type(ty: Ty, names: dict[int, str] | None = None) -> str:
    """Render a type; ``names`` maps type uids to alias identifiers.
    Without it, a type of more than ``PRINT_NODES`` nodes written out
    (``fits_inline`` with that limit) raises ``TooLargeToPrint``, since
    its text could outgrow memory."""
    if names is None and not _printable(ty):
        raise TooLargeToPrint(f"type #{ty.uid} has more than {PRINT_NODES} nodes written out;"
                              " print it with the names of type_alias_table")
    return _show_type(ty, names, 0)


@memo(lambda ty: ty.uid)
def _printable(ty: Ty) -> bool:
    # asked once per type: a small type's walk costs several times its text
    return fits_inline(ty, PRINT_NODES)


def _show_type(ty: Ty, names: dict[int, str] | None, prec: int) -> str:
    if names is not None and ty.uid in names:
        return names[ty.uid]
    if isinstance(ty, TyAtom):
        return ty.name
    if isinstance(ty, TyTerminal):
        return "T"
    if isinstance(ty, TyArrow):
        inner = f"{_show_type(ty.dom, names, 1)} -> {_show_type(ty.cod, names, 0)}"
        return f"({inner})" if prec >= 1 else inner
    inner = f"{_show_type(ty.left, names, 1)} * {_show_type(ty.right, names, 2)}"
    return f"({inner})" if prec >= 2 else inner


def show_term(t: Term, type_names: dict[int, str] | None = None) -> str:
    """Render a term in surface syntax.  The binder at depth d is named
    x<n>, where n is the least number above the one of depth d-1 (above 0
    at depth 0) such that no free variable is named x<n>; with no free
    x<n>, that is x1, x2, ...  Distinct depths get distinct names, so the
    text parses back to ``t``.  ``type_names`` maps the uids of compound
    types to alias identifiers, as ``type_alias_table`` gives them.
    Without it, a term whose types written out take more than
    ``PRINT_NODES`` nodes (``fits_inline`` with that limit) raises
    ``TooLargeToPrint``, since its text could outgrow memory.  The text is
    one list of pieces, joined once, so it takes time linear in its length."""
    if type_names is None and not fits_inline(t, PRINT_NODES):
        raise TooLargeToPrint(f"term #{t.uid} has types of more than {PRINT_NODES} nodes written"
                              " out; print it with the names of type_alias_table")
    taken = free_vars(t)
    names: list[str] = []  # names[d]: the binder at depth d
    last = 0  # the number in the deepest binder's name
    binder_types: dict[Ty, str] = {}  # each distinct binder type but an atom, rendered once

    out: list[str] = []  # the text's pieces, joined once at the end
    put = out.append

    def go(u, depth, prec):
        # prec 0 = top, 1 = left of an application, 2 = argument position
        nonlocal last
        cls = type(u)
        if cls is Var:
            return put(names[depth + ~u.index])
        if cls is Pair:
            put("<")
            go(u.fst, depth, 0)
            put(", ")
            go(u.snd, depth, 0)
            return put(">")
        if cls is Free or cls is Unit:
            return put("k" if cls is Unit else u.name)
        wrap = prec > (cls is not Lam)  # a lambda past the top, the others as arguments
        if wrap:
            put("(")
        if cls is App:
            go(u.fun, depth, 1)
            put(" ")
            arg = u.arg  # a variable argument is named here, without a call
            put(names[depth + ~arg.index]) if type(arg) is Var else go(arg, depth, 2)
        elif cls is Lam:
            if depth == len(names):  # the first binder this deep
                last += 1
                while (name := f"x{last}") in taken:
                    last += 1
                names.append(name)
            ty = u.binder  # an atom is never aliased
            ty = ty.name if type(ty) is TyAtom else (
                binder_types.get(ty) or binder_types.setdefault(ty, _show_type(ty, type_names, 0)))
            put(f"\\{names[depth]}:{ty}. ")
            go(u.body, depth + 1, 0)
        else:
            put("p1 " if cls is Proj1 else "p2 ")
            go(u.arg, depth, 2)
        if wrap:
            put(")")

    try:
        go(t, 0, 0)
    finally:
        del go
    return "".join(out)


def type_alias_table(roots: list[Term | Ty]) -> tuple[list[tuple[str, str]], dict[int, str]]:
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
            annotations.extend(_annotations(r))
    nodes = list(subtypes(*dict.fromkeys(annotations)))  # each root once
    order = [ty for ty in nodes if type(ty) in (TyArrow, TyProd)]
    atom_names = {ty.name for ty in nodes if type(ty) is TyAtom}
    # an alias is the prefix and a numeral below len(order), as an f-string
    # writes it, so only an atom named so clashes; the prefix holds no
    # regex syntax
    prefix = "ty"
    while any(re.fullmatch(prefix + "(0|[1-9][0-9]*)", name)
              and int(name[len(prefix):]) < len(order) for name in atom_names):
        prefix += "_"

    names: dict[int, str] = {}
    defs: list[tuple[str, str]] = []
    for i, ty in enumerate(order):
        name = f"{prefix}{i}"
        defs.append((name, show_type(ty, names)))  # before ``ty`` has a name
        names[ty.uid] = name
    return defs, names


@memo(lambda root: root.uid)
def _annotations(root: Term) -> tuple[Ty, ...]:
    """The distinct types annotating ``root``'s variables and binders."""
    return tuple(dict.fromkeys([u.binder if type(u) is Lam else u.ty
                                for u in subterms(root) if type(u) in (Var, Free, Lam)]))


def parse_alias_table(defs: list[tuple[str, str]]) -> dict[str, Ty]:
    aliases: dict[str, Ty] = {}
    for name, body in defs:
        aliases[name] = parse_type(body, aliases)
    return aliases
