"""Normalization and the decision procedure for beta-eta equality.

The engine evaluates terms into a semantic domain of closures and
neutrals and reads values back in eta-long form directed by the type.
Equality of two terms is decided by evaluating both and comparing the
values type-directedly, which walks the (small) shared beta-skeleton
instead of materializing eta-long trees that grow exponentially at
iterated arrow types.

Every value of terminal type reads back as the unit constant, so the
terminal equation holds definitionally.  A contracted normal form is
obtained from the long form by one bottom-up eta-contraction pass.  A
plain beta normal form (no eta in either direction) is available as a
diagnostic to exhibit equalities whose proofs genuinely need eta.

Values are plain containers with their serial number first, so ``v[0]``
is the serial of every value, and none is built by a constructor frame.
A closure is the tuple ``(sid, code, env, binder)`` and a delayed
argument (a thunk) the list ``[sid, code, env, value]``.  The rest are
named tuples built by ``tuple.__new__``: ``VPair(sid, fst, snd)``,
``VUnit(sid)``, and a neutral, one value with its serial first and its
type second, ``NVar(sid, ty, level)``, ``NFree(sid, ty, name)``,
``NApp(sid, ty, fn, arg, arg_ty)`` or ``NProj(sid, ty, which, arg)``,
whose ``fn`` and projected ``arg`` are neutrals (Berger and
Schwichtenberg, "An inverse of the evaluation functional for typed
lambda-calculus", 1991).  The evaluator dispatches on the exact
type: ``tuple`` is a closure, ``list`` a thunk, and a named tuple is
neither.  The finite-model evaluator in ``models`` also represents a
closure as a tuple, ``(body, env)``, so both evaluators build closures
without a class.

Evaluation is call-by-need.  An argument that is itself an application
with a free de Bruijn index becomes a thunk: its environment and its
code, evaluated at most once, where a value's shape is first needed (in
function position, under a projection, in ``values_equal``, in either
readback, and as the result of ``eval_term`` or of a closed node, where
a thunk is read as ``t[3] or _force(t)``, with no call for a forced one,
since every value is a non-empty container and so true).  So a
numeral conditional of a separating context evaluates only the branch it
keeps.  Every other argument (a variable, a lambda, a closed term) is
evaluated where it stands.  A thunk's code may return another unforced
thunk, whose code may return a third, and so on; forcing follows such a
chain in a loop, so its length takes no Python stack, and then writes
the final value and its serial into every thunk of the chain, the rule
of lazy graph reducers that update a whole indirection chain (Peyton
Jones, "Implementing lazy functional languages on stock hardware", 1992).
The steps are counted in the order a recursion would count them, and a
budget that trips part way leaves every thunk of the chain unforced.

Each interned term node is compiled once, on first evaluation, into a
Python closure that evaluates it in an environment tuple: a variable is
an ``itemgetter``, and an application node compiles its whole open
spine ``h a1 ... an`` into one entry that applies the head to each
argument in turn.  The spine goes down only through application nodes
with a free de Bruijn index, so a closed sub-spine keeps its own entry
and its shared value.  Where a closure misses the application table and
its body is an open lambda, the spine's next argument goes straight
into the environment and evaluation moves on to the inner body, so the
closures in between are never built: the arity rule of eval/apply
(Marlow and Peyton Jones, "Making a fast curry", 2004).  As there, the
entry is picked by arity when the spine is compiled: nearly every spine
has one or two arguments, and each of those has straight-line code (so
does ``apply_value``, the one-argument entry); a spine of three or more
runs the general loop.  All of them count steps, check the budget, take
serials and fill the application table in the same order.  A lambda or
a delayed argument compiles to a Python lambda that builds its tuple or
list on the environment, one frame with no constructor call; no C-level
callable that evaluates sits on the recursive path, where it would add
C stack to every level.  Lambda bodies, closed nodes and delayed
arguments are the entry points.

Terms are hash-consed, so a closed subterm (``scope`` 0: no free de
Bruijn index) has one value whatever environment it meets; it is
computed once, in the empty environment, into a table keyed by uid.
The result of applying a closure to an argument is kept in a second
table keyed by one int made of the two values' serial numbers, which
come from a process-wide counter that is never reset (the ``Free``
neutrals compiled into the code outlive every scope).  A thunk has a
serial of its own until it is forced and its value's serial after, so
a forced thunk meets the entries of its value; an unforced one meets
none, so distinct arguments that share a value are each applied anew.
Only an application that bound one argument keeps an entry: a partial
application bound inside a spine has no closure to key it, so it leaves
none, and the same closure met with the same argument later binds it
again.  The table holds only results, so a closure or argument that
nothing else needs is freed as soon as it is dropped; a hit needs the
same two values again.  Both tables belong to the outermost
normalization scope: one entry call
(``decide_eq``, ``long_nf``, ``beta_nf``) or one certificate check
(``closed_value_scope`` on ``verify``, ``verify_product`` and
``replay_collapse``).  That scope empties them when it opens and when it
closes, also by an exception, so nothing is carried from ``separate``
into ``verify``.

Equality is decided by ``values_equal``, which walks an arrow type's
spine, and a product's right factor, in one loop: at an arrow it applies
both sides to one fresh neutral, counting each application as
``apply_value`` does, and goes on at the codomain.  Only a product's left
factor and, through ``_ne_equal``, a neutral's arguments are compared by
recursion; the loop is the recursion's tail call made a jump (Danvy and
Nielsen, "Defunctionalization at work", 2001).  Its entry ``decide_eq``
checks, in this order, that the two types are one, that neither side has
a loose de Bruijn index, whether the two sides are one term, and, only
where a side has a named free variable, that each name has one type: a
closed pair is never walked for names.

Values point only at values built before them.  A thunk is the one
object that gains a reference later, to its value; but that value is
computed from the thunk's own environment, which is older than the
thunk and cannot reach it, and forcing drops the environment.  So no
reference cycle forms, and when a scope closes reference counting frees
everything it built.  The outermost scope therefore pauses the cyclic
collector, which could free nothing there, and re-enables it as it
closes, only if it was enabled at open.  The ``*_leaves_no_cyclic_garbage``
tests pin the invariant: after a check the collector finds nothing.

The step budget is per entry call.  A step is one term node evaluated,
one application, one readback node or one comparison node.  Running a
term or a lambda body counts the steps of its spine (the nodes it
evaluates short of lambda bodies, closed children and delayed arguments)
in one go; an inner lambda that a spine binds through counts its one
step, as if its closure had been built.  A closed node counts one step
when its value is in the table and its own spine when it is not.  A
delayed argument counts its spine when it is forced, and nothing if it
never is.  So the count is exact for the nodes actually evaluated, the
same as counting node by node, and a budget trips exactly when the total
of a call exceeds it.  A call that outruns Python's recursion limit
raises ``TermTooDeep``, a ``ResourceExhausted``, instead of a raw
``RecursionError``.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from functools import wraps
from itertools import count
from operator import itemgetter

from .errors import IllTyped, ResourceExhausted, TypeMismatch, not_too_deep
from . import syntax as S
from .syntax import (
    App, Free, Lam, Pair, Proj1, Proj2, Term, Ty, TyArrow, TyProd,
    TyTerminal, UNIT, Var,
)

_WORK = [0]
_WORK_LIMIT = [500_000_000]  # float("inf") when unlimited, so a tick needs no None test
# per outermost scope: values of closed terms by uid, closure applications
# by the serials of (closure, argument); and the number of open scopes
_CLOSED: dict = {}
_APPLIED: dict = {}
_SCOPES = [0]
# whether the cyclic collector was enabled when the outermost scope opened
_GC_WAS_ENABLED = [False]
# serial numbers of values, never reset or reused
_SERIAL = count()
# compiled code by term uid, (run, steps, body); kept for the process,
# like the interned nodes themselves
_CODE: dict = {}


def set_work_budget(n: int | None):
    """Cap evaluation steps across normalization calls (None = unlimited)."""
    _WORK_LIMIT[0] = float("inf") if n is None else n
    _WORK[0] = 0


def _exhausted():
    _WORK[0] = 0
    raise ResourceExhausted(f"normalization exceeded {_WORK_LIMIT[0]} steps")


def _tick(n: int = 1):
    _WORK[0] += n
    if _WORK[0] > _WORK_LIMIT[0]:
        _exhausted()


def _scope(step: int):
    # open (+1) or close (-1) a scope; the outermost scope empties the
    # value tables as it opens (count 1) and as it closes (count 0), and
    # pauses the cyclic collector in between
    _SCOPES[0] += step
    if _SCOPES[0] == (step > 0):  # 1 as the outermost scope opens, 0 as it closes
        _CLOSED.clear()
        _APPLIED.clear()
        if step > 0:
            _GC_WAS_ENABLED[0] = gc.isenabled()
            gc.disable()
        elif _GC_WAS_ENABLED[0]:
            gc.enable()


def closed_value_scope(fn):
    """Run ``fn`` in one scope, where its normalization calls share values."""
    @wraps(fn)
    def scoped(*args, **kwargs):
        _scope(1)
        try:
            return fn(*args, **kwargs)
        finally:
            _scope(-1)
    return scoped


# ---------------------------------------------------------------------------
# Semantic domain

# v[0] is every value's serial, the key of the application table.  A
# closure is the tuple (sid, code, env, binder), whose code, the compiled
# body (run, steps, body), runs on env + (argument,).  A thunk is the list
# [sid, code, env, value]; forcing fills value, drops code and env and
# takes the value's serial, so the application table sees the value

def _force(t):
    # the value of a thunk not yet forced; a chain of thunks, each code
    # returning the next unforced one, is followed in this loop, and each
    # thunk of it takes the final value.  A budget trip leaves all unforced
    chain = [t]
    while True:
        run, steps, _ = t[1]  # the delayed spine is counted now
        _WORK[0] += steps
        if _WORK[0] > _WORK_LIMIT[0]:
            _exhausted()
        v = run(t[2])
        if type(v) is not list:
            break
        if v[3] is not None:
            v = v[3]
            break
        t = v
        chain.append(t)
    for t in chain:
        t[:] = v[0], None, None, v
    return v


VPair = namedtuple("VPair", "sid fst snd")
VUnit = namedtuple("VUnit", "sid")
# a neutral is one value, serial first and type second: a bound variable
# by its de Bruijn level, a named free variable, a neutral applied to an
# argument of type arg_ty, or a projection of a neutral
NVar = namedtuple("NVar", "sid ty level")
NFree = namedtuple("NFree", "sid ty name")
NApp = namedtuple("NApp", "sid ty fn arg arg_ty")
NProj = namedtuple("NProj", "sid ty which arg")
# each is built as _new(cls, (sid, ...)), without the Python-level
# __new__ that namedtuple generates
_new = tuple.__new__

VUNIT = _new(VUnit, (next(_SERIAL),))


# ---------------------------------------------------------------------------
# Compilation

def _compile(t: Term):
    """``(run, steps, body)`` for ``t``: ``run(env)`` evaluates it, and
    ``steps`` is what its spine costs, which whoever runs it counts first.
    ``body`` is the code of an open lambda's body, and None for any other
    node.  A closed node compiles to an entry that counts for itself, with
    ``steps`` 0."""
    out = _CODE.get(t.uid)
    if out is not None:
        return out
    cls = type(t)
    if cls is Var:
        out = itemgetter(-1 - t.index), 1, None
    elif cls is Lam:
        body = _compile(t.body)
        out = _lam(t.binder, body), 1, body
    elif cls is App:
        # the open spine h a1 ... an: down through the open App nodes only,
        # so a closed sub-spine keeps its own shared entry
        spine = [t]
        while type(spine[-1].fun) is App and spine[-1].fun.scope:
            spine.append(spine[-1].fun)
        head, steps, _ = _compile(spine[-1].fun)
        args = []
        for node in reversed(spine):
            code = _compile(node.arg)
            if type(node.arg) is App and node.arg.scope:  # delayed: counted when forced
                args.append(_delay(code))
            else:
                args.append(code[0])
                steps += code[1]
        steps += 2 * len(spine)  # each node and its application
        out = _spine(head, args), steps, None
    elif cls is Pair:
        (fst, m, _), (snd, n, _) = _compile(t.fst), _compile(t.snd)
        out = _pair(fst, snd), m + n + 1, None
    elif cls is Proj1 or cls is Proj2:
        arg, n, _ = _compile(t.arg)
        out = _proj(1 if cls is Proj1 else 2, arg), n + 1, None
    elif cls is Free:
        value = _new(NFree, (next(_SERIAL), t.ty, t.name))
        out = (lambda env: value), 1, None
    else:
        out = (lambda env: VUNIT), 1, None
    if not t.scope:
        out = _closed(t.uid, out[0], out[1]), 0, None
    _CODE[t.uid] = out
    return out


def _closed(uid, run, steps):
    def closed(env):
        out = _CLOSED.get(uid)
        _WORK[0] += 1 if out is not None else steps
        if _WORK[0] > _WORK_LIMIT[0]:
            _exhausted()
        if out is None:
            out = run(())
            if type(out) is list:
                out = out[3] or _force(out)
            _CLOSED[uid] = out
        return out
    return closed


# a closure or a delayed argument is built on the environment by one
# Python frame and no class constructor

def _lam(binder, body):
    return lambda env: (next(_SERIAL), body, env, binder)


def _delay(code):
    return lambda env: [next(_SERIAL), code, env, None]


def _spine(head, args):
    # apply the head to each argument in turn; a closure that misses the
    # table and whose body is an open lambda takes the next arguments
    # straight into its environment, and only an application that bound
    # one argument is kept in the table.  One and two arguments have
    # entries of their own, which do the same in the same order
    if len(args) == 1:
        return _spine1(head, args[0])
    if len(args) == 2:
        return _spine2(head, *args)

    def spine(env):
        f = head(env)
        rest = iter(args)
        for arg in rest:
            if type(f) is list:
                f = f[3] or _force(f)
            a = arg(env)
            if type(f) is not tuple:
                # neutral application: track the argument's type for readback
                fty = f.ty
                f = _new(NApp, (next(_SERIAL), fty.cod, f, a, fty.dom))
                continue
            key = f[0] << 64 | a[0]  # one int for the pair, and no value kept
            out = _APPLIED.get(key)
            if out is None:  # the caller counted the application steps
                run, steps, body = f[1]
                env_ = f[2] + (a,)
                chained = False
                while body is not None and (arg := next(rest, None)) is not None:
                    _WORK[0] += steps  # the inner Lam node, as if run
                    env_ += (arg(env),)
                    run, steps, body = body
                    chained = True
                _WORK[0] += steps
                if _WORK[0] > _WORK_LIMIT[0]:
                    _exhausted()
                out = run(env_)
                if not chained:
                    _APPLIED[key] = out
            f = out
        return f
    return spine


def _spine1(head, arg):
    def spine(env):
        f = head(env)
        if type(f) is list:
            f = f[3] or _force(f)
        a = arg(env)
        if type(f) is not tuple:
            fty = f.ty
            return _new(NApp, (next(_SERIAL), fty.cod, f, a, fty.dom))
        key = f[0] << 64 | a[0]
        out = _APPLIED.get(key)
        if out is None:
            run, steps, _ = f[1]
            _WORK[0] += steps
            if _WORK[0] > _WORK_LIMIT[0]:
                _exhausted()
            out = _APPLIED[key] = run(f[2] + (a,))
        return out
    return spine


def _spine2(head, arg1, arg2):
    def spine(env):
        f = head(env)
        if type(f) is list:
            f = f[3] or _force(f)
        a = arg1(env)
        if type(f) is not tuple:
            fty = f.ty
            g = _new(NApp, (next(_SERIAL), fty.cod, f, a, fty.dom))
        else:
            key = f[0] << 64 | a[0]
            g = _APPLIED.get(key)
            if g is None:
                run, steps, body = f[1]
                if body is not None:  # a chain: no closure and no entry for f a
                    _WORK[0] += steps
                    env_ = f[2] + (a, arg2(env))
                    run, steps, _ = body
                    _WORK[0] += steps
                    if _WORK[0] > _WORK_LIMIT[0]:
                        _exhausted()
                    return run(env_)
                _WORK[0] += steps
                if _WORK[0] > _WORK_LIMIT[0]:
                    _exhausted()
                g = _APPLIED[key] = run(f[2] + (a,))
            if type(g) is list:
                g = g[3] or _force(g)
        b = arg2(env)
        if type(g) is not tuple:
            fty = g.ty
            return _new(NApp, (next(_SERIAL), fty.cod, g, b, fty.dom))
        key = g[0] << 64 | b[0]
        out = _APPLIED.get(key)
        if out is None:
            run, steps, _ = g[1]
            _WORK[0] += steps
            if _WORK[0] > _WORK_LIMIT[0]:
                _exhausted()
            out = _APPLIED[key] = run(g[2] + (b,))
        return out
    return spine


def _pair(fst, snd):
    def pair(env):
        u, v = fst(env), snd(env)  # the components take their serials first
        return _new(VPair, (next(_SERIAL), u, v))
    return pair


def _proj(which, arg):
    return lambda env: do_proj(which, arg(env))


def eval_term(t: Term, env: tuple):
    run, steps, _ = _compile(t)
    _WORK[0] += steps
    if _WORK[0] > _WORK_LIMIT[0]:
        _exhausted()
    v = run(env)
    return (v[3] or _force(v)) if type(v) is list else v


def apply_value(f, a):
    _tick()
    return _APPLY((f, a))


# the spine f a, run on the environment (f, a): one application path
_APPLY = _spine(itemgetter(0), (itemgetter(1),))


def do_proj(which, v):
    if type(v) is list:
        v = v[3] or _force(v)
    if type(v) is VPair:
        return v.fst if which == 1 else v.snd
    ty = v.ty
    return _new(NProj, (next(_SERIAL), ty.left if which == 1 else ty.right, which, v))


# ---------------------------------------------------------------------------
# Readback

def readback(v, ty: Ty, depth: int) -> Term:
    _tick()
    tcls = type(ty)
    if tcls is TyTerminal:
        return UNIT
    if type(v) is list:
        v = v[3] or _force(v)
    if tcls is TyArrow:
        fresh = _new(NVar, (next(_SERIAL), ty.dom, depth))
        body = readback(apply_value(v, fresh), ty.cod, depth + 1)
        return S.lam(ty.dom, body)
    if tcls is TyProd:
        return S.pair(readback(do_proj(1, v), ty.left, depth),
                      readback(do_proj(2, v), ty.right, depth))
    return readback_ne(v, depth)


def readback_ne(v, depth: int) -> Term:
    cls = type(v)
    if cls is NVar:
        return S.var(depth - 1 - v.level, v.ty)
    if cls is NFree:
        return S.free(v.name, v.ty)
    if cls is NApp:
        return S.app(readback_ne(v.fn, depth), readback(v.arg, v.arg_ty, depth))
    inner = readback_ne(v.arg, depth)
    return S.proj1(inner) if v.which == 1 else S.proj2(inner)


def readback_beta(v, depth: int) -> Term:
    """Beta-normal readback: no eta-expansion and no terminal rule, so a
    lambda stays a lambda and nothing else grows one."""
    _tick()
    if type(v) is list:
        v = v[3] or _force(v)
    cls = type(v)
    if cls is tuple:
        fresh = _new(NVar, (next(_SERIAL), v[3], depth))
        return S.lam(v[3], readback_beta(apply_value(v, fresh), depth + 1))
    if cls is VPair:
        return S.pair(readback_beta(v.fst, depth), readback_beta(v.snd, depth))
    if cls is VUnit:
        return UNIT
    if cls is NApp:
        return S.app(readback_beta(v.fn, depth), readback_beta(v.arg, depth))
    if cls is NProj:
        inner = readback_beta(v.arg, depth)
        return S.proj1(inner) if v.which == 1 else S.proj2(inner)
    return readback_ne(v, depth)  # a variable, bound or free


# ---------------------------------------------------------------------------
# Type-directed value equality

def values_equal(u, v, ty: Ty, depth: int) -> bool:
    # one loop along the arrow spine and a product's right factor (see the
    # module docstring); each probe is ticked and applied as apply_value does
    work, limit = _WORK, _WORK_LIMIT
    while True:
        work[0] += 1
        if work[0] > limit[0]:
            _exhausted()
        tcls = type(ty)
        if tcls is TyTerminal:
            return True
        if type(u) is list:
            u = u[3] or _force(u)
        if type(v) is list:
            v = v[3] or _force(v)
        if u is v:
            # One value object denotes one element; this shortcut is what keeps
            # comparison linear when both sides get probed with the same fresh
            # neutral at iterated arrow types.
            return True
        if tcls is TyArrow:
            dom = ty.dom
            fresh = _new(NVar, (next(_SERIAL), dom, depth))
            work[0] += 1
            if work[0] > limit[0]:
                _exhausted()
            u = _APPLY((u, fresh))
            work[0] += 1
            if work[0] > limit[0]:
                _exhausted()
            v = _APPLY((v, fresh))
            ty = ty.cod
            depth += 1
        elif tcls is TyProd:
            if not values_equal(do_proj(1, u), do_proj(1, v), ty.left, depth):
                return False
            u, v, ty = do_proj(2, u), do_proj(2, v), ty.right
        else:
            return _ne_equal(u, v, depth)


def _ne_equal(m, n, depth) -> bool:
    if m is n:
        return True
    cls = type(m)
    if cls is not type(n):
        return False
    if cls is NVar:
        return m.level == n.level and m.ty is n.ty
    if cls is NFree:
        return m.name == n.name and m.ty is n.ty
    if cls is NApp:
        if m.arg_ty is not n.arg_ty:
            return False
        return _ne_equal(m.fn, n.fn, depth) and values_equal(m.arg, n.arg, m.arg_ty, depth)
    return m.which == n.which and _ne_equal(m.arg, n.arg, depth)


# ---------------------------------------------------------------------------
# Eta contraction

def _occurs(t: Term, idx: int) -> bool:
    """Whether the de Bruijn index ``idx`` occurs free in ``t``."""
    found = []

    def leaf(u, d):  # only a Var with index >= d gets here
        if u.index == d:
            found.append(u)
        return u

    S.map_term(t, leaf, depth=idx, keep=lambda u, d: found or u.scope <= d)
    return bool(found)


def eta_contract(t: Term) -> Term:
    """Maximal eta-contraction: drops trivial abstractions over
    applications and pairs of matching projections.  An abstraction at
    terminal type contracts whenever the bound slot is only fed a
    terminal-typed argument, since all such arguments are equal."""

    def contract(out):
        if type(out) is Lam and type(out.body) is App:
            fn, arg = out.body.fun, out.body.arg
            contractible = (
                (type(arg) is Var and arg.index == 0)
                or (type(out.binder) is TyTerminal and type(arg.ty) is TyTerminal)
            )
            if contractible and not _occurs(fn, 0):
                return S.shift(fn, -1)
        elif (type(out) is Pair and type(out.fst) is Proj1
                and type(out.snd) is Proj2 and out.fst.arg is out.snd.arg):
            return out.fst.arg
        return out

    # one pass: map_term contracts the children before their parent, and a
    # contraction leaves a child, itself contracted, or its shift; a shift
    # is injective on the indices it meets, so it makes no new redex
    return S.map_term(t, lambda u, d: u, post=contract)


# ---------------------------------------------------------------------------
# Entry points

class NormalForm(S.Record):
    term: Term
    kind: str  # "expanded" | "contracted" | "beta"


@not_too_deep
def _entry(run):
    """``run()`` as one entry call: its own step count and scope."""
    _WORK[0] = 0  # the step budget applies per entry call
    _scope(1)  # plain try/finally: a context manager costs ~1 us a call
    try:
        return run()
    finally:
        _scope(-1)


def _normal_form(a: Term, read, kind: str) -> NormalForm:
    if a.scope:  # named free variables are allowed, loose de Bruijn indices not
        raise IllTyped("the term has a loose de Bruijn index")
    return _entry(lambda: NormalForm(read(eval_term(a, ())), kind))


def long_nf(a: Term) -> NormalForm:
    """Unique eta-long beta normal form, alpha-canonical by construction."""
    return _normal_form(a, lambda v: readback(v, a.ty, 0), "expanded")


def beta_eta_nf(a: Term) -> NormalForm:
    """Contracted normal form: the long form after maximal eta-contraction."""
    return NormalForm(eta_contract(long_nf(a).term), "contracted")


def beta_nf(a: Term) -> NormalForm:
    """Beta normal form without any eta steps (diagnostic mode)."""
    return _normal_form(a, lambda v: readback_beta(v, 0), "beta")


def _check_common_context(a: Term, b: Term):
    fa = S.free_vars(a)
    fb = S.free_vars(b)
    for name, ty in fb.items():
        if name in fa and fa[name] is not ty:
            raise TypeMismatch(f"free variable '{name}' has different types in the two terms")


def decide_eq(a: Term, b: Term) -> bool:
    """Provable equality of two same-typed terms (beta, eta, product and
    terminal equations).  Decided by comparing evaluated values in
    eta-long style without materializing the long forms."""
    if a.ty is not b.ty:
        raise TypeMismatch(f"cannot compare {a.ty!r} with {b.ty!r}")
    if a.scope or b.scope:
        raise IllTyped("the term has a loose de Bruijn index")
    if a is b:
        return True
    if a.named or b.named:  # a closed pair has no name to agree on
        _check_common_context(a, b)
    return _entry(lambda: values_equal(eval_term(a, ()), eval_term(b, ()), a.ty, 0))
