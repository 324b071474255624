"""Finite full type hierarchies over an initial segment {0, ..., h-1}
of the naturals, the evaluation of product-free terms in them, and the
paper's coding of a function's branches with its level ``kappa``.  It
imports only ``errors`` and ``syntax``: no normalizer, no producer.

Elements are canonically encoded: an element of P is its own code, and
an element of A -> B is the base-|B| numeral whose digit at position
``code(x)`` is ``code(f(x))``, least significant digit first.  With that
encoding application is digit extraction.  A hierarchy element is a
``Functional``: a model, a type and a code, built where it is asked for.

Evaluation works on int codes.  A value is an element's code, or the
value of a lambda: its compiled body with its environment, applied
without a table.  A table is built only when such a value is passed to
a coded function, and applying a coded function ``f`` to ``x`` is
``f // n**x % n``, with ``n`` the card of its codomain, looked up when
the application node compiles.  A closed argument's table is built
once per application node.  Each node compiles once per base into a
process table keyed by its uid and the base, so a repeated evaluation
compiles nothing.  A closed term is evaluated without an assignment: a
free variable raises where evaluation reaches it.  ``eval_closed`` is
the one entry that returns an element.

The paper's defining terms tell the branches of a function apart by a
product with one prime per tuple over the branch type's argument types,
raised to the branch's output on that tuple; an atom has just the empty
tuple, so an atom branch's code is 2 raised to itself.  The branch
enumeration order is part of the certificate format and is fixed here
as: constant functions first, ordered by their constant value's code,
then the remaining elements ordered by big-endian table code.  Each
kappa is built once per process, keyed by ints alone.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import IllTyped, Overflow, SideConditionViolated, TypeMismatch, UnboundVariable
from . import syntax as S
from .syntax import App, Free, Lam, Term, Ty, TyArrow, TyAtom, Var, split_arrows

CARD_CAP = 1 << 63
ENUM_CAP = 1 << 20

_PRIMES = [2, 3, 5, 7, 11, 13]

# per (type uid, base): the number of elements of the type
_CARDS: dict = {}
# per (term uid, base): the node's compiled code; kept for the process,
# like the interned nodes themselves
_CODE: dict = {}


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed."""
    while len(_PRIMES) < n:
        c = _PRIMES[-1] + 2
        while any(c % p == 0 for p in _PRIMES if p * p <= c):
            c += 2
        _PRIMES.append(c)
    return _PRIMES[n - 1]


def _card(base: int, ty: Ty) -> int:
    """The number of elements of ``ty`` over a base of ``base``."""
    key = (ty.uid, base)
    hit = _CARDS.get(key)
    if hit is not None:
        return hit
    if isinstance(ty, TyAtom):
        n = base
    elif isinstance(ty, TyArrow):
        cd = _card(base, ty.cod)
        cc = _card(base, ty.dom)
        if cc * (cd.bit_length() - 1) > 64 and cd > 1:
            raise Overflow(f"cardinality of {ty!r} exceeds the cap")
        n = cd ** cc
        if n > CARD_CAP:
            raise Overflow(f"cardinality of {ty!r} exceeds the cap")
    else:
        raise IllTyped("hierarchy types are built from atoms and arrows only")
    _CARDS[key] = n
    return n


def _enum_size(base: int, ty: Ty) -> int:
    """The card of ``ty``, which must be small enough to enumerate."""
    n = _card(base, ty)
    if n > ENUM_CAP:
        raise Overflow(f"refusing to enumerate {n} elements of {ty!r}")
    return n


def _pack(digits, n: int) -> int:
    """The base-``n`` number with the given digits, least significant first."""
    code = 0
    for d in reversed(digits):
        code = code * n + d
    return code


class PModel:
    """The full type hierarchy over a base of ``base`` elements.  It holds
    nothing but its base: each element is a ``Functional``, built where it
    is asked for, and a card is read from a process table keyed by ints."""

    def __init__(self, base: int):
        if base < 2:
            raise SideConditionViolated("model base must be at least 2")
        self.base = base

    def card(self, ty: Ty) -> int:
        return _card(self.base, ty)

    def functional(self, ty: Ty, code: int) -> "Functional":
        if not 0 <= code < self.card(ty):
            raise SideConditionViolated(f"code {code} out of range for {ty!r}")
        return Functional(self, ty, code)

    def enum(self, ty: Ty):
        """All elements of the given hierarchy type in code order."""
        return (Functional(self, ty, c) for c in range(_enum_size(self.base, ty)))

    def __repr__(self):
        return f"PModel(base={self.base})"


class Functional:
    """A hierarchy element as its canonical code."""

    __slots__ = ("model", "ty", "code")

    def __init__(self, model: PModel, ty: Ty, code: int):
        self.model = model
        self.ty = ty
        self.code = code

    def table(self) -> list[int]:
        if not isinstance(self.ty, TyArrow):
            raise IllTyped("only a function element has a table")
        cod_n = self.model.card(self.ty.cod)
        return [self.code // cod_n ** x % cod_n for x in range(self.model.card(self.ty.dom))]

    def __call__(self, arg: "Functional") -> "Functional":
        ty = self.ty
        if not isinstance(ty, TyArrow):
            raise IllTyped("cannot apply a base element")
        if arg.ty is not ty.dom:
            raise TypeMismatch("argument type does not match the function's domain")
        cod_n = self.model.card(ty.cod)
        return Functional(self.model, ty.cod, self.code // cod_n ** arg.code % cod_n)

    def __eq__(self, other):
        return (isinstance(other, Functional) and self.model.base == other.model.base
                and self.ty is other.ty and self.code == other.code)

    def __hash__(self):
        return hash((self.model.base, self.ty.uid, self.code))

    def __repr__(self):
        return f"Functional({self.ty!r}, {self.code})"


# ---------------------------------------------------------------------------
# Evaluation
#
# A value is an int, the code of an element, or a pair (body, env), the
# value of a lambda: its compiled body with the environment it closed
# over.  Nothing in a value refers to a model, and the compiled code of a
# node depends on the node and the base alone.

def evaluate(t: Term, base: int):
    """The value of the closed term ``t`` over a base of ``base``."""
    return _compile(t, base)(())


def eval_closed(a: Term, model: PModel) -> Functional:
    """The element of ``model`` that the closed product-free term ``a``
    denotes: application pointwise, and abstraction as the function
    sending each element to the value of the body with it bound."""
    if a.scope:
        raise IllTyped("a term to evaluate has a loose de Bruijn index")
    base = model.base
    return model.functional(a.ty, _force(evaluate(a, base), base, a.ty))


def _compile(t: Term, base: int):
    """``run(env)`` for ``t``: it evaluates ``t`` in an environment tuple,
    one value per enclosing binder, innermost last.  Each node compiles
    once per base.  A node is checked when it runs: a free variable or a
    product node raises only where evaluation reaches it."""
    key = (t.uid, base)
    out = _CODE.get(key)
    if out is not None:
        return out
    cls = type(t)
    if cls is Var:
        out = itemgetter(-1 - t.index)
    elif cls is Free:
        out = _free(t.name)
    elif cls is Lam:
        out = _lam(_compile(t.body, base))
    elif cls is App:
        out = _app(_compile(t.fun, base), _compile(t.arg, base), base, t)
    else:
        out = _product
    _CODE[key] = out
    return out


def _free(name):
    def free(env):
        raise UnboundVariable(f"no assignment for '{name}'")
    return free


def _lam(body):
    return lambda env: (body, env)


def _app(fun, arg, base, t):
    """Apply a lambda by running its body, and a code by digit extraction,
    after forcing a lambda argument to its code.  A closed argument has
    the same code in every environment, so it is forced once."""
    dom = t.arg.ty
    n = _card_if_any(base, t.ty)
    forced = None if t.arg.scope or t.arg.named else []  # a closed argument's code

    def app(env):
        f = fun(env)
        x = arg(env)
        if type(f) is tuple:
            return f[0](f[1] + (x,))
        if type(x) is tuple:
            if forced:
                x = forced[0]
            else:
                x = _force(x, base, dom)
                if forced is not None:
                    forced.append(x)
        return f // n ** x % n
    return app


def _product(env):
    raise IllTyped("hierarchy evaluation is defined for product-free terms only")


def _card_if_any(base: int, ty: Ty) -> int | None:
    """The card of ``ty``, or None where it has none: then no function into
    ``ty`` has a code, and only a lambda is applied to give a ``ty``."""
    try:
        return _card(base, ty)
    except (Overflow, IllTyped):
        return None


def _force(v, base: int, ty: Ty) -> int:
    """The code of the value ``v`` of type ``ty``: a lambda's table, one
    digit per element of the domain, least significant first."""
    if type(v) is int:
        return v
    body, env = v
    digits = [_force(body(env + (x,)), base, ty.cod) for x in range(_enum_size(base, ty.dom))]
    return _pack(digits, _card(base, ty.cod))


def _transport(code: int, ty: Ty, base: int, perm: list[int], inv: list[int]) -> int:
    """The code ``code`` of type ``ty`` with its base elements renamed
    along ``perm``, whose inverse is ``inv``."""
    if isinstance(ty, TyAtom):
        return perm[code]
    xs = reversed(range(_enum_size(base, ty.dom)))
    cod_n = _card(base, ty.cod)
    out = 0
    for x_new in xs:  # most significant digit first
        y = code // cod_n ** _transport(x_new, ty.dom, base, inv, perm) % cod_n
        out = out * cod_n + _transport(y, ty.cod, base, perm, inv)
    return out


# ---------------------------------------------------------------------------
# Branch enumeration and prime coding

def _is_constant(phi: Functional) -> int | None:
    """The common output code if ``phi`` ignores its argument, else None."""
    tab = phi.table()
    return tab[0] if all(d == tab[0] for d in tab) else None


def _big_endian(phi: Functional) -> int:
    return _pack(phi.table()[::-1], phi.model.card(phi.ty.cod))


def branch_order(model: PModel, ty: Ty) -> list[Functional]:
    """Domain enumeration used by the defining-term construction."""
    if isinstance(ty, TyAtom):
        return list(model.enum(ty))

    def key(phi):
        const = _is_constant(phi)
        if const is not None:
            return (0, const)
        return (1, _big_endian(phi))

    return sorted(model.enum(ty), key=key)


def branch_codes(phi: Functional) -> list[int]:
    """The prime-product codes, one per branch of the first argument, in
    branch order.  Injective: distinct branches get distinct codes."""
    if isinstance(phi.ty, TyAtom):
        raise IllTyped("base elements have no branches")
    model = phi.model
    b1 = phi.ty.dom
    tuples = _probe_tuples(model, b1)
    codes = []
    for psi in branch_order(model, b1):
        n = 1
        for t_idx, gammas in enumerate(tuples, start=1):
            d = psi
            for g in gammas:
                d = d(g)
            n = _capped(n * _capped(nth_prime(t_idx) ** d.code))
        codes.append(n)
    if len(set(codes)) != len(codes):
        raise AssertionError("branch codes must be pairwise distinct")
    return codes


def _probe_tuples(model: PModel, b1: Ty) -> list[tuple]:
    """The element tuples over the argument types of ``b1``, the first
    argument slowest; the one empty tuple when ``b1`` is an atom."""
    return list(itertools.product(*(list(model.enum(t)) for t in split_arrows(b1)[0])))


def _capped(n: int) -> int:
    if n > CARD_CAP:
        raise Overflow("branch code exceeds the cap")
    return n


@S.memo(lambda phi: (phi.model.base, phi.ty.uid, phi.code))
def kappa(phi: Functional) -> int:
    """The least numeral level at which the defining-term construction
    for ``phi`` is valid."""
    if isinstance(phi.ty, TyAtom):
        return 0
    model = phi.model
    b1 = phi.ty.dom
    level = 3 * max(branch_codes(phi)) + 1
    for t in split_arrows(b1)[0]:
        for g in model.enum(t):
            level = max(level, kappa(g))
    for psi in branch_order(model, b1):
        level = max(level, kappa(phi(psi)))
    return level
