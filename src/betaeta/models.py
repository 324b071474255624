"""Finite full type hierarchies over an initial segment {0, ..., h-1}
of the naturals, evaluation of product-free terms in them, a search for
a hierarchy separating two closed terms, and the construction of closed
terms that provably define any hierarchy element at a high enough
numeral level.

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
the one entry that returns an element.  The evaluator needs nothing
from ``numerals`` or ``normalize``.

The model search walks the argument codes as a prefix tree, first
argument slowest, so a partial application is computed once per prefix.
That order fixes which witness comes first, and so a certificate's
``model_args``.  The witness is relabeled so that ``a`` gives 0 and
``b`` gives 1: one already so keeps its codes, since the identity
relabeling moves none, and any other is transported.  Either way the
relabeled witness is re-evaluated, and only it becomes ``Functional``
objects, of a new model.  A pair of one interned node is equal in every
model, so nothing is evaluated.

The defining-term construction tells the branches of a function apart
by a product with one prime per tuple over the branch type's argument
types, raised to the branch's output on that tuple; an atom has just the
empty tuple, so an atom branch's code is 2 raised to itself.  The branch
enumeration order is part of the certificate format and is fixed here
as: constant functions first, ordered by their constant value's code,
then the remaining elements ordered by big-endian table code.  Each
kappa and defining term is built once per process, keyed by ints alone.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .errors import (
    IllTyped, LevelTooSmall, Overflow, SideConditionViolated, TypeMismatch, UnboundVariable,
)
from . import numerals as N
from . import syntax as S
from .normalize import decide_eq
from .syntax import (
    App, Free, Lam, Term, Ty, TyArrow, TyAtom, Var,
    numeral_type, split_arrows, subst_type,
)

CARD_CAP = 1 << 63
ENUM_CAP = 1 << 20
TUPLE_CAP = 1 << 22

_PRIMES = [2, 3, 5, 7, 11, 13]

# per (type uid, base): the number of elements of the type
_CARDS: dict = {}
# per (type uid, base): what a search at that type needs, see _search_cards
_SEARCH_CARDS: dict = {}
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
        dom_n = self.model.card(self.ty.dom)
        cod_n = self.model.card(self.ty.cod)
        out = []
        c = self.code
        for _ in range(dom_n):
            out.append(c % cod_n)
            c //= cod_n
        return out

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


# ---------------------------------------------------------------------------
# Distinguishing-model search

class Distinguished(S.Record):
    base: int
    model: PModel
    args: list[Functional]
    relabeling: list[int]


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


def distinguish(a: Term, b: Term, max_base: int) -> Distinguished | None:
    """Search the hierarchies of base 2..max_base for argument elements
    on which the values of ``a`` and ``b`` differ.  The witness comes
    back relabeled so the two observed base values are 0 (for a) and 1
    (for b), as elements of a new ``PModel``.  Returns None when every
    searched hierarchy agrees.

    The search runs on int codes.  Each node of ``a`` and ``b`` is
    compiled once per base for the life of the process, so a repeated
    search compiles nothing.  A base's argument tuples are tried in
    lexicographic order of their codes, the first argument slowest, and
    the first that tells the terms apart is the witness; a certificate
    states it as ``model_args``, so the order is part of the certificate
    format.  A witness whose values are already 0 and 1 keeps its codes,
    as the identity relabeling moves none; either way the relabeled
    witness is re-evaluated.  A base whose tuples exceed ``TUPLE_CAP``
    raises Overflow before either term is evaluated there.  A pair of
    one interned node is evaluated at no base, and an equal pair of two
    nodes gets the full search: the search does not consult
    normalization."""
    if a.ty is not b.ty:
        raise TypeMismatch("terms to distinguish must share a type")
    if a.scope or a.named or b.scope or b.named:
        raise IllTyped("terms to distinguish must be closed")
    if max_base < 2:  # no base to search: the type is still checked
        _result_atom(a.ty)
    for base in range(2, max_base + 1):
        arg_tys, sizes, ns, total = _SEARCH_CARDS.get((a.ty.uid, base)) or _search_cards(a.ty, base)
        if total > TUPLE_CAP:
            raise Overflow(f"argument search space of {total} tuples exceeds the cap")
        if a is b:  # one interned node: no model tells it from itself
            continue
        va = evaluate(a, base)
        vb = evaluate(b, base)
        found = _first_difference(va, vb, ns, sizes)
        if found is not None:
            codes, ra, rb = found
            # a permutation of the base sending ra to 0 and rb to 1,
            # the identity beyond the swaps needed
            perm = list(range(base))
            perm[0], perm[ra] = ra, 0
            one = 0 if ra == 1 else 1  # where 1 went
            perm[one], perm[rb] = perm[rb], perm[one]
            if ra != 0 or rb != 1:
                inv = sorted(range(base), key=perm.__getitem__)
                codes = [_transport(c, t, base, perm, inv) for c, t in zip(codes, arg_tys)]
            _check_relabeled(va, vb, codes, ns)
            model = PModel(base)
            return Distinguished(base, model, [Functional(model, t, c)
                                               for t, c in zip(arg_tys, codes)], perm)
    return None


def _result_atom(ty: Ty) -> list[Ty]:
    """The argument types of ``ty``, whose final result must be an atom
    and which must be built from atoms and arrows only."""
    arg_tys, result = split_arrows(ty)
    if not isinstance(result, TyAtom):
        raise IllTyped("the result type must be an atom")
    if not S.is_product_free(ty):
        raise IllTyped("hierarchy types are built from atoms and arrows only")
    return arg_tys


def _search_cards(ty: Ty, base: int):
    """For a search at ``ty``: the argument types, the card of each, the
    card of the result after each argument, and the number of argument
    tuples.  A result that is no atom, or a product or terminal type
    anywhere in ``ty``, raises before any card is taken."""
    key = (ty.uid, base)
    arg_tys = _result_atom(ty)
    sizes = tuple(_card(base, t) for t in arg_tys)
    ns = tuple([_card_if_any(base, ty := ty.cod) for _ in arg_tys])  # down the spine
    out = _SEARCH_CARDS[key] = tuple(arg_tys), sizes, ns, math.prod(sizes)
    return out


def _first_difference(va, vb, ns, sizes):
    """The first tuple of argument codes on which the values ``va`` and
    ``vb`` differ, with both base codes, or None.  ``ns[j]`` is the card
    of the result after ``j + 1`` arguments and ``sizes[j]`` that of the
    j-th argument's type.  Tuples run in lexicographic order, the first
    argument slowest.  They form a prefix tree: when an argument changes,
    only the applications from it on are redone, those of ``va`` before
    those of ``vb``, as if each tuple were applied in full."""
    k = len(sizes)
    codes = [0] * k
    ra = [va] + [None] * k  # ra[j]: va applied to the first j arguments
    rb = [vb] + [None] * k
    changed = 0  # the first argument that changed since the last tuple
    while True:
        for r in (ra, rb):
            for j in range(changed, k):
                f, x = r[j], codes[j]
                r[j + 1] = f[0](f[1] + (x,)) if type(f) is tuple else f // ns[j] ** x % ns[j]
        if ra[k] != rb[k]:
            return codes, ra[k], rb[k]
        if k:  # the rest of the last argument's codes on this prefix
            fa, fb, n = ra[k - 1], rb[k - 1], ns[k - 1]
            for c in range(1, sizes[-1]):
                ca = fa[0](fa[1] + (c,)) if type(fa) is tuple else fa // n ** c % n
                cb = fb[0](fb[1] + (c,)) if type(fb) is tuple else fb // n ** c % n
                if ca != cb:
                    codes[-1] = c
                    return codes, ca, cb
        changed = k - 2
        while changed >= 0 and codes[changed] + 1 == sizes[changed]:
            codes[changed] = 0
            changed -= 1
        if changed < 0:
            return None
        codes[changed] += 1


def _check_relabeled(va, vb, codes, ns):
    for v, want in ((va, 0), (vb, 1)):
        for x, n in zip(codes, ns):
            v = v[0](v[1] + (x,)) if type(v) is tuple else v // n ** x % n
        if v != want:
            raise AssertionError("relabeled witness failed to re-evaluate")


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


# ---------------------------------------------------------------------------
# Defining terms

def _the_atom(ty: Ty) -> str:
    atoms = S.type_atoms(ty)
    if len(atoms) != 1:
        raise IllTyped("hierarchy types must be built over a single atom")
    return next(iter(atoms))


def instance_type(ty: Ty, i: int) -> Ty:
    """The type obtained by substituting the level-i numeral type for the
    hierarchy atom."""
    return subst_type(ty, {_the_atom(ty): numeral_type(i)})


@S.memo(lambda phi, i: (phi.model.base, phi.ty.uid, phi.code, i))
def define_functional(phi: Functional, i: int) -> Term:
    """A closed term of the numeral-instantiated type that provably
    defines ``phi`` whenever ``i`` is at least kappa(phi).

    A base element is its numeral.  For a function, the first argument
    is probed by a product of prime powers whose exponents are the
    argument's outputs on every tuple over its own argument types; a
    chain of conditionals compares the probe against each branch code
    and returns the defining term of the corresponding output.
    """
    _the_atom(phi.ty)
    if i < 0:
        raise SideConditionViolated("level must be a natural number")
    model = phi.model
    if isinstance(phi.ty, TyAtom):
        return N.church(phi.code, i)
    k_level = kappa(phi)
    if i < k_level:
        raise LevelTooSmall(f"level {i} is below kappa = {k_level}")

    arg_tys, _ = split_arrows(phi.ty)
    b1 = arg_tys[0]
    psis = branch_order(model, b1)
    xis = [phi(psi) for psi in psis]
    q = len(psis)

    def body(*handles):
        x1, *rest = [h() for h in handles]

        def applied_definer(xi):
            return S.apps(define_functional(xi, i), *rest)

        if q == 1:
            return applied_definer(xis[0])

        codes = branch_codes(phi)

        # probe term: exponent product over all argument tuples of the first
        # argument's own argument types, one prime per tuple
        factors = []
        for t_idx, gammas in enumerate(_probe_tuples(model, b1), start=1):
            applied = S.apps(x1, *(define_functional(g, i) for g in gammas))
            factors.append(S.apps(N.expo(i - 1), applied, N.church(nth_prime(t_idx), i)))
        probe = factors[0]
        for f in factors[1:]:
            probe = S.apps(N.mul(i - 1), probe, f)

        out = applied_definer(xis[q - 1])
        for j in range(q - 2, -1, -1):
            test = S.app(N.raise_one(i), S.app(N.check(codes[j], i - 1), probe))
            out = S.apps(N.cond(i), test, applied_definer(xis[j]), out)
        return out

    return S.lams(*(instance_type(ty, i) for ty in arg_tys), body)


def i_defines_check(a: Term, phi: Functional, i: int, depth: int) -> bool:
    """Whether ``a`` provably defines ``phi`` at level ``i``: at the base
    it must equal the numeral for phi; at a function type, applying it to
    the defining term of each domain element must define the output, to
    the given recursion depth."""
    model = phi.model
    if isinstance(phi.ty, TyAtom):
        return decide_eq(a, N.church(phi.code, i))
    if depth <= 0:
        return True
    for psi in model.enum(phi.ty.dom):
        if i < kappa(psi):
            raise LevelTooSmall(
                f"level {i} is below kappa of a domain element ({kappa(psi)})")
        witness = define_functional(psi, i)
        if not i_defines_check(S.app(a, witness), phi(psi), i, depth - 1):
            return False
    return True
