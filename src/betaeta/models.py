"""A search of the finite hierarchies for one separating two closed
terms, and the construction of closed terms that provably define any
hierarchy element at a high enough numeral level, each built once per
process and keyed by ints alone.  The hierarchies, their evaluator, the
branch coding and ``kappa`` are in ``hierarchy``.

The model search walks the argument codes as a prefix tree, first
argument slowest, so a partial application is computed once per prefix.
That order fixes which witness comes first, and so a certificate's
``model_args``.  The witness is relabeled so that ``a`` gives 0 and
``b`` gives 1: one already so keeps its codes, since the identity
relabeling moves none, and any other is transported.  Either way the
relabeled witness is re-evaluated, and only it becomes ``Functional``
objects, of a new model.  A pair of one interned node is equal in every
model, so nothing is evaluated.
"""

from __future__ import annotations

import math

from .errors import IllTyped, LevelTooSmall, Overflow, SideConditionViolated, TypeMismatch
from . import hierarchy as H
from . import numerals as N
from . import syntax as S
from .hierarchy import Functional, PModel, branch_codes, branch_order, evaluate, kappa, nth_prime
from .normalize import decide_eq
from .syntax import Term, Ty, TyAtom, numeral_type, split_arrows, subst_type

TUPLE_CAP = 1 << 22

# per (type uid, base): what a search at that type needs, see _search_cards
_SEARCH_CARDS: dict = {}


# ---------------------------------------------------------------------------
# Distinguishing-model search

class Distinguished(S.Record):
    base: int
    model: PModel
    args: list[Functional]
    relabeling: list[int]


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
                codes = [H._transport(c, t, base, perm, inv) for c, t in zip(codes, arg_tys)]
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
    sizes = tuple(H._card(base, t) for t in arg_tys)
    ns = tuple([H._card_if_any(base, ty := ty.cod) for _ in arg_tys])  # down the spine
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
        for t_idx, gammas in enumerate(H._probe_tuples(model, b1), start=1):
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
