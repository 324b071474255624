"""Separating contexts for unequal product-free terms.

Given provably unequal terms, the pipeline collapses all atoms to a
single one, closes over the shared free variables, searches the finite
hierarchies for distinguishing argument elements, replaces every atom by
a numeral type high enough to define those elements, applies the
defining terms, lowers the resulting numerals down to level zero two
levels at a time, and finally instantiates the remaining atom with the
target type so that the two closed contexts send the pair to any chosen
targets c and d.

The output is a replayable certificate: the type-instances, the bound
variables, the ordered head arguments, the model witness and the level.
Verification, in ``checker``, reconstructs both applied sides and decides
the two target equalities by normalization alone, independently of the
search.
"""

from __future__ import annotations

from .checker import SeparationCertificate, instance_sub, instantiate, replayed, verify
from .errors import EqualTerms, IllTyped, LevelAboveMax, NotSeparable, TypeMismatch
from . import models as M
from . import numerals as N
from . import syntax as S
from .normalize import decide_eq
from .syntax import Context, Term, atom


def _even_at_least(n: int) -> int:
    return n if n % 2 == 0 else n + 1


def separate(a: Term, b: Term, c: Term, d: Term, max_base: int = 3,
             max_level: int | None = None) -> SeparationCertificate:
    """Build a certificate witnessing contexts that send ``a`` to ``c``
    and ``b`` to ``d``.  It returns only a certificate that ``verify``
    accepts, so the search and the defining terms are checked by the
    same replay a reader of the certificate runs.

    Raises EqualTerms when the pair is provably equal, NotSeparable when
    no hierarchy of base up to ``max_base`` tells the values apart, and
    LevelAboveMax, before any defining term is built, past ``max_level``.
    """
    _refuse(a, b, c, d)
    return replayed(_build(a, b, c, d, max_base, max_level), verify)


def separate_two(a: Term, b: Term, max_base: int = 3,
                 max_level: int | None = None) -> SeparationCertificate:
    """Two-valued form: the context's head arguments are all closed and
    the applied sides are the two projections, so for any e and f of a
    common type the contexts send ``a`` to e and ``b`` to f."""
    _refuse(a, b, *_slots())
    return replayed(_build_two(a, b, max_base, max_level), verify)


def _refuse(a: Term, b: Term, c: Term, d: Term):
    """Raise on a pair and targets that no certificate can relate."""
    if a.ty is not b.ty:
        raise TypeMismatch("the terms to separate must share a type")
    if c.ty is not d.ty:
        raise TypeMismatch("the two targets must share a type")
    if not (S.is_product_free(a.ty) and S.is_product_free(b.ty)):
        raise IllTyped("separation works on product-free terms")
    if decide_eq(a, b):
        raise EqualTerms("the terms are provably equal")


def _slots() -> tuple[Term, Term]:
    """The first and the second projection of two arguments at ``p``."""
    p = atom("p")
    return S.lams(p, p, lambda x, y: x()), S.lams(p, p, lambda x, y: y())


def _build_two(a: Term, b: Term, max_base: int, max_level: int | None) -> SeparationCertificate:
    """The two-valued certificate of an unequal pair, built unchecked."""
    cert = _build(a, b, *_slots(), max_base, max_level)
    cert.two_valued = True
    return cert


def _build(a: Term, b: Term, c: Term, d: Term, max_base: int,
           max_level: int | None) -> SeparationCertificate:
    p = atom("p")
    collapse = {name: p for name in S.term_atoms(a) | S.term_atoms(b)}
    a1, b1, bound = instantiate(collapse, a, b)
    frees = [S.free(name, ty) for name, ty in bound]
    a2 = S.bind(a1, *frees)
    b2 = S.bind(b1, *frees)

    found = M.distinguish(a2, b2, max_base)
    if found is None:
        raise NotSeparable(max_base)

    kappas = [M.kappa(phi) for phi in found.args]
    level = _even_at_least(max(kappas, default=0))
    if max_level is not None and level > max_level:
        raise LevelAboveMax(f"required level {level} exceeds --max-level {max_level}")

    definers = [M.define_functional(phi, level) for phi in found.args]
    lowerings: list[Term] = []
    for j in range(level, 0, -2):
        lowerings.extend(N.lowering_pair(j))

    target_ty = c.ty
    a_prime, b_prime, bound = instantiate(instance_sub(level, target_ty, a, b), a, b)
    # the definers and lowerings are already at numeral level and only
    # trade their atom for the target
    at_target = {"p": target_ty}
    head_args = [S.substitute_types(h, at_target) for h in definers + lowerings]
    head_args.append(S.lam(target_ty, d))
    head_args.append(c)

    # just the variables the targets actually use; bound variables of the
    # sources may reuse names at their instantiated types
    target_ctx = Context({**S.free_vars(c), **S.free_vars(d)}.items())

    return SeparationCertificate(
        a_source=a, b_source=b,
        a_prime=a_prime, b_prime=b_prime,
        bound_vars=bound,
        head_args=head_args,
        target_c=c, target_d=d,
        target_ctx=target_ctx,
        level=level,
        base=found.base,
        model_args=[(phi.ty, phi.code) for phi in found.args],
        relabeling=found.relabeling,
        kappa_values=kappas,
    )
