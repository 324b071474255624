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
Verification reconstructs both applied sides and decides the two target
equalities by normalization alone, independently of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EqualTerms, IllTyped, LevelAboveMax, NotSeparable, TypeMismatch
from . import models as M
from . import numerals as N
from . import syntax as S
from .normalize import closed_value_scope, decide_eq
from .syntax import Context, Term, Ty, atom, numeral_type, subst_type


@dataclass
class SeparationCertificate:
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
    kappa_values: list[int] = field(default_factory=list)

    def applied(self, side: str) -> Term:
        """The closed context of one side applied to all head arguments."""
        body = self.a_prime if side == "a" else self.b_prime
        frees = [S.free(name, ty) for name, ty in self.bound_vars]
        return S.apps(S.bind(body, *frees), *self.head_args)


def _ordered_free_union(a: Term, b: Term) -> list[tuple[str, Ty]]:
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
    return _replayed(_build(a, b, c, d, max_base, max_level), verify)


def separate_two(a: Term, b: Term, max_base: int = 3,
                 max_level: int | None = None) -> SeparationCertificate:
    """Two-valued form: the context's head arguments are all closed and
    the applied sides are the two projections, so for any e and f of a
    common type the contexts send ``a`` to e and ``b`` to f."""
    _refuse(a, b, *_slots())
    return _replayed(_build_two(a, b, max_base, max_level), verify)


def _replayed(cert, check):
    """``cert``, once its verifier ``check`` accepts it: each producer ends here."""
    if not check(cert):
        raise AssertionError(f"{check.__name__} rejected the certificate just built")
    return cert


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
    a1 = S.substitute_types(a, collapse)
    b1 = S.substitute_types(b, collapse)

    bound = _ordered_free_union(a1, b1)
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


@closed_value_scope
def verify(cert: SeparationCertificate) -> bool:
    """Replay a certificate using normalization only.  The instance rule
    ``instance_sub`` is recomputed from the stated level and the target
    type: ``a_prime``, ``b_prime`` and ``bound_vars`` must be the images
    under it of the sources and of their free variables in order of
    first occurrence, compared by interned identity.  A level that is not
    a natural number below the node count of the type of ``a_prime`` is
    refused before any tower is built.  Both applied sides must equal
    their targets; a two-valued certificate must additionally project
    correctly on fresh slot variables.  ``base``, ``model_args``,
    ``relabeling`` and ``kappa_values`` record where the certificate came
    from and are not checked.  This is the only check of a separation:
    ``separate`` and ``separate_two`` run it on what they build before
    they return it."""
    if not level_fits(cert):
        return False
    sub = instance_sub(cert.level, cert.target_c.ty, cert.a_source, cert.b_source)
    if (cert.a_prime, cert.b_prime, cert.bound_vars) != instantiate(
            sub, cert.a_source, cert.b_source):
        return False
    try:
        lhs_a = cert.applied("a")
        lhs_b = cert.applied("b")
        if lhs_a.ty is not cert.target_c.ty:
            raise IllTyped("the applied context and the target differ in type")
        ok = decide_eq(lhs_a, cert.target_c) and decide_eq(lhs_b, cert.target_d)
        if not ok:
            return False
        if cert.two_valued:
            e, f = S.free("e'", atom("p")), S.free("f'", atom("p"))
            return decide_eq(S.apps(lhs_a, e, f), e) and decide_eq(S.apps(lhs_b, e, f), f)
        return True
    except (TypeMismatch, S.UnboundVariable):
        raise IllTyped("malformed certificate")
