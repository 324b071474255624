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
    all_atoms = S.term_atoms(a) | S.term_atoms(b)
    collapse = {name: p for name in all_atoms}
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
    instance = numeral_type_over(level, target_ty)
    final_sub = {name: instance for name in all_atoms}
    at_target = {"p": target_ty}

    a_prime = S.substitute_types(a, final_sub)
    b_prime = S.substitute_types(b, final_sub)
    # bound variable types are still at the collapsed base level, so they
    # take the composite substitution; the definers and lowerings are
    # already at numeral level and only trade their atom for the target
    bound_inst = [(name, subst_type(ty, {"p": instance})) for name, ty in bound]
    head_args = [S.substitute_types(h, at_target) for h in definers + lowerings]
    head_args.append(S.lam(target_ty, d))
    head_args.append(c)

    # just the variables the targets actually use; bound variables of the
    # sources may reuse names at their instantiated types
    target_ctx = Context({**S.free_vars(c), **S.free_vars(d)}.items())

    return SeparationCertificate(
        a_source=a, b_source=b,
        a_prime=a_prime, b_prime=b_prime,
        bound_vars=bound_inst,
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
    """Replay a certificate using normalization only.  The instantiated
    sides must be type-instances of the sources under one atom
    substitution, and the bound variables the sources' free variables in
    order of first occurrence under that substitution; both applied sides
    must equal their targets; a two-valued certificate must additionally
    project correctly on fresh slot variables.  Every atom of the sources
    must be instantiated at the numeral type of the stated level over the
    target type.  ``base``, ``model_args``, ``relabeling`` and
    ``kappa_values`` record where the certificate came from and are not
    checked.  This is the only check of a separation: ``separate`` and
    ``separate_two`` run it on what they build before they return it."""
    sub = instance_sub(cert, cert.target_c.ty)
    if sub is None:
        return False
    sources = _ordered_free_union(cert.a_source, cert.b_source)
    if cert.bound_vars != [(name, subst_type(ty, sub)) for name, ty in sources]:
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


def numeral_type_over(level: int, target: Ty) -> Ty:
    """The numeral type of ``level`` over ``target``: the type at which a
    certificate instantiates every atom of its sources."""
    return numeral_type(level, target)


def is_numeral_type_over(ty, level, target: Ty) -> bool:
    """Whether ``ty`` is ``numeral_type_over(level, target)``, decided by
    peeling it, so that a stated level far above the real one costs no
    more than the real one."""
    if type(level) is not int or level < 0:
        return False
    for _ in range(level + 2):
        if type(ty) is not S.TyArrow or ty.dom is not ty.cod:
            return False
        ty = ty.cod
    return ty is target


def match_type_instance(general: Ty, instance: Ty, sub: dict[str, Ty]) -> bool:
    """Whether ``instance`` is obtained from ``general`` by a (consistent)
    substitution of types for atoms, extending ``sub`` in place.  Each
    distinct node pair is matched once (a failure ends the match), so a
    shared type costs its distinct nodes, not its unfolded tree."""
    seen = set()

    def go(g, t):
        if (g.uid, t.uid) in seen:
            return True
        seen.add((g.uid, t.uid))
        if isinstance(g, S.TyAtom):
            return sub.setdefault(g.name, t) is t
        if isinstance(g, S.TyTerminal):
            return g is t
        if isinstance(g, S.TyArrow):
            return isinstance(t, S.TyArrow) and go(g.dom, t.dom) and go(g.cod, t.cod)
        return isinstance(t, S.TyProd) and go(g.left, t.left) and go(g.right, t.right)

    return go(general, instance)


def instance_sub(cert, target: Ty) -> dict[str, Ty] | None:
    """The atom substitution under which ``cert.a_prime`` and
    ``cert.b_prime`` are the images of ``cert.a_source`` and
    ``cert.b_source``, or None when there is none.  It sends every atom of
    the sources to one type, the numeral type of ``cert.level`` over
    ``target``, found by matching the types of the a-side.  Terms are
    interned, so each image is checked by identity."""
    found: dict[str, Ty] = {}
    if not match_type_instance(cert.a_source.ty, cert.a_prime.ty, found):
        return None
    atoms = S.term_atoms(cert.a_source) | S.term_atoms(cert.b_source)
    images = set(found.values())
    if len(images) != (1 if atoms else 0) or not all(
            is_numeral_type_over(image, cert.level, target) for image in images):
        return None
    sub = {name: image for image in images for name in atoms}
    if (cert.a_prime is not S.substitute_types(cert.a_source, sub)
            or cert.b_prime is not S.substitute_types(cert.b_source, sub)):
        return None
    return sub
