"""Type reductions into product normal form, isomorphism witnesses, and
the separating construction for terms with products.

A type reduces by flattening products out of codomains, currying product
domains, reassociating products to the left, and absorbing the terminal
type; the result is a left-nested product of pure arrow types (or the
terminal type alone).  Each rewrite strictly decreases an exponential
complexity measure, which witnesses termination.  An isomorphism pair of
closed terms is constructed per step, lifted from the redex to the whole
type along the step's path, and composed along the trace; the type after a
step is the codomain of its lifted forward witness.  A type's pair is built
once per process and shared, so the witness is read-only.

Separation of unequal product-bearing terms moves them through the
isomorphism, splits the long normal form into components, finds one
component pair that still differs, and delegates to the product-free
pipeline; the resulting certificate projects the component and applies
the two projections of a fresh pair variable as final targets.
"""

from __future__ import annotations

from .checker import ProductCertificate, instance_sub, instantiate, replayed, verify_product
from .errors import EqualTerms, IllTyped, Overflow, SideConditionViolated, TypeMismatch
from . import separator as Sep
from . import syntax as S
from .normalize import decide_eq, long_nf
from .syntax import (
    Record, Term, Ty, TyArrow, TyAtom, TyProd, TyTerminal, TERMINAL, UNIT,
    app, apps, arrow, lams, pair, prod, proj1, proj2,
)

MEASURE_BIT_BUDGET = 1 << 20


def measure(ty: Ty) -> int:
    """Exponential complexity of a type: atoms and the terminal type
    weigh 2, a product weighs (left+1)*right, an arrow weighs cod**dom.
    Every reduction strictly decreases it.  A weight past
    ``MEASURE_BIT_BUDGET`` bits raises Overflow."""
    weight: dict[int, int] = {}
    for t in S.subtypes(ty):  # children first
        if isinstance(t, (TyAtom, TyTerminal)):
            out = 2
        elif isinstance(t, TyProd):
            out = (weight[t.left.uid] + 1) * weight[t.right.uid]
        else:
            base, ex = weight[t.cod.uid], weight[t.dom.uid]
            if base.bit_length() * ex > MEASURE_BIT_BUDGET:
                raise Overflow("type measure exceeds the bit budget")
            out = base ** ex
        if out.bit_length() > MEASURE_BIT_BUDGET:
            raise Overflow("type measure exceeds the bit budget")
        weight[t.uid] = out
    return weight[ty.uid]


def _rule_at(ty: Ty) -> str | None:
    if isinstance(ty, TyArrow):
        if isinstance(ty.cod, TyTerminal):
            return "arrT"
        if isinstance(ty.dom, TyTerminal):
            return "Tarr"
        if isinstance(ty.cod, TyProd):
            return "curryCod"
        if isinstance(ty.dom, TyProd):
            return "curryDom"
    elif isinstance(ty, TyProd):
        if isinstance(ty.right, TyTerminal):
            return "prodT"
        if isinstance(ty.left, TyTerminal):
            return "Tprod"
        if isinstance(ty.right, TyProd):
            return "assoc"
    return None


def _contract(ty: Ty, rule: str) -> Ty:
    if rule == "curryCod":
        return prod(arrow(ty.dom, ty.cod.left), arrow(ty.dom, ty.cod.right))
    if rule == "curryDom":
        return arrow(ty.dom.left, arrow(ty.dom.right, ty.cod))
    if rule == "assoc":
        return prod(prod(ty.left, ty.right.left), ty.right.right)
    if rule == "arrT":
        return TERMINAL
    if rule == "Tarr":
        return ty.cod
    if rule == "prodT":
        return ty.left
    return ty.right


def _children(ty: Ty):
    if isinstance(ty, TyArrow):
        return (("dom", ty.dom), ("cod", ty.cod))
    if isinstance(ty, TyProd):
        return (("left", ty.left), ("right", ty.right))
    return ()


def _find_redex(ty: Ty, innermost: bool):
    """The path to the first redex of ``ty`` (in preorder when outermost,
    post-order when innermost) and its rule, or None.  A node found
    redex-free is not searched again where it is shared."""
    clean = set()

    def go(t, path):
        if t.uid in clean:
            return None
        here = _rule_at(t)
        if here is not None and not innermost:
            return path, here
        for label, child in _children(t):
            found = go(child, path + (label,))
            if found is not None:
                return found
        if here is not None and innermost:
            return path, here
        clean.add(t.uid)
        return None

    try:
        return go(ty, ())
    finally:
        del go


def _apply_at(ty: Ty, path: tuple, rule: str) -> Ty:
    if not path:
        return _contract(ty, rule)
    label, rest = path[0], path[1:]
    if label == "dom":
        return arrow(_apply_at(ty.dom, rest, rule), ty.cod)
    if label == "cod":
        return arrow(ty.dom, _apply_at(ty.cod, rest, rule))
    if label == "left":
        return prod(_apply_at(ty.left, rest, rule), ty.right)
    return prod(ty.left, _apply_at(ty.right, rest, rule))


# the least measure of more decimal digits than ``str`` converts by default
_UNPRINTABLE = 10 ** 4300


def show_measure(m: int | None) -> str:
    """A measure in decimal, or by its bit length past 4,300 digits."""
    return f"<{m.bit_length()} bits>" if m is not None and m >= _UNPRINTABLE else str(m)


def _read_only(self, name, value):
    raise AttributeError(f"cannot assign to '{name}': {type(self).__name__} is read-only")


class TypeStep(Record):
    path: tuple
    rule: str
    before: int | None
    after: int | None

    __setattr__ = _read_only

    def __repr__(self):
        return (f"TypeStep(path={self.path!r}, rule={self.rule!r}, "
                f"before={show_measure(self.before)}, after={show_measure(self.after)})")


class TypeNFTrace(Record):
    input: Ty
    steps: list[TypeStep]
    output: Ty


def _measure_opt(ty: Ty) -> int | None:
    try:
        return measure(ty)
    except Overflow:
        return None


def type_nf(ty: Ty, strategy: str = "innermost") -> TypeNFTrace:
    """Reduce a type to its unique product normal form, recording each
    rewrite with the whole-type measure before and after."""
    if strategy not in ("innermost", "outermost"):
        raise SideConditionViolated(f"unknown strategy '{strategy}'")
    steps = []
    current = ty
    m_cur = _measure_opt(current)
    while True:
        found = _find_redex(current, strategy == "innermost")
        if found is None:
            break
        path, rule = found
        nxt = _apply_at(current, path, rule)
        m_nxt = _measure_opt(nxt)
        steps.append(TypeStep(path, rule, m_cur, m_nxt))
        current, m_cur = nxt, m_nxt
    return TypeNFTrace(ty, steps, current)


def is_product_nf(ty: Ty) -> bool:
    def pure_arrow(t):
        return S.is_product_free(t) and not isinstance(t, TyTerminal)

    if isinstance(ty, TyTerminal):
        return True
    while isinstance(ty, TyProd):
        if not pure_arrow(ty.right):
            return False
        ty = ty.left
    return pure_arrow(ty)


# ---------------------------------------------------------------------------
# Isomorphism witnesses

class IsoWitness(Record):
    source: Ty
    target: Ty
    forward: Term
    backward: Term

    __setattr__ = _read_only


def _primitive_iso(ty: Ty, rule: str) -> tuple[Term, Term]:
    """Forward/backward closed terms between a redex type and its contractum."""
    out = _contract(ty, rule)
    if rule == "curryCod":
        fwd = lams(ty, lambda f: pair(lams(ty.dom, lambda a: proj1(app(f(), a()))),
                                      lams(ty.dom, lambda a: proj2(app(f(), a())))))
        bwd = lams(out, lambda g: lams(ty.dom, lambda a: pair(app(proj1(g()), a()),
                                                              app(proj2(g()), a()))))
        return fwd, bwd
    if rule == "curryDom":
        fwd = lams(ty, ty.dom.left, ty.dom.right,
                   lambda f, a1, a2: app(f(), pair(a1(), a2())))
        bwd = lams(out, ty.dom, lambda g, pr: apps(g(), proj1(pr()), proj2(pr())))
        return fwd, bwd
    if rule == "assoc":
        fwd = lams(ty, lambda x: pair(pair(proj1(x()), proj1(proj2(x()))), proj2(proj2(x()))))
        bwd = lams(out, lambda y: pair(proj1(proj1(y())), pair(proj2(proj1(y())), proj2(y()))))
        return fwd, bwd
    if rule == "arrT":
        return lams(ty, lambda f: UNIT), lams(TERMINAL, ty.dom, lambda u, a: UNIT)
    if rule == "Tarr":
        return lams(ty, lambda f: app(f(), UNIT)), lams(out, TERMINAL, lambda b, u: b())
    if rule == "prodT":
        return lams(ty, lambda x: proj1(x())), lams(out, lambda a: pair(a(), UNIT))
    # Tprod
    return lams(ty, lambda x: proj2(x())), lams(out, lambda a: pair(UNIT, a()))


def _lift_iso(ty: Ty, path: tuple, rule: str) -> tuple[Term, Term]:
    """The primitive isomorphism of ``rule`` at the subtype at ``path``,
    lifted to the whole type.  Lifting through an arrow domain is
    contravariant, so the two directions trade places."""
    if not path:
        return _primitive_iso(ty, rule)
    label, rest = path[0], path[1:]
    if label == "dom":
        inner_f, inner_b = _lift_iso(ty.dom, rest, rule)
        new_dom = inner_f.ty.cod
        lifted_f = lams(ty, new_dom, lambda f, a: app(f(), app(inner_b, a())))
        lifted_b = lams(arrow(new_dom, ty.cod), ty.dom, lambda g, a: app(g(), app(inner_f, a())))
        return lifted_f, lifted_b
    if label == "cod":
        inner_f, inner_b = _lift_iso(ty.cod, rest, rule)
        new_cod = inner_f.ty.cod
        lifted_f = lams(ty, ty.dom, lambda f, a: app(inner_f, app(f(), a())))
        lifted_b = lams(arrow(ty.dom, new_cod), ty.dom, lambda g, a: app(inner_b, app(g(), a())))
        return lifted_f, lifted_b
    if label == "left":
        inner_f, inner_b = _lift_iso(ty.left, rest, rule)
        new_left = inner_f.ty.cod
        lifted_f = lams(ty, lambda x: pair(app(inner_f, proj1(x())), proj2(x())))
        lifted_b = lams(prod(new_left, ty.right),
                        lambda y: pair(app(inner_b, proj1(y())), proj2(y())))
        return lifted_f, lifted_b
    inner_f, inner_b = _lift_iso(ty.right, rest, rule)
    new_right = inner_f.ty.cod
    lifted_f = lams(ty, lambda x: pair(proj1(x()), app(inner_f, proj2(x()))))
    lifted_b = lams(prod(ty.left, new_right), lambda y: pair(proj1(y()), app(inner_b, proj2(y()))))
    return lifted_f, lifted_b


def _compose_terms(second: Term, first: Term) -> Term:
    return lams(first.ty.dom, lambda x: app(second, app(first, x())))


@S.memo(lambda ty: ty.uid)
def build_iso(ty: Ty) -> IsoWitness:
    """An isomorphism pair between a type and its product normal form,
    composed from one lifted primitive witness per reduction step; the
    type after a step is the codomain of that step's forward witness."""
    current = ty
    fwd = bwd = lams(ty, lambda x: x())
    for step in type_nf(ty).steps:
        lf, lb = _lift_iso(current, step.path, step.rule)
        fwd = _compose_terms(lf, fwd)
        bwd = _compose_terms(bwd, lb)
        current = lf.ty.cod
    return IsoWitness(ty, current, fwd, bwd)


# ---------------------------------------------------------------------------
# Splitting along the normal form

UNIT_MARKER = "unit"


def split(a: Term):
    """Components of the long normal form of a closed term whose type is
    already in product normal form; the terminal type yields a marker."""
    if not is_product_nf(a.ty):
        raise IllTyped("splitting expects a type in product normal form")
    if isinstance(a.ty, TyTerminal):
        return UNIT_MARKER
    t, parts = long_nf(a).term, []
    while isinstance(t.ty, TyProd):  # a left-nested pair, read from the right
        if not isinstance(t, S.Pair):
            raise IllTyped("long form of a product is a pair")
        parts.append(t.snd)
        t = t.fst
    return [t, *parts[::-1]]


def differing_component(a: Term, b: Term, iso: IsoWitness) -> int:
    """The least 1-based index at which the split components of the two
    terms (moved through the isomorphism) are provably unequal."""
    return _differing_parts(a, b, iso)[0]


def _differing_parts(a: Term, b: Term, iso: IsoWitness):
    """``differing_component`` together with both lists of components."""
    if a.ty is not b.ty:
        raise TypeMismatch("the terms must share a type")
    parts_a = split(S.app(iso.forward, a))
    parts_b = split(S.app(iso.forward, b))
    if parts_a == UNIT_MARKER or parts_b == UNIT_MARKER:
        raise EqualTerms("terminal-typed terms are all equal")
    if len(parts_a) != len(parts_b):
        raise IllTyped("components of equal-typed terms must align")
    for idx, (x, y) in enumerate(zip(parts_a, parts_b), start=1):
        if not decide_eq(x, y):
            return idx, parts_a, parts_b
    raise EqualTerms("all components are provably equal")


# ---------------------------------------------------------------------------
# Separation with products

def separate_prod(a: Term, b: Term, max_base: int = 3,
                  max_level: int | None = None) -> ProductCertificate:
    """Separating certificate for closed unequal terms with products:
    project one differing component of the normal-form image and reuse
    the product-free pipeline on it, with the two projections of a fresh
    pair variable as targets.  It returns only a certificate that
    ``verify_product`` accepts."""
    if a.ty is not b.ty:
        raise TypeMismatch("the terms to separate must share a type")
    if not (S.is_closed(a) and S.is_closed(b)):
        raise IllTyped("product separation expects closed terms")
    # an equal pair stops here, before the long forms of the split
    if decide_eq(a, b):
        raise EqualTerms("the terms are provably equal")
    return replayed(_build(a, b, max_base, max_level), verify_product)


def _build(a: Term, b: Term, max_base: int, max_level: int | None) -> ProductCertificate:
    """The certificate of a closed unequal pair, built unchecked."""
    iso = build_iso(a.ty)
    idx, parts_a, parts_b = _differing_parts(a, b, iso)
    inner = Sep._build_two(parts_a[idx - 1], parts_b[idx - 1], max_base, max_level)
    sub = instance_sub(inner.level, inner.target_c.ty, a, b)
    a_prime, b_prime, _ = instantiate(sub, a, b)
    return ProductCertificate(
        a_source=a, b_source=b,
        a_prime=a_prime, b_prime=b_prime,
        iso_forward=S.substitute_types(iso.forward, sub),
        component=idx,
        n_components=len(parts_a),
        inner=inner,
    )
