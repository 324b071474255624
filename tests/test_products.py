import random
import time

import pytest

from betaeta import checker
from betaeta import products as P
from betaeta import syntax as S
from betaeta.errors import (
    BadCertificate, EqualTerms, IllTyped, IndexOutOfRange, Overflow, SideConditionViolated,
)
from betaeta.normalize import decide_eq
from betaeta.numerals import church

from conftest import log_calls, random_mixed_type, run_in_child

p, q = S.atom("p"), S.atom("q")
T = S.TERMINAL


def test_measure_base_cases():
    assert P.measure(p) == 2
    assert P.measure(T) == 2


@pytest.mark.parametrize("call", [
    lambda: P.type_nf(p, strategy="x"),
], ids=["type_nf strategy=x"])
def test_a_bad_argument_raises_a_package_error(call):
    # a BetaEtaError, which a library caller catching the package's errors sees
    with pytest.raises(SideConditionViolated):
        call()


def test_measure_reference_values():
    assert P.measure(S.arrow(p, S.prod(p, p))) == 36
    assert P.measure(S.prod(S.arrow(p, p), S.arrow(p, p))) == 20
    assert P.measure(S.prod(p, T)) == 6


def test_measure_overflow(monkeypatch):
    deep = p
    for _ in range(8):
        deep = S.arrow(deep, deep)
    monkeypatch.setattr(P, "MEASURE_BIT_BUDGET", 1 << 10)
    with pytest.raises(Overflow):
        P.measure(deep)


def test_type_nf_reference_rows():
    out = P.type_nf(S.arrow(S.prod(p, p), q))
    assert out.output is S.arrows(p, p, q)
    assert [s.rule for s in out.steps] == ["curryDom"]

    out = P.type_nf(S.arrow(p, T))
    assert out.output is T
    assert [s.rule for s in out.steps] == ["arrT"]

    out = P.type_nf(S.arrow(p, S.prod(q, T)))
    assert out.output is S.arrow(p, q)
    assert [s.rule for s in out.steps] == ["prodT"]


def test_type_nf_measures_decrease():
    rng = random.Random(3)
    for _ in range(200):
        ty = random_mixed_type(rng, 18)
        trace = P.type_nf(ty)
        for step in trace.steps:
            if step.before is not None and step.after is not None:
                assert step.after < step.before


def test_type_nf_strategies_agree():
    rng = random.Random(5)
    for _ in range(200):
        ty = random_mixed_type(rng, 18)
        inner = P.type_nf(ty, "innermost").output
        outer = P.type_nf(ty, "outermost").output
        assert inner is outer
        assert P.is_product_nf(inner)


def test_build_iso_identity_when_normal():
    ty = S.arrows(p, p, q)
    iso = P.build_iso(ty)
    assert iso.target is ty
    assert decide_eq(iso.forward, S.lams(ty, lambda x: x()))


def test_build_iso_terminal_product():
    ty = S.prod(p, T)
    iso = P.build_iso(ty)
    assert iso.target is p
    assert P.build_iso(ty) is iso  # built once and shared, so frozen
    with pytest.raises(AttributeError):
        iso.target = ty
    assert decide_eq(iso.forward, S.lams(ty, lambda x: S.proj1(x())))
    assert decide_eq(iso.backward, S.lams(p, lambda a: S.pair(a(), S.UNIT)))


def test_build_iso_round_trips():
    rng = random.Random(9)
    for _ in range(15):
        ty = random_mixed_type(rng, 12)
        iso = P.build_iso(ty)
        assert decide_eq(S.lams(ty, lambda x: S.app(iso.backward, S.app(iso.forward, x()))),
                         S.lams(ty, lambda x: x()))
        assert decide_eq(S.lams(iso.target, lambda y: S.app(iso.forward, S.app(iso.backward, y()))),
                         S.lams(iso.target, lambda y: y()))


def test_split_marker_and_singleton():
    u = S.parse_term("k")
    assert P.split(u) == P.UNIT_MARKER
    one = church(1, 0)
    parts = P.split(one)
    assert len(parts) == 1 and decide_eq(parts[0], one)


def test_split_pair_components():
    t = S.pair(church(1, 0), church(2, 0))
    parts = P.split(t)
    assert len(parts) == 2
    assert decide_eq(parts[0], church(1, 0))
    assert decide_eq(parts[1], church(2, 0))


def test_split_requires_normal_type():
    t = S.parse_term("\\x:p*p. p1 x")
    with pytest.raises(IllTyped):
        P.split(t)


def test_separate_prod_rejects_a_loose_index():
    # without the closed check, decide_eq would evaluate the loose index
    with pytest.raises(IllTyped):
        P.separate_prod(S.lam(p, S.var(1, p)), S.lam(p, S.var(0, p)))


def test_split_components_are_product_free():
    t = S.pair(S.pair(church(1, 0), church(2, 0)), church(0, 0))
    for part in P.split(t):
        assert S.is_product_free(part.ty)


def _subtypes(ty):
    out = {ty}
    if isinstance(ty, S.TyArrow):
        out |= _subtypes(ty.dom) | _subtypes(ty.cod)
    elif isinstance(ty, S.TyProd):
        out |= _subtypes(ty.left) | _subtypes(ty.right)
    return out


def _subterm_types(t):
    out = {t.ty}
    if isinstance(t, S.Lam):
        out |= _subterm_types(t.body)
    elif isinstance(t, S.App):
        out |= _subterm_types(t.fun) | _subterm_types(t.arg)
    elif isinstance(t, S.Pair):
        out |= _subterm_types(t.fst) | _subterm_types(t.snd)
    elif isinstance(t, (S.Proj1, S.Proj2)):
        out |= _subterm_types(t.arg)
    return out


def test_split_subformula_discipline():
    # every subterm of a component lives at a subtype of the normal form
    t = S.pair(S.pair(church(1, 0), church(2, 0)), church(0, 0))
    allowed = _subtypes(t.ty)
    for part in P.split(t):
        assert _subterm_types(part) <= allowed


def test_split_lengths_agree_for_same_type():
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    iso = P.build_iso(a.ty)
    assert len(P.split(S.app(iso.forward, a))) == len(P.split(S.app(iso.forward, b)))


def test_differing_component_swap_pair():
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    iso = P.build_iso(a.ty)
    assert P.differing_component(a, b, iso) == 1


def test_differing_component_product_free():
    iso = P.build_iso(church(1, 0).ty)
    assert P.differing_component(church(1, 0), church(2, 0), iso) == 1


def test_differing_component_equal_raises():
    iso = P.build_iso(church(1, 0).ty)
    with pytest.raises(EqualTerms):
        P.differing_component(church(1, 0), church(1, 0), iso)


def test_projector_shapes():
    ty1 = S.arrow(p, p)
    assert decide_eq(checker.projector(1, 1, ty1), S.parse_term("\\x:p->p. x"))
    ty3 = S.prod(S.prod(S.arrow(p, p), S.arrow(p, p)), S.arrow(p, p))
    pr3 = checker.projector(3, 3, ty3)
    assert pr3 is S.lams(ty3, lambda x: S.proj2(x()))
    pr1 = checker.projector(3, 1, ty3)
    assert pr1 is S.lams(ty3, lambda x: S.proj1(S.proj1(x())))
    with pytest.raises(IndexOutOfRange):
        checker.projector(3, 4, ty3)


def test_separate_prod_swap_pair():
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    cert = P.separate_prod(a, b)
    assert cert.component == 1
    assert cert.n_components == 2
    assert P.verify_product(cert)


def test_separate_prod_degenerate_product_free():
    cert = P.separate_prod(church(1, 0), church(2, 0))
    assert cert.n_components == 1
    assert P.verify_product(cert)


def test_separate_prod_equal_raises():
    with pytest.raises(EqualTerms):
        P.separate_prod(church(1, 0), church(1, 0))
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    ident = S.parse_term("\\x:p*p. x")
    with pytest.raises(EqualTerms):
        P.separate_prod(a, ident)


def test_separate_prod_rejects_open_terms():
    with pytest.raises(IllTyped):
        P.separate_prod(S.free("x", S.prod(p, p)), S.free("x", S.prod(p, p)))


def test_verify_product_detects_component_tampering():
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    cert = P.separate_prod(a, b)
    cert.component = 2
    try:
        ok = P.verify_product(cert)
    except IllTyped:
        ok = False
    assert not ok


def test_a_broken_projector_stops_separate_prod(monkeypatch):
    # the build never projects, so only the replay meets a projector that
    # picks the other of two components of the same type
    real = checker.projector
    monkeypatch.setattr(checker, "projector", lambda n, i, ty: real(n, n + 1 - i, ty))
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    with pytest.raises(AssertionError, match="^verify_product rejected"):
        P.separate_prod(a, b)


def test_separate_prod_decides_nothing_twice(monkeypatch):
    # the pair once, then the components until one differs; the inner
    # build neither decides that component again nor replays, and
    # verify_product is the one check, whose decisions the checker takes
    # through normalize.decide_eq
    from betaeta import normalize as Nz
    from betaeta import separator as Sep
    calls = log_calls(monkeypatch, (P, "decide_eq"), (P, "verify_product"),
                      (Sep, "decide_eq"), (Sep, "verify"), (Nz, "decide_eq"))
    P.separate_prod(S.parse_term("\\x:p*p. <p1 x, p2 x>"),
                    S.parse_term("\\x:p*p. <p2 x, p1 x>"))
    assert calls == ["products.decide_eq"] * 2 + ["products.verify_product"] + [
        "normalize.decide_eq"] * 2


def test_verify_product_rejects_equal_sources():
    a = S.parse_term("\\x:p*p. x")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    cert = P.separate_prod(a, b)
    assert P.verify_product(cert)
    cert.b_source = cert.a_source
    assert not P.verify_product(cert)


def test_verify_product_empties_the_table():
    from betaeta import normalize as Nz
    cert = P.separate_prod(S.parse_term("\\x:p*p. x"), S.parse_term("\\x:p*p. <p2 x, p1 x>"))
    assert P.verify_product(cert)
    assert not Nz._CLOSED


def test_verify_product_rejects_a_tampered_level():
    from betaeta import cli
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    text = cli.serialize_certificate(P.separate_prod(a, b))
    assert '"level": 0,' in text
    assert P.verify_product(cli.parse_certificate(text))
    for level in ('1', '2', '-1'):
        tampered = cli.parse_certificate(text.replace('"level": 0,', f'"level": {level},'))
        assert not P.verify_product(tampered)
    with pytest.raises(BadCertificate, match="'level' must be int, not \"0\""):
        cli.parse_certificate(text.replace('"level": 0,', '"level": "0",'))


# sha256 of the built terms, printed through one shared alias table: the
# defining term at kappa of base-2 elements of each roster type (every
# element, or 16 seeded codes where the type has 2**32 of them), then the
# isomorphism pair of 60 seeded mixed types; a rewrite of either
# construction must build the same nodes
BUILT_TERMS_PIN = (664, 12_682_311,
                   "05c2c727557005c8e57db7a2d0f7e9bf67ad849362c0623c55da3ba4d0411fb8")


def test_built_terms_are_pinned():
    import hashlib
    from betaeta import models as M
    from conftest import PRODUCT_FREE_ROSTER
    model = M.PModel(2)
    terms = []
    for ty in PRODUCT_FREE_ROSTER:
        n = model.card(ty)
        codes = range(n) if n <= 256 else sorted(random.Random(n).sample(range(n), 16))
        for code in codes:
            phi = model.functional(ty, code)
            terms.append(M.define_functional(phi, M.kappa(phi)))
    rng = random.Random(9)
    for _ in range(60):
        iso = P.build_iso(random_mixed_type(rng))
        terms += [iso.forward, iso.backward]
    defs, names = S.type_alias_table(terms)
    digest = hashlib.sha256()
    size = 0
    for line in [f"{n} = {d}" for n, d in defs] + [S.show_term(t, names) for t in terms]:
        data = (line + "\n").encode()
        digest.update(data)
        size += len(data)
    assert (len(terms), size, digest.hexdigest()) == BUILT_TERMS_PIN


def test_type_nf_searches_a_shared_type_once_per_node():
    # tower_type(40) is a tree of 2**41 nodes shared as 41; a redex search
    # that walks it as a tree never ends, so run it in a child
    out = run_in_child("import time\n"
                       "from betaeta import products as P, syntax as S\n"
                       "start = time.perf_counter()\n"
                       "steps = P.type_nf(S.tower_type(40)).steps\n"
                       "print(len(steps), time.perf_counter() - start)\n")
    steps, seconds = out.split()
    assert steps == "0" and float(seconds) < 1.0
