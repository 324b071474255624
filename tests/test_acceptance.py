"""Acceptance suite: one test per criterion, each printing a pass line
with its wall time.  Run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they complete.
"""

import random
import time

from betaeta import ccc as C
from betaeta import models as M
from betaeta import numerals as N
from betaeta import products as P
from betaeta import separator as Sep
from betaeta import syntax as S
from betaeta.errors import Overflow
from betaeta.normalize import decide_eq
from betaeta.numerals import church

from conftest import PRODUCT_FREE_ROSTER, gen_closed_term, random_mixed_type, type_order

p = S.atom("p")


def _report(n, label, t0):
    print(f"criterion {n} ({label}): PASS in {time.time() - t0:.2f}s")


def worked_pair():
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    return a, b


def test_criterion_1_combinator_suite():
    t0 = time.time()
    failures = []

    def eq(label, got, want):
        if not decide_eq(got, want):
            failures.append(label)

    for i in range(5):
        for n in range(4):
            for m in range(4):
                a, b = church(m, i), church((m + 2) % 4, i)
                eq(f"C n={n} i={i}", S.apps(N.cond(i), church(n, i), a, b),
                   a if n == 0 else b)
                eq(f"E {n},{m} i={i}",
                   S.apps(N.expo(i), church(n, i + 1), church(m, i + 1)),
                   church(m ** n, i))
                eq(f"S {n},{m} i={i}",
                   S.apps(N.add(i), church(n, i), church(m, i)), church(n + m, i))
                eq(f"M {n},{m} i={i}",
                   S.apps(N.mul(i), church(n, i), church(m, i)), church(n * m, i))
                packed = S.apps(N.pairing(i), church(n, i), church(m, i))
                eq(f"proj1 {n},{m} i={i}", S.app(N.proj_first(i), packed), church(n, i))
                eq(f"proj2 {n},{m} i={i}", S.app(N.proj_second(i), packed), church(m, i))
            eq(f"R n={n} i={i}", S.app(N.lower(i), church(n, i + 1)), church(n, i))
            eq(f"D0 n={n} i={i}", S.app(N.check(0, i), church(n, i)),
               church(0 if n == 0 else 1, i))
    for i in (0, 1):
        for n in range(4):
            eq(f"P n={n} i={i}", S.app(N.pred(i), church(n, i + 3)),
               church(max(n - 1, 0), i))
    for i in (1, 2, 3, 4):
        for n in (0, 1):
            eq(f"Z n={n} i={i}", S.app(N.raise_one(i), church(n, i - 1)), church(n, i))
    for i in (3, 4):
        for n in range(4):
            eq(f"D1 n={n} i={i}", S.app(N.check(1, i), church(n, i)),
               church(0 if n == 1 else 1, i))

    took = time.time() - t0
    assert failures == [], failures
    assert took < 60.0, f"combinator suite took {took:.1f}s"
    _report(1, "combinator suite", t0)


def test_criterion_2_worked_example_reproduction():
    t0 = time.time()
    a, b = worked_pair()
    found = M.distinguish(a, b, 3)
    assert found.base == 2
    phi = found.args[0]
    assert phi.table() == [1, 0, 0, 0]  # 1 on the constant-zero branch only
    assert M.branch_codes(phi) == [1, 6, 3, 2]
    assert M.kappa(phi) == 19

    level = 20
    definer = M.define_functional(phi, level)
    ni = S.numeral_type(level)
    a_inst = S.substitute_types(a, {"p": ni})
    b_inst = S.substitute_types(b, {"p": ni})
    assert decide_eq(S.app(a_inst, definer), church(0, level))
    assert decide_eq(S.app(b_inst, definer), church(1, level))

    took = time.time() - t0
    assert took < 300.0, f"worked example took {took:.1f}s"
    _report(2, "worked example, exact codes and level-20 equalities", t0)


def test_criterion_3_definability_exhaustive_at_base_2():
    t0 = time.time()
    model = M.PModel(2)
    pp = S.arrow(p, p)
    ppp = S.arrow(pp, p)
    counted = 0
    for ty in (p, pp, ppp):
        depth = type_order(ty)
        for phi in model.enum(ty):
            i = M.kappa(phi)
            witness = M.define_functional(phi, i)
            assert M.i_defines_check(witness, phi, i, depth=max(depth, 1)), (ty, phi.code)
            counted += 1
    assert counted == 2 + 4 + 16
    _report(3, "definability of all 22 base-2 elements at their own level", t0)


def test_criterion_4_two_valued_contexts():
    t0 = time.time()
    ctx = S.Context([("f", S.arrows(p, p, p)), ("u", p), ("v", p)])
    pairs = [
        (church(1, 0), church(2, 0)),
        worked_pair(),
        (S.parse_term("\\x:p. \\y:p. x"), S.parse_term("\\x:p. \\y:p. y")),
        (S.parse_term("\\f:p->p. \\y:p. f y"), S.parse_term("\\f:p->p. \\y:p. y")),
        (church(2, 0), church(3, 0)),
        (S.parse_term("f u v", ctx), S.parse_term("f v u", ctx)),
    ]
    e, f = S.free("e", p), S.free("f", p)
    for a, b in pairs:
        cert = Sep.separate_two(a, b)
        assert Sep.verify(cert)
        assert decide_eq(S.apps(cert.applied("a"), e, f), e)
        assert decide_eq(S.apps(cert.applied("b"), e, f), f)
    _report(4, f"{len(pairs)} verified two-valued certificates", t0)


def _measure(ty, weight):
    """``products.measure`` with atoms and the terminal type weighing
    ``weight`` instead of 2, so the decrease is seen not to hang on 2."""
    out = {}
    for t in S.subtypes(ty):  # children first
        if isinstance(t, S.TyProd):
            out[t.uid] = (out[t.left.uid] + 1) * out[t.right.uid]
        elif isinstance(t, S.TyArrow):
            base, ex = out[t.cod.uid], out[t.dom.uid]
            if base.bit_length() * ex > P.MEASURE_BIT_BUDGET:
                raise Overflow("type measure exceeds the bit budget")
            out[t.uid] = base ** ex
        else:
            out[t.uid] = weight
        if out[t.uid].bit_length() > P.MEASURE_BIT_BUDGET:
            raise Overflow("type measure exceeds the bit budget")
    return out[ty.uid]


def _measurable_type(rng, max_nodes=30):
    while True:
        ty = random_mixed_type(rng, max_nodes)
        try:
            _measure(ty, 3)
        except Overflow:
            continue  # resample: the decrease check needs computable values
        return ty


def _timed_nf(ty):
    t1 = time.perf_counter()
    P.type_nf(ty, "innermost")
    return time.perf_counter() - t1


def test_criterion_5_type_normal_form_corpus():
    t0 = time.time()
    rng = random.Random(100)
    worst = 0.0
    for _ in range(1000):
        ty = _measurable_type(rng)
        # best of three runs, so scheduler noise does not mask the check
        per_type = min(_timed_nf(ty) for _ in range(3))
        worst = max(worst, per_type)
        assert per_type < 0.010, f"{S.show_type(ty)} took {per_type * 1000:.2f}ms"
        inner = P.type_nf(ty, "innermost")
        outer = P.type_nf(ty, "outermost")
        assert inner.output is outer.output
        assert P.is_product_nf(inner.output)
        assert _measure(ty, 2) == P.measure(ty)
        for weight in (2, 3):
            current = ty
            for step in inner.steps:
                nxt = P._apply_at(current, step.path, step.rule)
                assert _measure(nxt, weight) < _measure(current, weight)
                current = nxt
            assert current is inner.output
    _report(5, f"1000 type reductions, worst per-type {worst * 1000:.2f}ms", t0)


def test_criterion_6_isomorphism_round_trips():
    t0 = time.time()
    rng = random.Random(200)
    for _ in range(50):
        ty = random_mixed_type(rng, 14)
        iso = P.build_iso(ty)
        assert decide_eq(S.lams(ty, lambda x: S.app(iso.backward, S.app(iso.forward, x()))),
                         S.lams(ty, lambda x: x()))
        assert decide_eq(S.lams(iso.target, lambda y: S.app(iso.forward, S.app(iso.backward, y()))),
                         S.lams(iso.target, lambda y: y()))
    _report(6, "50 isomorphism round trips", t0)


def test_criterion_7_product_certificates():
    t0 = time.time()
    swap_a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    swap_b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    pairs = [
        (swap_a, swap_b),
        (S.parse_term("\\x:p*p. x"), swap_b),
        (S.pair(church(1, 0), church(1, 0)), S.pair(church(1, 0), church(2, 0))),
        (S.parse_term("\\x:p*p. p1 x"), S.parse_term("\\x:p*p. p2 x")),
        (S.parse_term("\\u:T*p. \\v:p. p2 u"), S.parse_term("\\u:T*p. \\v:p. v")),
    ]
    for a, b in pairs:
        cert = P.separate_prod(a, b)
        assert P.verify_product(cert), (S.show_term(a), S.show_term(b))
    _report(7, f"{len(pairs)} verified product certificates", t0)


def test_criterion_8_ccc_axioms_collapse_functoriality():
    t0 = time.time()
    report = C.check_axioms(samples=20, seed=2024)
    assert len(report) == 10  # the seven displays, multi-part ones split
    assert all(passed == total == 20 for passed, total in report.values()), report

    cert = C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    assert C.show_arrow(cert.derived_lhs) == "p1[p, p]"
    assert C.show_arrow(cert.derived_rhs) == "p2[p, p]"
    assert C.replay_collapse(cert)

    rng = random.Random(300)
    checked = 0
    while checked < 200:
        f = C.random_arrow(rng)
        g = C.random_arrow_from(f.tgt, rng)
        composed = C.to_lambda(C.ACompose(g, f))
        pointwise = S.lams(f.src, lambda x: S.app(C.to_lambda(g), S.app(C.to_lambda(f), x())))
        assert decide_eq(composed, pointwise)
        checked += 1
    _report(8, "axioms at 20 instances, projection collapse, 200 composites", t0)


def test_criterion_9_equality_model_cross_check():
    t0 = time.time()
    rng = random.Random(400)
    agree_eq = agree_neq = 0
    for k in range(200):
        ty = PRODUCT_FREE_ROSTER[k % len(PRODUCT_FREE_ROSTER)]
        a = gen_closed_term(ty, rng)
        b = a if rng.random() < 0.25 else gen_closed_term(ty, rng)
        eq = decide_eq(a, b)
        found = M.distinguish(a, b, 3)
        if eq:
            assert found is None, (S.show_term(a), S.show_term(b))
            agree_eq += 1
        if found is not None:
            assert not eq
            agree_neq += 1
    assert agree_eq > 0 and agree_neq > 0
    _report(9, f"200 pairs cross-checked ({agree_eq} equal, {agree_neq} separated)", t0)
