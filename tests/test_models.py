import gc
import hashlib
import json
import os
import random
import re
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from betaeta import hierarchy as H
from betaeta import models as M
from betaeta import numerals as N
from betaeta import syntax as S
from betaeta.errors import (
    IllTyped, LevelTooSmall, Overflow, SideConditionViolated, TypeMismatch,
)
from betaeta.normalize import beta_eta_nf, decide_eq

from conftest import (
    PRODUCT_FREE_ROSTER, from_table, gen_closed_term, memo_sizes, min_check_level, run_in_child,
    type_order,
)

p = S.atom("p")
pp = S.arrow(p, p)
ppp = S.arrow(pp, p)


def worked_pair():
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    return a, b


def test_cardinalities():
    m = M.PModel(2)
    assert m.card(p) == 2
    assert m.card(pp) == 4
    assert m.card(ppp) == 16
    assert M.PModel(3).card(pp) == 27


def test_cardinality_overflow():
    m = M.PModel(2)
    deep = ppp
    for _ in range(3):
        deep = S.arrow(deep, p)
    with pytest.raises(Overflow):
        m.card(deep)


def test_enumerate_base_and_functions():
    m = M.PModel(2)
    assert [f.code for f in m.enum(p)] == [0, 1]
    tables = [f.table() for f in m.enum(pp)]
    assert tables == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert len(list(m.enum(ppp))) == 16


def test_encode_decode_round_trip():
    for base in (2, 3):
        m = M.PModel(base)
        for ty in (pp, S.arrow(p, pp)):
            for f in m.enum(ty):
                assert from_table(m, ty, f.table()).code == f.code


def test_application_is_digit_extraction():
    m = M.PModel(2)
    neg = m.functional(pp, 1)
    assert neg(m.functional(p, 0)).code == 1
    assert neg(m.functional(p, 1)).code == 0
    with pytest.raises(TypeMismatch):
        neg(m.functional(pp, 0))


def test_eval_identity_table():
    m = M.PModel(2)
    ident = H.eval_closed(S.parse_term("\\x:p. x"), m)
    assert ident.table() == [0, 1]


def test_eval_church_one_is_identity():
    m = M.PModel(2)
    v = H.eval_closed(N.church(1, 0), m)
    for psi in m.enum(pp):
        assert v(psi) == psi


def test_eval_refuses_a_free_variable():
    m = M.PModel(2)
    t = S.free("x", p)
    with pytest.raises(S.UnboundVariable):
        H.eval_closed(t, m)


def test_eval_rejects_products():
    m = M.PModel(2)
    t = S.parse_term("\\x:p*p. p1 x")
    with pytest.raises(IllTyped):
        H.eval_closed(t, m)


def test_worked_example_values():
    a, b = worked_pair()
    m = M.PModel(2)
    phi = from_table(m, ppp, [1, 0, 0, 0])  # 1 on the constant-zero branch
    assert H.eval_closed(a, m)(phi).code == 0
    assert H.eval_closed(b, m)(phi).code == 1


def test_distinguish_worked_example():
    a, b = worked_pair()
    got = M.distinguish(a, b, 3)
    assert got is not None
    assert got.base == 2
    assert len(got.args) == 1
    assert got.args[0].table() == [1, 0, 0, 0]
    assert got.relabeling == [0, 1]


def test_distinguish_church_one_two():
    got = M.distinguish(N.church(1, 0), N.church(2, 0), 3)
    assert got.base == 2
    f, x = got.args
    assert f.table() == [1, 0]  # negation
    assert x.code == 1          # the point it moves, after relabeling
    assert got.relabeling == [1, 0]


def test_distinguish_equal_terms_none():
    t = S.parse_term("\\x:p->p. \\y:p. x y")
    assert M.distinguish(t, t, 3) is None
    eta = S.parse_term("\\x:p->p. x")
    assert M.distinguish(t, eta, 3) is None
    # the eta-short term on the a-side too
    assert M.distinguish(eta, t, 3) is None


def test_distinguish_applies_a_coded_partial_application():
    # an eta-short side applies its coded argument to one argument at a
    # time, so the card of each partial result type is used; pinned from
    # the search that applied Functional objects
    got = [M.distinguish(S.parse_term(a), S.parse_term(b), 3) for a, b in (
        ("\\f:p->p->p. f", "\\f:p->p->p. \\x:p. \\y:p. f y x"),
        ("\\f:p->p. f", "\\f:p->p. \\x:p. f (f x)"),
        ("\\f:p->p. f", "\\f:p->p. \\x:p. f (f (f x))"))]  # equal at base 2
    assert [_payload(found) for found in got] == [
        [2, [["p -> p -> p", 11], ["p", 1], ["p", 0]], [1, 0]],
        [2, [["p -> p", 1], ["p", 1]], [1, 0]],
        [3, [["p -> p", 4], ["p", 2]], [0, 1, 2]]]


def test_distinguish_requires_closed_terms():
    with pytest.raises(IllTyped):
        M.distinguish(S.free("x", pp), S.free("x", pp), 2)


def test_distinguish_rejects_a_loose_index():
    # a loose de Bruijn index is a free variable too, not an IndexError
    loose = S.lam(p, S.var(1, p))
    for a, b in ((loose, loose), (loose, S.lam(p, S.var(0, p)))):
        with pytest.raises(IllTyped):
            M.distinguish(a, b, 2)


def test_eval_closed_rejects_a_loose_index():
    with pytest.raises(IllTyped):
        H.eval_closed(S.lam(p, S.var(1, p)), M.PModel(2))


def test_transport_round_trip():
    for base, ty, perm, inv in ((3, pp, [2, 0, 1], [1, 2, 0]), (2, ppp, [1, 0], [1, 0])):
        m = M.PModel(base)

        def move(phi, perm=perm, inv=inv):
            return m.functional(phi.ty, H._transport(phi.code, phi.ty, base, perm, inv))

        moved = [move(phi) for phi in m.enum(ty)]
        # a permutation of the elements, and not the identity
        assert sorted(f.code for f in moved) == list(range(m.card(ty)))
        assert moved != list(m.enum(ty))
        for phi, there in zip(m.enum(ty), moved):
            assert move(there, inv, perm) == phi
            # renaming commutes with application
            for x in m.enum(ty.dom):
                assert there(move(x)) == move(phi(x))


def test_coded_application_is_the_elements_digit_extraction():
    # the evaluator applies a code f to x as f // n**x % n; the producers
    # keep Functional application, which must agree with it
    # (p -> p) -> p -> p at base 3 has too many elements for a code, so
    # its value is applied as the evaluator's raw lambda value
    m = M.PModel(3)
    body, env = M.evaluate(S.parse_term("\\f:p->p. \\x:p. f x"), 3)
    for f in m.enum(pp):
        inner, inner_env = body(env + (f.code,))
        for x in m.enum(p):
            assert inner(inner_env + (x.code,)) == f(x).code
    # a lambda passed to a code is forced to its code first
    m = M.PModel(2)
    ident = from_table(m, pp, [0, 1])
    at_ident = H.eval_closed(S.parse_term("\\g:(p->p)->p. g (\\y:p. y)"), m)
    for g in m.enum(ppp):
        assert at_ident(g) == g(ident)


@pytest.mark.parametrize("text, base, message", [
    ("\\x:p->p->p->p->p->p. \\y:p. y", 2,
     "refusing to enumerate 4294967296 elements of p -> p -> p -> p -> p -> p"),
    ("\\g:(p->p->p->p)->p. \\y:p. y", 2,
     "cardinality of (p -> p -> p -> p) -> p exceeds the cap"),
    ("\\F:(p->p)->p. \\x:p. (\\g:(p->p)->p. g (\\y:p. F (\\z:p. y))) F", 3,
     "refusing to enumerate 7625597484987 elements of (p -> p) -> p"),
], ids=["domain", "table", "nested-domain"])
def test_materializing_a_lambda_is_capped(text, base, message):
    with pytest.raises(Overflow, match=f"^{re.escape(message)}$"):
        H.eval_closed(S.parse_term(text), M.PModel(base))


def test_branch_order_matches_catalogued_listing():
    m = M.PModel(2)
    order = [f.table() for f in M.branch_order(m, pp)]
    assert order == [[0, 0], [1, 1], [0, 1], [1, 0]]


def test_kappa_of_base_elements_is_zero():
    m = M.PModel(2)
    assert M.kappa(m.functional(p, 0)) == 0
    assert M.kappa(m.functional(p, 1)) == 0


def test_kappa_and_codes_worked_example():
    a, b = worked_pair()
    phi = M.distinguish(a, b, 2).args[0]
    assert M.branch_codes(phi) == [1, 6, 3, 2]
    assert M.kappa(phi) == 19


def test_define_ordinal_is_numeral():
    m = M.PModel(2)
    assert M.define_functional(m.functional(p, 1), 4) is N.church(1, 4)


def test_define_functional_level_guard():
    m = M.PModel(2)
    neg = m.functional(pp, 1)
    low = M.kappa(neg) - 1
    sizes = memo_sizes()
    # a refused level is refused on every call and leaves no memo entry
    for level, error in ((low, LevelTooSmall), (-1, SideConditionViolated)):
        for _ in range(2):
            with pytest.raises(error):
                M.define_functional(neg, level)
    assert memo_sizes() == sizes


def test_memos_keep_no_model_alive():
    def separate():
        a = S.parse_term(r"\x:p->p.\y:p. x y")
        b = S.parse_term(r"\x:p->p.\y:p. x (x y)")
        found = M.distinguish(a, b, 3)
        for phi in found.args:
            M.define_functional(phi, M.kappa(phi))
        return weakref.ref(found.args[0].model)

    model = separate()
    gc.collect()
    assert model() is None  # no memo key or value holds the model or its elements


def test_define_functions_on_points():
    m = M.PModel(2)
    for psi in m.enum(pp):
        i = M.kappa(psi)
        term = M.define_functional(psi, i)
        for n in (0, 1):
            want = N.church(psi(m.functional(p, n)).code, i)
            assert decide_eq(S.app(term, N.church(n, i)), want)


def test_worked_example_definer_is_the_displayed_chain():
    a, b = worked_pair()
    phi = M.distinguish(a, b, 2).args[0]
    term = M.define_functional(phi, 20)
    assert term.ty is M.instance_type(ppp, 20)

    # reconstruct the chain by hand: probe [2]^(x [0]) * [3]^(x [1]),
    # conditionals on codes 1, 6, 3 returning [1], [0], [0], else [0]
    i = 20

    def chain(x1):
        probe = S.apps(
            N.mul(i - 1),
            S.apps(N.expo(i - 1), S.app(x1(), N.church(0, i)), N.church(2, i)),
            S.apps(N.expo(i - 1), S.app(x1(), N.church(1, i)), N.church(3, i)))
        body = N.church(0, i)
        for code, branch in ((3, 0), (6, 0), (1, 1)):
            test = S.app(N.raise_one(i), S.app(N.check(code, i - 1), probe))
            body = S.apps(N.cond(i), test, N.church(branch, i), body)
        return body

    assert term is S.lams(S.arrow(S.numeral_type(i), S.numeral_type(i)), chain)


def test_i_defines_check_basics():
    m = M.PModel(2)
    three = m.functional(p, 1)
    assert M.i_defines_check(N.church(1, 5), three, 5, depth=1)
    assert not M.i_defines_check(N.church(0, 5), three, 5, depth=1)


def test_i_defines_check_level_guard():
    # checking a second-order element below the kappa of its domain
    # elements cannot build the required witnesses
    m = M.PModel(2)
    phi = m.functional(ppp, 0)
    level = 6  # below kappa of every non-constant first-order element
    dummy = S.lams(S.arrow(S.numeral_type(level), S.numeral_type(level)),
                   lambda x: N.church(0, level))
    with pytest.raises(LevelTooSmall):
        M.i_defines_check(dummy, phi, level, depth=2)


def test_first_order_definability_at_kappa_and_above():
    m = M.PModel(2)
    for psi in m.enum(pp):
        for i in (M.kappa(psi), M.kappa(psi) + 1):
            assert M.i_defines_check(M.define_functional(psi, i), psi, i,
                                     depth=type_order(pp))


def test_second_order_definability_above_kappa():
    m = M.PModel(2)
    for code in (1, 6, 9):  # a sample; the full sweep runs at kappa itself
        phi = m.functional(ppp, code)
        i = M.kappa(phi) + 1
        assert M.i_defines_check(M.define_functional(phi, i), phi, i, depth=2)


def test_nth_prime():
    assert [M.nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
    assert M.nth_prime(10) == 29


def test_second_order_codec_round_trip():
    m = M.PModel(2)
    for f in m.enum(ppp):
        assert from_table(m, ppp, f.table()).code == f.code


def test_closed_terms_define_their_values():
    # the numeral-type instance of a closed term provably defines the
    # term's own value, checked on small closed terms of varied shapes
    rng = random.Random(99)
    m = M.PModel(2)
    for ty in PRODUCT_FREE_ROSTER:
        for _ in range(3):
            a = gen_closed_term(ty, rng, fuel=2)
            value = H.eval_closed(a, m)
            i = min_check_level(value)
            i += i % 2
            inst = S.substitute_types(a, {"p": S.numeral_type(i)})
            assert M.i_defines_check(inst, value, i, depth=type_order(ty))


# ---------------------------------------------------------------------------
# The model search, pinned: the witness it returns is what a certificate's
# ``model_args`` and ``relabeling`` state, so a faster search must find
# the same one

TOWER = {k: S.parse_term(text) for k, text in {
    "a": "\\x1:(p->p)->p. x1 \\x2:p. x2",
    "b2": "\\x1:(p->p)->p. x1 \\x2:p. x1 \\x3:p. x2",
    "b3": "\\x1:(p->p)->p. x1 \\x2:p. x1 \\x3:p. x3",
    "c2": "\\x1:(p->p)->p. x1 \\x2:p. x1 \\x3:p. x1 \\x4:p. x2",
    "c3": "\\x1:(p->p)->p. x1 \\x2:p. x1 \\x3:p. x1 \\x4:p. x3",
    "c4": "\\x1:(p->p)->p. x1 \\x2:p. x1 \\x3:p. x1 \\x4:p. x4",
}.items()}


def _payload(found):
    if found is None:
        return None
    return [found.base, [[S.show_type(f.ty), f.code] for f in found.args], found.relabeling]


def _pinned(results):
    """(number separated, sha256 of the results in order)."""
    payload = json.dumps([_payload(found) for found in results]).encode()
    return sum(found is not None for found in results), hashlib.sha256(payload).hexdigest()


def _roster_pairs(ty, seed, n=40):
    # a quarter identical, as in the benchmark's search pairs
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        a = gen_closed_term(ty, rng)
        out.append((a, a if rng.random() < 0.25 else gen_closed_term(ty, rng)))
    return out


def _fixed_pairs():
    K = S.parse_term("\\x:p. \\y:p. x"), S.parse_term("\\x:p. \\y:p. y")
    eta = S.parse_term("\\x:p->p. \\y:p. x y"), S.parse_term("\\x:p->p. x")
    return [
        (*worked_pair(), 3),
        (N.church(0, 0), N.church(1, 0), 3),
        (N.church(1, 0), N.church(2, 0), 3),
        (N.church(2, 0), N.church(3, 0), 3),
        (*K, 3),
        (*eta, 3),
        (TOWER["a"], TOWER["c3"], 3),
        (TOWER["b2"], TOWER["b3"], 3),
        (TOWER["c2"], TOWER["c4"], 2),
    ]


# per group: the number of pairs separated, and the sha256 of the results
# in order, each (base, [(type, code)], relabeling) or None; measured on
# the search before it was compiled and walked by prefix
DISTINGUISH_PINS = {
    "p -> p -> p":
        (11, "82762f41e2576b3980b72227c0363c1e0335df3f7d8eba57044c153e65591bd7"),
    "(p -> p) -> p -> p":
        (19, "37bd32c4a9c3a784183389d27ce8d9c3ebcb497967f62b0a74f44e0e09de9c24"),
    "(p -> p) -> (p -> p) -> p -> p":
        (28, "cfafbf3294123442a8342c517260fe702ac2e0b07210a759a52689e7a67416a1"),
    "p -> (p -> p) -> p":
        (19, "ca6741ecb98d1df4681d31f55f50b13fb37d14261652bbf68da35e0f00dd9833"),
    "fixed":
        (7, "abe4cd22f875e62479da6a1b349cb7e24e579b94e566ed529712a6713ffaa73e"),
}


def test_distinguish_results_are_pinned():
    got = {}
    for k, ty in enumerate(PRODUCT_FREE_ROSTER):
        got[S.show_type(ty)] = _pinned([M.distinguish(a, b, 3)
                                        for a, b in _roster_pairs(ty, 600 + k)])
    got["fixed"] = _pinned([M.distinguish(a, b, n) for a, b, n in _fixed_pairs()])
    assert got == DISTINGUISH_PINS


@st.composite
def unnormal_terms(draw):
    """A roster term whose contracted normal form is another node: the
    first from the drawn seed on.  At ``p -> p -> p`` and
    ``p -> (p -> p) -> p`` every closed long normal form is contracted."""
    ty = draw(st.sampled_from(PRODUCT_FREE_ROSTER[1:3]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    for k in range(32):
        a = gen_closed_term(ty, random.Random(seed + k))
        nf = beta_eta_nf(a).term
        if nf is not a:
            break
    assume(nf is not a)
    return a, nf


@settings(max_examples=40, deadline=None)
@given(unnormal_terms())
def test_distinguish_searches_every_tuple_of_an_equal_pair(pair):
    a, nf = pair
    assert M.distinguish(a, nf, 3) is None


@pytest.fixture
def evaluated(monkeypatch):
    """The base of every ``evaluate`` call ``distinguish`` makes."""
    bases = []
    real = M.evaluate

    def spy(t, base):
        bases.append(base)
        return real(t, base)

    monkeypatch.setattr(M, "evaluate", spy)
    return bases


def test_distinguish_refuses_base_3_of_the_tower_pair(evaluated):
    # base 2 agrees on (c2, c4); base 3 has 3**27 arguments, refused
    # before either term is evaluated there
    with pytest.raises(Overflow, match=r"^argument search space of 7625597484987 "
                                       r"tuples exceeds the cap$"):
        M.distinguish(TOWER["c2"], TOWER["c4"], 3)
    assert evaluated == [2, 2]
    evaluated.clear()
    assert M.distinguish(TOWER["c2"], TOWER["c4"], 2) is None
    assert evaluated == [2, 2]


def test_distinguish_evaluates_nothing_for_one_node(evaluated):
    for a, b, _ in _fixed_pairs():
        assert M.distinguish(a, a, 2) is None
        assert M.distinguish(b, b, 2) is None
    assert evaluated == []
    # the checks before the search and the cap still apply to one node
    with pytest.raises(Overflow, match="7625597484987 tuples"):
        M.distinguish(TOWER["c2"], TOWER["c2"], 3)
    with pytest.raises(IllTyped, match="the result type must be an atom"):
        M.distinguish(*[S.parse_term("\\x:p*p. x")] * 2, 2)


def test_distinguish_finds_nothing_on_an_eta_expanded_copy(evaluated, rng):
    # a search term and its one-step eta expansion are two nodes, so the
    # search takes its exhaustive path at base 2 and base 3
    for ty in PRODUCT_FREE_ROSTER:
        t = gen_closed_term(ty, rng)
        copy = S.lams(ty.dom, lambda x: S.app(t, x()))
        assert copy is not t and decide_eq(copy, t)
        evaluated.clear()
        assert M.distinguish(t, copy, 3) is None
        assert sorted(set(evaluated)) == [2, 3]


def test_repeating_a_search_grows_nothing():
    # the last pair applies F to a closed lambda, whose code each
    # application node keeps once forced
    pairs = [worked_pair(), (S.parse_term("\\x:p->p. \\y:p. x y"),
                             S.parse_term("\\x:p->p. \\y:p. x (x y)")),
             (S.parse_term("\\F:(p->p->p)->p. F (\\y:p. \\z:p. y)"),
              S.parse_term("\\F:(p->p->p)->p. F (\\y:p. \\z:p. z)"))]
    first = [_payload(M.distinguish(a, b, 3)) for a, b in pairs]
    assert None not in first and (pairs[0][0].uid, 2) in H._CODE
    tables = H._CODE, H._CARDS, M._SEARCH_CARDS
    sizes = [len(t) for t in tables], memo_sizes(), S.interned_term_count()
    assert [_payload(M.distinguish(a, b, 3)) for a, b in pairs] == first
    assert ([len(t) for t in tables], memo_sizes(), S.interned_term_count()) == sizes
    # keyed by uids and bases alone, so no key keeps a term or a model alive
    for table in tables:
        assert all(type(key) is tuple and {type(i) for i in key} == {int} for key in table)


def _two_nodes(t):
    """``t`` and its one-step eta expansion, another node of its type."""
    return t, S.lams(t.ty.dom, lambda x: S.app(t, x()))


@pytest.mark.parametrize("max_base", [0, 1, 2, 3])
def test_distinguish_raises_in_its_order(max_base):
    # each input also fails every later check: at p -> p * p a loose index
    # is open and its result no atom, and (p->p->p->p)->p has no card at
    # base 2.  The first check raises, for one node and for two, whatever
    # the bases searched; with none, the checks before the search still run
    open_pair = S.lam(p, S.pair(S.var(1, p), S.var(0, p)))
    no_card = "\\g:(p->p->p->p)->p. \\x:p. "
    cases = [
        ([(open_pair, S.parse_term("\\x:p. x"))], TypeMismatch, "must share a type"),
        ([(open_pair,) * 2, _two_nodes(open_pair)], IllTyped, "must be closed"),
        ([(S.parse_term(no_card + "<x, x>"),) * 2, _two_nodes(S.parse_term(no_card + "<x, x>"))],
         IllTyped, "the result type must be an atom"),
        ([(S.parse_term("\\x:p*p. p1 x"),) * 2,
          (S.parse_term("\\x:p*p. p1 x"), S.parse_term("\\x:p*p. p2 x"))],
         IllTyped, "hierarchy types are built from atoms and arrows only"),
    ]
    for pairs, error, message in cases:
        for a, b in pairs:
            with pytest.raises(error, match=message):
                M.distinguish(a, b, max_base)
    for a, b in ((S.parse_term(no_card + "x"),) * 2, _two_nodes(S.parse_term(no_card + "x"))):
        if max_base < 2:
            assert M.distinguish(a, b, max_base) is None
        else:
            with pytest.raises(Overflow, match=r"^cardinality of \(p -> p -> p -> p\) -> p "):
                M.distinguish(a, b, max_base)


def test_each_search_returns_its_own_lists():
    # the witness of K against K' keeps its codes (a gives 0, b gives 1),
    # and that of K' against K is relabeled; either way two searches
    # return equal witnesses in lists of their own
    K = S.parse_term("\\x:p. \\y:p. x"), S.parse_term("\\x:p. \\y:p. y")
    for (a, b), codes, relabeling in ((K, [0, 1], [0, 1]), (K[::-1], [1, 0], [1, 0])):
        first, second = M.distinguish(a, b, 3), M.distinguish(a, b, 3)
        assert _payload(first) == _payload(second) == [2, [["p", c] for c in codes], relabeling]
        assert first.args is not second.args and first.relabeling is not second.relabeling
        first.args.clear()
        first.relabeling.clear()
        assert _payload(M.distinguish(a, b, 3)) == _payload(second)


def test_each_relabeling_of_base_3_sends_the_values_to_0_and_1():
    # numeral pairs that base 2 cannot tell apart: the base-3 witness of
    # each gives another pair of values, so between them they need all six
    # relabelings, and the relabeled witness gives 0 for a and 1 for b
    relabelings = {(1, 3): [0, 1, 2], (3, 1): [1, 0, 2], (2, 4): [2, 1, 0],
                   (4, 2): [2, 0, 1], (2, 6): [1, 2, 0], (6, 2): [0, 2, 1]}
    for (i, j), relabeling in relabelings.items():
        a, b = N.church(i, 0), N.church(j, 0)
        found = M.distinguish(a, b, 3)
        assert (found.base, found.relabeling) == (3, relabeling)
        for t, want in ((a, 0), (b, 1)):
            v = M.evaluate(t, 3)
            for phi in found.args:
                v = v[0](v[1] + (phi.code,))
            assert v == want


def test_a_closed_argument_is_forced_once_per_node_and_base(monkeypatch):
    # F applied to a closed lambda: the search applies each of the 65,536
    # elements of (p->p->p)->p at base 2 to it, in a and in its eta copy,
    # which share the application node, and the lambda's table is built once
    t = S.parse_term("\\F:(p->p->p)->p. F (\\y:p. \\z:p. y)")
    arg_ty = t.ty.dom.dom
    at_3 = H.eval_closed(t.body.arg, M.PModel(3)).code
    tables = []
    real = H._force

    def spy(v, base, ty):
        if ty is arg_ty and type(v) is tuple:
            tables.append(base)
        return real(v, base, ty)

    monkeypatch.setattr(H, "_force", spy)
    monkeypatch.setattr(H, "_CODE", {})  # compiled afresh, whatever ran before
    assert M.distinguish(*_two_nodes(t), 2) is None
    assert tables == [2]
    # base 3 has no card for F's type, so F's codes are applied by hand:
    # the code whose digit at the lambda's code is d, for each d
    body, env = M.evaluate(t, 3)
    assert [body(env + (d * 3 ** at_3,)) for d in range(3)] == [0, 1, 2]
    assert tables == [2, 3]
    assert M.distinguish(*_two_nodes(t), 2) is None and tables == [2, 3]


def test_a_card_past_the_cap_is_refused_in_a_short_message():
    with pytest.raises(Overflow, match=r"^cardinality of .* exceeds the cap$") as info:
        M.PModel(2).card(S.numeral_type(20))
    assert len(str(info.value)) < 200


def test_distinguish_tuple_cap(monkeypatch):
    # the worked pair separates at base 2, on one of 16 arguments
    a, b = worked_pair()
    monkeypatch.setattr(M, "TUPLE_CAP", 16)
    assert M.distinguish(a, b, 2).base == 2
    monkeypatch.setattr(M, "TUPLE_CAP", 15)
    with pytest.raises(Overflow, match="16 tuples"):
        M.distinguish(a, b, 2)


def test_type_order_walks_a_shared_type_once_per_node():
    # tower_type(200) is a tree of 2**201 nodes shared as 201
    tests = os.path.dirname(os.path.abspath(__file__))
    out = run_in_child("import sys, time\n"
                       f"sys.path.insert(0, {tests!r})\n"
                       "from betaeta import syntax as S\n"
                       "from conftest import type_order\n"
                       "start = time.perf_counter()\n"
                       "order = type_order(S.tower_type(200))\n"
                       "print(order, time.perf_counter() - start)\n")
    order, seconds = out.split()
    assert order == "200" and float(seconds) < 1.0
