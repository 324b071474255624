import gc
import random

import pytest

from betaeta import ccc as C
from betaeta import normalize as Nz
from betaeta import syntax as S
from betaeta.errors import IllTyped, ResourceExhausted, TypeMismatch
from betaeta.numerals import church

from conftest import PRODUCT_FREE_ROSTER, gen_closed_term, run_in_child

p = S.atom("p")


# a loose de Bruijn index is refused at each entry point, not met as an
# IndexError in the evaluator; a named free variable is still allowed
LOOSE = S.lam(p, S.var(1, p))


def test_decide_eq_rejects_a_loose_index():
    for a, b in ((LOOSE, S.lam(p, S.var(0, p))), (S.lam(p, S.var(0, p)), LOOSE)):
        with pytest.raises(IllTyped):
            Nz.decide_eq(a, b)
    assert not Nz.decide_eq(S.lam(p, S.free("y", p)), S.lam(p, S.var(0, p)))


def test_long_nf_rejects_a_loose_index():
    with pytest.raises(IllTyped):
        Nz.long_nf(LOOSE)


def test_beta_nf_rejects_a_loose_index():
    with pytest.raises(IllTyped):
        Nz.beta_nf(LOOSE)


def test_beta_contraction():
    t = S.parse_term("(\\x:p. x) y", S.Context([("y", p)]))
    assert Nz.beta_eta_nf(t).term is S.free("y", p)


def test_eta_contraction_drops_wrapper():
    ctx = S.Context([("f", S.arrow(p, p))])
    t = S.parse_term("\\x:p. f x", ctx)
    assert Nz.beta_eta_nf(t).term is S.free("f", S.arrow(p, p))


def test_pair_of_projections_contracts():
    ctx = S.Context([("c", S.prod(p, p))])
    t = S.parse_term("<p1 c, p2 c>", ctx)
    assert Nz.beta_eta_nf(t).term is S.free("c", S.prod(p, p))


def test_long_form_eta_expands_arrow():
    f = S.free("f", S.arrow(p, p))
    assert S.show_term(Nz.long_nf(f).term) == "\\x1:p. f x1"


def test_long_form_terminal_is_unit():
    x = S.free("x", S.TERMINAL)
    assert Nz.long_nf(x).term is S.UNIT
    assert Nz.beta_eta_nf(x).term is S.UNIT


def test_long_form_product_expands():
    x = S.free("x", S.prod(p, p))
    assert Nz.long_nf(x).term is S.pair(S.proj1(x), S.proj2(x))


def test_decide_eq_numerals_differ():
    assert not Nz.decide_eq(church(1, 0), church(2, 0))
    assert Nz.decide_eq(church(2, 0), church(2, 0))


def test_decide_eq_nested_example_pair():
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    assert not Nz.decide_eq(a, b)


def test_decide_eq_requires_matching_types():
    with pytest.raises(TypeMismatch):
        Nz.decide_eq(S.free("x", p), S.free("x", S.atom("q")))


def test_decide_eq_requires_consistent_context():
    a = S.app(S.free("f", S.arrow(p, p)), S.free("x", p))
    b = S.app(S.free("f", S.arrow(S.atom("q"), p)), S.free("x", S.atom("q")))
    with pytest.raises(TypeMismatch):
        Nz.decide_eq(a, b)


def test_a_closed_pair_is_not_walked_for_names(monkeypatch):
    # decide_eq looks for a common context only where a side has a name
    pairs = [(gen_closed_term(ty, random.Random(seed)), gen_closed_term(ty, random.Random(seed + 1)))
             for ty in PRODUCT_FREE_ROSTER for seed in range(4)]

    def no_walk(a, b):
        raise AssertionError("walked a closed pair")

    monkeypatch.setattr(Nz, "_check_common_context", no_walk)
    assert not all(Nz.decide_eq(a, b) for a, b in pairs)
    with pytest.raises(AssertionError):
        Nz.decide_eq(S.lam(p, S.free("y", p)), S.lam(p, S.var(0, p)))


def test_a_name_at_two_types_is_refused_beside_a_closed_side():
    # free_vars refuses a name used at two types within one side, also
    # when the other side is closed and so has no name to agree on
    q = S.atom("q")
    two = S.apps(S.free("f", S.arrow(p, S.arrow(q, p))), S.free("x", p), S.free("x", q))
    closed = S.lam(p, S.var(0, p))
    for a, b in ((S.lam(p, two), closed), (closed, S.lam(p, two))):
        with pytest.raises(IllTyped, match="'x' used at two types"):
            Nz.decide_eq(a, b)


def test_derived_alpha_is_definitional():
    a = S.parse_term("\\x:p. \\y:p. x")
    b = S.parse_term("\\u:p. \\w:p. u")
    assert a is b and Nz.decide_eq(a, b)


def test_long_nf_idempotent():
    rng = random.Random(7)
    for ty in PRODUCT_FREE_ROSTER:
        for _ in range(10):
            t = gen_closed_term(ty, rng)
            once = Nz.long_nf(t).term
            assert Nz.long_nf(once).term is once


def test_contracted_forms_are_fixed_points():
    # also translations of random arrows and their long forms, whose pairs
    # and terminal types meet the pair and terminal rules: one contraction
    # pass leaves nothing to contract
    rng = random.Random(13)
    terms = [gen_closed_term(ty, rng) for ty in PRODUCT_FREE_ROSTER for _ in range(10)]
    arrows = [C.to_lambda(C.random_arrow(rng, 3)) for _ in range(40)]
    for t in terms + arrows + [Nz.long_nf(a).term for a in arrows]:
        c = Nz.beta_eta_nf(t).term
        assert Nz.beta_eta_nf(c).term is c
        assert Nz.eta_contract(c) is c


def test_terminal_argument_contraction():
    # \u:T. f k contracts to f since every terminal argument is the unit
    f = S.free("f", S.arrow(S.TERMINAL, p))
    t = S.lam(S.TERMINAL, S.app(f, S.UNIT))
    assert Nz.eta_contract(t) is f


def test_beta_nf_keeps_eta_redexes():
    ctx = S.Context([("f", S.arrow(p, p))])
    t = S.parse_term("\\x:p. f x", ctx)
    assert Nz.beta_nf(t).term is t  # no eta step in the diagnostic form


def test_work_budget_aborts():
    from betaeta.numerals import lower
    Nz.set_work_budget(50)
    try:
        with pytest.raises(ResourceExhausted):
            Nz.decide_eq(S.app(lower(2), church(3, 3)), church(3, 2))
    finally:
        Nz.set_work_budget(500_000_000)


def test_normal_forms_carry_kind():
    t = church(1, 0)
    assert Nz.long_nf(t).kind == "expanded"
    assert Nz.beta_eta_nf(t).kind == "contracted"
    assert Nz.beta_nf(t).kind == "beta"


def test_decide_eq_agrees_with_long_form_identity():
    # the fused comparison must coincide with identity of long forms
    rng = random.Random(17)
    for ty in PRODUCT_FREE_ROSTER:
        for _ in range(20):
            a = gen_closed_term(ty, rng)
            b = a if rng.random() < 0.3 else gen_closed_term(ty, rng)
            assert Nz.decide_eq(a, b) == (Nz.long_nf(a).term is Nz.long_nf(b).term)


def test_decide_eq_agrees_on_product_terms():
    rng = random.Random(19)
    for _ in range(20):
        ty = PRODUCT_FREE_ROSTER[rng.randrange(len(PRODUCT_FREE_ROSTER))]
        a1, a2 = gen_closed_term(ty, rng), gen_closed_term(ty, rng)
        b1, b2 = gen_closed_term(ty, rng), gen_closed_term(ty, rng)
        pa, pb = S.pair(a1, S.pair(a2, S.UNIT)), S.pair(b1, S.pair(b2, S.UNIT))
        assert Nz.decide_eq(pa, pb) == (Nz.long_nf(pa).term is Nz.long_nf(pb).term)
        assert Nz.decide_eq(pa, pb) == (Nz.decide_eq(a1, b1) and Nz.decide_eq(a2, b2))


def test_generator_respects_multi_atom_types():
    q = S.atom("q")
    rng = random.Random(23)
    for ty in (S.arrows(S.arrow(p, q), p, q),
               S.arrows(S.arrows(q, p, p), q, p, p)):
        for _ in range(20):
            t = gen_closed_term(ty, rng)
            assert t.ty is ty and t.scope == 0 and not S.free_vars(t)


def test_scope_counts_free_indices():
    t = S.parse_term("\\x:p->p. \\y:p. x y")
    assert t.scope == 0
    assert t.body.scope == 1           # x is free below its binder
    assert t.body.body.scope == 2
    assert t.body.body.arg.scope == 1  # y alone


def test_closed_subterm_is_evaluated_once_per_call(monkeypatch):
    from betaeta.numerals import lower
    c = S.app(lower(2), church(3, 3))  # closed, and not a value yet
    d = church(3, 2)
    firsts = []
    real = Nz.values_equal

    def spy(u, v, ty, depth):
        if not firsts:
            firsts.append((u, len(Nz._CLOSED)))
        return real(u, v, ty, depth)

    monkeypatch.setattr(Nz, "values_equal", spy)
    assert Nz.decide_eq(S.pair(c, c), S.pair(d, d))
    top, filled = firsts[0]
    assert filled > 0
    assert top.fst is top.snd  # the second occurrence reused the first value


def test_closed_value_table_is_per_call():
    from betaeta.numerals import lower
    c = S.app(lower(2), church(3, 3))
    assert Nz.decide_eq(c, church(3, 2))
    assert not Nz._CLOSED and not Nz._APPLIED
    Nz.long_nf(c)
    assert not Nz._CLOSED and not Nz._APPLIED
    Nz.beta_nf(c)
    assert not Nz._CLOSED and not Nz._APPLIED
    Nz.set_work_budget(50)
    try:
        with pytest.raises(ResourceExhausted):
            Nz.decide_eq(c, church(3, 2))
    finally:
        Nz.set_work_budget(500_000_000)
    assert not Nz._CLOSED and not Nz._APPLIED


def test_step_count_is_exact():
    # one step per node evaluated and per application, as counted node by
    # node; a budget of exactly the total passes and one less trips
    from betaeta.numerals import lower
    c, d = S.app(lower(2), church(3, 3)), church(3, 2)
    assert Nz.decide_eq(c, d)
    assert Nz._WORK[0] == 94
    try:
        Nz.set_work_budget(94)
        assert Nz.decide_eq(c, d)
        Nz.set_work_budget(93)
        with pytest.raises(ResourceExhausted):
            Nz.decide_eq(c, d)
    finally:
        Nz.set_work_budget(500_000_000)


def test_a_lambda_chain_binds_its_arguments_without_closures_in_between():
    # the spine (\x. \y. \z. x) w w w binds w, w, w straight into the
    # environment: only the outer \w closure, its fresh neutral and the
    # head closure get serials; building the two partial applications
    # would take two more
    t = S.parse_term("\\w:p. (\\x:p. \\y:p. \\z:p. x) w w w")
    Nz.long_nf(t)  # compiles
    before = next(Nz._SERIAL)
    assert Nz.long_nf(t).term is S.lams(p, lambda w: w())
    assert next(Nz._SERIAL) - before - 1 == 3
    assert Nz._WORK[0] == 17


def test_a_chain_stops_at_a_closed_inner_lambda():
    # church 0 0 is \f. \y. y, whose \y. y is closed: its value comes
    # from the closed table and counts there, so chaining into it would
    # undercount by one
    from betaeta.numerals import mul
    t = S.apps(mul(0), church(0, 0), church(0, 0))
    assert Nz.long_nf(t).term is church(0, 0)
    assert Nz._WORK[0] == 23
    try:
        Nz.set_work_budget(23)
        Nz.long_nf(t)
        Nz.set_work_budget(22)
        with pytest.raises(ResourceExhausted):
            Nz.long_nf(t)
    finally:
        Nz.set_work_budget(500_000_000)


def test_a_discarded_argument_costs_nothing():
    # (\x:p. \y:p. x) z big under \z:p, with big = 27 (\v:p. v) z and 27
    # computed as 3^3 by expo: the open argument big is delayed, and the
    # constant function never forces it, so a budget that big alone
    # exceeds is enough for decide_eq and long_nf
    from betaeta.numerals import expo
    power = S.apps(expo(0), church(3, 1), church(3, 1))

    def big(z):
        return S.apps(power, S.lams(p, lambda v: v()), z())

    ident = S.lams(p, lambda z: z())
    alone = S.lams(p, big)
    dropped = S.lams(p, lambda z: S.apps(S.lams(p, p, lambda x, y: x()), z(), big(z)))
    try:
        Nz.set_work_budget(100)
        with pytest.raises(ResourceExhausted):
            Nz.decide_eq(alone, ident)
        with pytest.raises(ResourceExhausted):
            Nz.long_nf(alone)
        assert Nz.decide_eq(dropped, ident)
        assert Nz.long_nf(dropped).term is ident
    finally:
        Nz.set_work_budget(500_000_000)


def test_a_term_too_deep_raises_the_documented_error():
    # f (f (... y)) nested 60,000 deep outruns the recursion limit; a child
    # runs it, since a deep recursion could take the test process down.
    # Afterwards a call counts its steps as before.
    out = run_in_child(
        "from betaeta import normalize as Nz, syntax as S\n"
        "from betaeta.errors import TermTooDeep\n"
        "from betaeta.numerals import church, lower\n"
        "p = S.atom('p')\n"
        "f, y = S.free('f', S.arrow(p, p)), S.free('y', p)\n"
        "t = y\n"
        "for _ in range(60_000):\n"
        "    t = S.app(f, t)\n"
        "for call in (lambda: Nz.decide_eq(t, y), lambda: Nz.long_nf(t),\n"
        "             lambda: Nz.beta_nf(t)):\n"
        "    try:\n"
        "        call()\n"
        "    except TermTooDeep as exc:\n"
        "        print(exc)\n"
        "assert Nz.decide_eq(S.app(lower(2), church(3, 3)), church(3, 2))\n"
        "print(Nz._WORK[0])\n")
    assert out.splitlines() == ["term too deep for the recursive evaluator"] * 3 + ["94"]


def _expo_chain(n):
    # \z:p. expo(0) n 2 (\v:p. v) z with n and 2 at level 1: 2^n
    # applications of the identity, each delayed argument's code
    # returning the next delayed argument, unforced
    from betaeta.numerals import expo
    return S.lam(p, S.apps(expo(0), church(n, 1), church(2, 1), S.lams(p, lambda v: v()),
                           S.var(0, p)))


@pytest.mark.parametrize("n, steps", [(14, 262_437), (17, 2_097_505)])
def test_a_thunk_chain_is_forced_in_a_loop(n, steps):
    # at n = 17 the chain is longer than the recursion limit, which a
    # recursive force ran out of (TermTooDeep); the loop takes the same
    # steps a recursion would, 262,437 at n = 14 either way
    assert Nz.long_nf(_expo_chain(n)).term is S.lams(p, lambda x: x())
    assert Nz._WORK[0] == steps


def test_a_forced_chain_takes_the_final_value_and_a_trip_forces_none():
    # three thunks, each code returning the next; the last gives the unit
    def thunk(value, steps):
        return [next(Nz._SERIAL), ((lambda env: value), steps, None), (), None]

    last = thunk(Nz.VUNIT, 3)
    chain = [thunk(thunk(last, 2), 1)]
    chain += [chain[0][1][0](()), last]
    try:
        Nz.set_work_budget(5)  # 1 + 2 + 3 steps: the last one trips
        with pytest.raises(ResourceExhausted):
            Nz._force(chain[0])
        assert all(t[3] is None and t[1] is not None for t in chain)
        Nz.set_work_budget(6)
        assert Nz._force(chain[0]) is Nz.VUNIT and Nz._WORK[0] == 6
    finally:
        Nz.set_work_budget(500_000_000)
    assert all(t == [Nz.VUNIT[0], None, None, Nz.VUNIT] for t in chain)


# the outermost normalization scope pauses the cyclic collector and puts
# back the state it found, however the scope ends

@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled):
    # after a normal return and after a budget trip
    from betaeta.numerals import lower
    c, d = S.app(lower(2), church(3, 3)), church(3, 2)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert Nz.decide_eq(c, d)
        assert gc.isenabled() is enabled
        Nz.set_work_budget(93)  # one step short of the 94 the pair needs
        with pytest.raises(ResourceExhausted):
            Nz.decide_eq(c, d)
        assert gc.isenabled() is enabled
        Nz.set_work_budget(500_000_000)
        assert Nz.long_nf(c).term is Nz.long_nf(d).term
        assert gc.isenabled() is enabled
    finally:
        Nz.set_work_budget(500_000_000)
        (gc.enable if was else gc.disable)()


def test_collector_state_is_restored_after_a_term_too_deep():
    # the deep term of the test above, with the collector on and then off
    out = run_in_child(
        "import gc\n"
        "from betaeta import normalize as Nz, syntax as S\n"
        "from betaeta.errors import TermTooDeep\n"
        "p = S.atom('p')\n"
        "f, y = S.free('f', S.arrow(p, p)), S.free('y', p)\n"
        "t = y\n"
        "for _ in range(60_000):\n"
        "    t = S.app(f, t)\n"
        "for enabled in (True, False):\n"
        "    (gc.enable if enabled else gc.disable)()\n"
        "    for call in (lambda: Nz.decide_eq(t, y), lambda: Nz.long_nf(t),\n"
        "                 lambda: Nz.beta_nf(t)):\n"
        "        try:\n"
        "            call()\n"
        "        except TermTooDeep:\n"
        "            print(gc.isenabled() is enabled)\n")
    assert out.splitlines() == ["True"] * 6


def test_collector_is_paused_in_nested_scopes(monkeypatch):
    from betaeta.numerals import lower
    c, d = S.app(lower(2), church(3, 3)), church(3, 2)
    seen = []
    real = Nz.values_equal

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(Nz, "values_equal", spy)

    @Nz.closed_value_scope
    def check():
        seen.append(gc.isenabled())
        out = Nz.decide_eq(c, d)
        seen.append(gc.isenabled())  # the inner scope kept it paused
        return out

    assert gc.isenabled()
    assert check()
    assert gc.isenabled()
    assert len(seen) > 3 and not any(seen)


def test_a_certificate_check_runs_no_collection():
    # without the pause, this verify ran 24 collections (Python 3.11)
    from betaeta import separator as Sep
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    cert = Sep.separate_two(a, b)
    starts = []

    def probe(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        assert Sep.verify(cert)
        assert starts == []
        gc.collect()  # the probe does see a collection
        assert starts == [2]
    finally:
        gc.callbacks.remove(probe)


def test_repeated_decide_eq_compiles_nothing_new():
    from betaeta.numerals import lower
    c, d = S.app(lower(2), church(3, 3)), church(3, 2)
    assert Nz.decide_eq(c, d)
    compiled = len(Nz._CODE)
    assert Nz.decide_eq(c, d)
    assert len(Nz._CODE) == compiled


def test_unlimited_work_budget():
    from betaeta.numerals import lower
    Nz.set_work_budget(None)
    try:
        assert Nz.decide_eq(S.app(lower(2), church(3, 3)), church(3, 2))
        assert Nz._WORK[0] > 50  # more than the budget that trips it above
    finally:
        Nz.set_work_budget(500_000_000)


def test_applied_table_keeps_no_argument_alive():
    # the memo holds results only, so an argument closure that nothing
    # else needs is freed by reference counting as soon as it is dropped:
    # after two applications the argument has as many references as a
    # tuple held by one local name alone
    import sys
    const = S.parse_term("\\f:p->p. \\x:p. x")  # ignores its argument
    Nz._scope(1)
    try:
        f = Nz.eval_term(const, ())
        a = Nz.eval_term(S.lam(p, S.var(1, p)), (Nz.VUNIT,))  # open: in no table
        alone = (object(),)
        r = Nz.apply_value(f, a)
        assert Nz.apply_value(f, a) is r  # still memoized
        refs = sys.getrefcount(a)
        assert refs == sys.getrefcount(alone)
    finally:
        Nz._scope(-1)


def test_value_serials_are_never_reused():
    # the compiled Free neutral outlives every scope; the pairs and
    # closures made and dropped around it never share its serial or one
    # another's, so a new closure never hits the entry of a dropped one.
    # A value's serial is its first field
    x = S.free("x", p)
    pp = S.prod(p, p)
    both = S.pair(S.var(0, p), S.var(0, p))  # open: a new pair each time
    konst = S.lam(p, S.var(1, pp))  # \y. (the pair in its environment)
    frees, sids = [], []
    for _ in range(3):
        Nz._scope(1)
        try:
            v = Nz.eval_term(x, ())
            frees.append(v)
            ws = [Nz.eval_term(both, (v,)) for _ in range(50)]
            for w in ws:
                c = Nz.eval_term(konst, (w,))  # may take the dropped one's memory
                sids += [w[0], c[0]]
                assert Nz.apply_value(c, v) is w
                del c
        finally:
            Nz._scope(-1)
    v = frees[0]
    assert all(u is v for u in frees)
    assert v[0] not in sids and len(set(sids)) == len(sids)


def test_the_application_table_keeps_a_shared_application_linear():
    # c is the long form of the identity at the k-th tower type, so
    # comparing c x with (\y. c y) x reads back c's application at every
    # level of the type twice over; the application table evaluates each
    # once, and without it the steps grow exponentially in k (about 200
    # at k = 4 and 49,000 at k = 12)
    def steps(k):
        A = S.tower_type(k)
        c = Nz.long_nf(S.lams(A, lambda z: z())).term
        a = S.lams(A, lambda x: S.app(c, x()))
        b = S.lams(A, lambda x: S.app(S.lams(A, lambda y: S.app(c, y())), x()))
        assert Nz.decide_eq(a, b)
        return Nz._WORK[0]

    assert steps(4) == steps(12) == 15


# the evaluator by spine shape: the normal form, the steps, the serials
# taken and the application table entries of one long_nf, with the term
# compiled beforehand.  The table is read before the scope closes, and
# readback's own applications keep entries too
SPINE_SHAPES = [
    # one argument
    ("\\y:p. (\\x:p. x) y", "\\x1:p. x1", 9, 3, 2),
    # two arguments, unchained: the head's body is no lambda
    ("\\g:p->p. \\y:p. (\\x:p->p. x) g y", "\\x1:p -> p. \\x2:p. x1 x2", 16, 6, 3),
    ("\\y:p. (\\x:p->p. x) (\\z:p. z) y", "\\x1:p. x1", 13, 4, 3),
    # two arguments, chained: both go straight into the environment
    ("\\a:p. \\b:p. (\\x:p. \\y:p. x) a b", "\\x1:p. \\x2:p. x1", 16, 5, 2),
    # a neutral head with two arguments
    ("\\f:p->p->p. \\a:p. \\b:p. f a b", "\\x1:p -> p -> p. \\x2:p. \\x3:p. x1 x2 x3", 19, 8, 3),
    # a thunk head, forced to a neutral and to a closure
    ("\\w:p->p->p->p. \\a:p. \\b:p. \\c:p. (\\z:p->p->p. z a b) (w c)",
     "\\x1:p -> p -> p -> p. \\x2:p. \\x3:p. \\x4:p. x1 x4 x2 x3", 30, 13, 5),
    ("\\a:p. (\\z:p->p. z a) ((\\u:p. \\v:p. u) a)", "\\x1:p. x1", 17, 6, 4),
    # three arguments
    ("\\a:p. \\b:p. (\\x:p. \\y:p. \\z:p. z) a b a", "\\x1:p. \\x2:p. x1", 20, 7, 5),
]


@pytest.mark.parametrize("src, nf, steps, serials, entries", SPINE_SHAPES)
def test_a_spine_shape_takes_pinned_steps_serials_and_entries(src, nf, steps, serials, entries):
    t = S.parse_term(src)
    Nz.long_nf(t)  # compiles
    Nz._WORK[0] = 0
    Nz._scope(1)
    try:
        before = next(Nz._SERIAL)
        out = Nz.readback(Nz.eval_term(t, ()), t.ty, 0)
        got = (S.show_term(out), Nz._WORK[0], next(Nz._SERIAL) - before - 1, len(Nz._APPLIED))
    finally:
        Nz._scope(-1)
    assert got == (nf, steps, serials, entries)
    try:
        Nz.set_work_budget(steps)
        assert S.show_term(Nz.long_nf(t).term) == nf
        Nz.set_work_budget(steps - 1)
        with pytest.raises(ResourceExhausted):
            Nz.long_nf(t)
    finally:
        Nz.set_work_budget(500_000_000)


def test_evaluation_results_and_steps_are_pinned(monkeypatch):
    # (result, steps) of decide_eq, long_nf and beta_nf on seeded random
    # pairs at every roster type, and of each decide_eq that the replays
    # of the worked pair and a product swap run, in one digest
    import hashlib
    from betaeta import products as P, separator as Sep
    digest, records = hashlib.sha256(), []

    def record(result):
        records.append(Nz._WORK[0])
        digest.update(f"{result} {Nz._WORK[0]}\n".encode())

    for ty in PRODUCT_FREE_ROSTER:
        rng = random.Random(29)
        for _ in range(25):
            a, b = gen_closed_term(ty, rng), gen_closed_term(ty, rng)
            record(Nz.decide_eq(a, b))
            record(S.show_term(Nz.long_nf(a).term))
            record(S.show_term(Nz.beta_nf(b).term))
    worked = Sep.separate_two(S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y"),
                              S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z"))
    swap = P.separate_prod(S.parse_term("\\x:p*p. x"), S.parse_term("\\x:p*p. <p2 x, p1 x>"))
    real = Nz.decide_eq

    def decide_eq(a, b):
        out = real(a, b)
        record(out)
        return out

    monkeypatch.setattr(Nz, "decide_eq", decide_eq)
    assert Sep.verify(worked) and P.verify_product(swap)
    assert (len(records), sum(records), digest.hexdigest()) == (
        306, 24_839, "ec8a1964f77e48b7392a311e5fc2ad2b5b51b319b6e08e05b80a1f43b167951b")
