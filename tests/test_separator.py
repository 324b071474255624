import pytest

from betaeta import numerals as N
from betaeta import separator as Sep
from betaeta import syntax as S
from betaeta.errors import (
    BadCertificate, EqualTerms, IllTyped, LevelAboveMax, TooLargeToPrint, TypeMismatch,
)
from betaeta.normalize import decide_eq
from betaeta.numerals import church

from conftest import log_calls, run_in_child

p = S.atom("p")


def worked_pair():
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    return a, b


def test_worked_example_certificate_values():
    a, b = worked_pair()
    ctx = S.Context([("c", p), ("d", p)])
    cert = Sep.separate(a, b, S.free("c", p), S.free("d", p))
    assert cert.base == 2
    assert cert.kappa_values == [19]
    assert cert.level == 20
    assert cert.bound_vars == []
    # one definer, ten lowering pairs, the two final arguments
    assert len(cert.head_args) == 1 + 20 + 2
    assert Sep.verify(cert)


def test_a_head_argument_too_large_to_print_inline_is_refused():
    # the first head argument is annotated at the level-20 numeral type,
    # 25,165,818 characters written out; without an alias table show_term
    # refuses it at once, and with one it prints and parses back
    import time
    import tracemalloc
    head = Sep.separate_two(*worked_pair()).head_args[0]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(TooLargeToPrint, match="type_alias_table"):
            S.show_term(head)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 100_000_000
    assert repr(head) == f"<term #{head.uid} : type #{head.ty.uid}>"
    defs, names = S.type_alias_table([head])
    assert S.parse_term(S.show_term(head, names), aliases=S.parse_alias_table(defs)) is head


def test_church_pair_two_valued():
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    assert cert.two_valued
    assert cert.bound_vars == []  # closed inputs need no binding
    assert all(not S.free_vars(h) for h in cert.head_args)
    assert Sep.verify(cert)


def test_two_valued_projects_fresh_slots():
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    e, f = S.free("e", p), S.free("f", p)
    ka = S.apps(cert.applied("a"), e, f)
    kb = S.apps(cert.applied("b"), e, f)
    assert decide_eq(ka, e)
    assert decide_eq(kb, f)


def test_open_pair_binds_in_occurrence_order():
    ctx = S.Context([("f", S.arrows(p, p, p)), ("u", p), ("v", p)])
    a = S.parse_term("f u v", ctx)
    b = S.parse_term("f v u", ctx)
    cert = Sep.separate_two(a, b)
    assert [n for n, _ in cert.bound_vars] == ["f", "u", "v"]
    assert Sep.verify(cert)


def test_equal_pair_raises():
    with pytest.raises(EqualTerms):
        Sep.separate_two(church(1, 0), church(1, 0))
    eta_pair = S.parse_term("\\x:p->p. x"), S.parse_term("\\x:p->p. \\y:p. x y")
    with pytest.raises(EqualTerms):
        Sep.separate_two(*eta_pair)


def test_target_type_mismatch():
    a, b = worked_pair()
    with pytest.raises(TypeMismatch):
        Sep.separate(a, b, S.free("c", p), S.free("d", S.atom("q")))


def test_product_typed_input_rejected():
    t1 = S.parse_term("\\x:p*p. p1 x")
    t2 = S.parse_term("\\x:p*p. p2 x")
    with pytest.raises(IllTyped):
        Sep.separate_two(t1, t2)


def test_verify_rejects_swapped_targets():
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    cert.target_c, cert.target_d = cert.target_d, cert.target_c
    assert not Sep.verify(cert)


def test_verify_rejects_tampered_head_argument():
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    # replace the ordinal definer by the numeral for the other base point,
    # which sends both sides to the wrong targets
    idx = 1
    assert cert.model_args[idx][0] is S.atom("p")
    assert cert.model_args[idx][1] == 1
    wrong = S.substitute_types(N.church(0, cert.level), {"p": cert.target_c.ty})
    assert wrong.ty is cert.head_args[idx].ty
    tampered = cert.head_args.copy()
    tampered[idx] = wrong
    cert.head_args = tampered
    try:
        ok = Sep.verify(cert)
    except IllTyped:
        ok = False
    assert not ok


def test_certificate_sides_are_type_instances():
    a, b = worked_pair()
    cert = Sep.separate_two(a, b)
    sub = {"p": S.numeral_type(cert.level, cert.target_c.ty)}
    assert cert.a_prime is S.substitute_types(a, sub)
    assert cert.b_prime is S.substitute_types(b, sub)
    assert cert.b_prime is not S.substitute_types(a, sub)
    assert Sep.instance_sub(cert.level, cert.target_c.ty, a, b) == sub


def test_verify_rejects_an_inner_atom_sent_to_another_tower():
    # q occurs only inside a, so the types of a and a_prime cannot show
    # where it went; the identity check on the whole term does
    a = S.parse_term("(\\g:q->q. \\s:p->p. \\z:p. s z) \\y:q. y")
    cert = Sep.separate_two(a, church(2, 0))
    assert Sep.verify(cert)
    instance = S.numeral_type(cert.level, cert.target_c.ty)
    other = S.numeral_type(cert.level + 2, cert.target_c.ty)
    cert.a_prime = S.substitute_types(a, {"p": instance, "q": other})
    # same skeleton and same type as the honest a_prime, and it still
    # reduces to the same numeral
    assert cert.a_prime.ty is S.substitute_types(a, {"p": instance}).ty
    assert not Sep.verify(cert)


def test_intermediate_stage_reaches_numerals():
    # the pipeline checks this internally; reproduce it in the open
    a, b = worked_pair()
    cert = Sep.separate_two(a, b)
    ni = S.numeral_type(cert.level)
    a2 = S.substitute_types(a, {"p": ni})
    definers = cert.head_args[:len(cert.model_args)]
    # head args were instantiated at the target type; rebuild at the atom
    from betaeta import models as M
    model = M.PModel(cert.base)
    raw = [M.define_functional(model.functional(ty, code), cert.level)
           for ty, code in cert.model_args]
    assert decide_eq(S.apps(a2, *raw), church(0, cert.level))


def test_maximality_derives_any_equation():
    # from one unprovable equation, equate two fresh variables
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    e, f = S.free("e", p), S.free("f", p)
    lhs = S.apps(cert.applied("a"), e, f)
    rhs = S.apps(cert.applied("b"), e, f)
    # lhs = e and rhs = f are certified; the middle step lhs = rhs is one
    # instance of the added axiom, so e = f follows in the extension
    assert decide_eq(lhs, e) and decide_eq(rhs, f)
    sub = {"p": S.numeral_type(cert.level, cert.target_c.ty)}
    assert cert.a_prime is S.substitute_types(cert.a_source, sub)
    assert cert.b_prime is S.substitute_types(cert.b_source, sub)


def test_verify_reports_budget_exhaustion_distinctly():
    # running out of budget must not read as a failed certificate
    from betaeta.errors import ResourceExhausted
    from betaeta.normalize import set_work_budget
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    set_work_budget(100)
    try:
        with pytest.raises(ResourceExhausted):
            Sep.verify(cert)
    finally:
        set_work_budget(500_000_000)
    assert Sep.verify(cert)


def test_max_level_bounds_the_chosen_level():
    one, two = church(1, 0), church(2, 0)
    assert Sep.separate_two(one, two, max_level=8).level == 8
    with pytest.raises(LevelAboveMax, match="^required level 8 exceeds --max-level 7$"):
        Sep.separate_two(one, two, max_level=7)


def test_separate_returns_only_what_verify_accepts(monkeypatch):
    # defining terms of the next element of each type: the build goes
    # through, and the replay that ends each producer refuses it.  The
    # mutant is the producer's own, since a change to the instance rule
    # would move the replay along with the build
    from betaeta import models as M
    real = M.define_functional
    monkeypatch.setattr(M, "define_functional", lambda phi, i: real(
        phi.model.functional(phi.ty, (phi.code + 1) % phi.model.card(phi.ty)), i))
    one, two = church(1, 0), church(2, 0)
    with pytest.raises(AssertionError, match="^verify rejected the certificate just built$"):
        Sep.separate_two(one, two)
    with pytest.raises(AssertionError, match="^verify rejected"):
        Sep.separate(one, two, S.free("c", p), S.free("d", p))


def test_separate_decides_the_pair_once_then_replays(monkeypatch):
    # one decision refuses an equal pair; every other decision is the
    # replay's, taken in the checker: two targets and two projections
    from betaeta import normalize as Nz
    calls = log_calls(monkeypatch, (Sep, "decide_eq"), (Sep, "verify"), (Nz, "decide_eq"))
    Sep.separate_two(church(1, 0), church(2, 0))
    assert calls == ["separator.decide_eq", "separator.verify"] + ["normalize.decide_eq"] * 4


def _one_two_certificate():
    a = S.parse_term("\\x:p->p. \\y:p. x y")
    b = S.parse_term("\\x:p->p. \\y:p. x (x y)")
    cert = Sep.separate_two(a, b)
    assert Sep.verify(cert)
    return cert


def test_verify_rejects_equal_sources():
    cert = _one_two_certificate()
    cert.b_source = cert.a_source
    assert not Sep.verify(cert)


def test_verify_rejects_foreign_sources():
    cert = _one_two_certificate()
    other = S.parse_term("\\x1:p->p. \\x2:p. x2")
    cert.a_source = cert.b_source = other
    assert not Sep.verify(cert)


def test_verify_rejects_reordered_bound_vars():
    ctx = S.Context([("f", S.arrows(p, p, p)), ("u", p), ("v", p)])
    cert = Sep.separate_two(S.parse_term("f u v", ctx), S.parse_term("f v u", ctx))
    f, u, v = cert.bound_vars
    cert.bound_vars = [f, v, u]
    assert not Sep.verify(cert)


def _decide_spy(monkeypatch):
    """Replace ``normalize.decide_eq``, where the checker looks it up, by a
    spy that records, per call, the size of the closed-value table on
    entry and the steps taken."""
    from betaeta import normalize as Nz
    calls = []
    real = Nz.decide_eq

    def spy(a, b):
        filled = len(Nz._CLOSED)
        try:
            return real(a, b)
        finally:
            calls.append((filled, Nz._WORK[0]))

    monkeypatch.setattr(Nz, "decide_eq", spy)
    return calls


def test_verify_evaluates_applied_sides_once(monkeypatch):
    # the projection checks find the closed applied sides in the table
    # that the target checks filled
    a, b = worked_pair()
    cert = Sep.separate_two(a, b)
    calls = _decide_spy(monkeypatch)
    assert Sep.verify(cert)
    assert len(calls) == 4
    assert calls[1][1] > 1000
    assert calls[2][1] < 100 and calls[3][1] < 100


def test_verify_starts_with_an_empty_table(monkeypatch):
    from betaeta import normalize as Nz
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    calls = _decide_spy(monkeypatch)
    assert Sep.verify(cert)
    assert calls[0][0] == 0  # nothing carried over from separate_two
    assert calls[1][0] > 0
    assert not Nz._CLOSED


def test_verify_empties_the_table_on_budget_exhaustion():
    from betaeta import normalize as Nz
    from betaeta.errors import ResourceExhausted
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    Nz.set_work_budget(100)
    try:
        with pytest.raises(ResourceExhausted):
            Sep.verify(cert)
    finally:
        Nz.set_work_budget(500_000_000)
    assert not Nz._CLOSED and not Nz._APPLIED


def test_verify_step_counts_are_exact(monkeypatch):
    from betaeta import normalize as Nz
    from betaeta.errors import ResourceExhausted
    a, b = worked_pair()
    cert = Sep.separate_two(a, b)
    calls = _decide_spy(monkeypatch)
    assert Sep.verify(cert)
    assert [steps for _, steps in calls] == [15503, 5072, 11, 11]
    try:
        Nz.set_work_budget(15503)  # the budget is per decide_eq call
        assert Sep.verify(cert)
        Nz.set_work_budget(15502)
        with pytest.raises(ResourceExhausted):
            Sep.verify(cert)
    finally:
        Nz.set_work_budget(500_000_000)


def test_verify_of_a_depth_three_pair_replays_one_branch(monkeypatch):
    # call-by-need: each numeral conditional of the level-20 context
    # forces only the branch it keeps; normalizing every branch and every
    # check test takes 597,991 steps
    a = S.parse_term("\\x1:(p->p)->p. x1 \\x2:p. x2")
    c3 = S.parse_term("\\x1:(p->p)->p. x1 \\x2:p. x1 \\x3:p. x1 \\x4:p. x3")
    cert = Sep.separate_two(a, c3)
    calls = _decide_spy(monkeypatch)
    assert Sep.verify(cert)
    steps = [steps for _, steps in calls]
    assert steps == [2071, 50460, 11, 11]
    assert sum(steps) <= 100_000


def _leaves_no_cyclic_garbage(check):
    # values only point at older values, and a delayed argument's value is
    # computed from its own, older environment, which forcing drops; so
    # closing the scope frees them by reference counting alone, and this
    # is why a scope may pause the cyclic collector.  Nor does any walker
    # the check runs leave a cycle, so the collector finds nothing at all
    import gc
    gc.collect()
    gc.disable()
    try:
        assert check()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_leaves_no_cyclic_garbage():
    a, b = worked_pair()
    cert = Sep.separate_two(a, b)
    _leaves_no_cyclic_garbage(lambda: Sep.verify(cert))


def test_verify_product_leaves_no_cyclic_garbage():
    from betaeta import products as P
    cert = P.separate_prod(S.parse_term("\\x:p*p. <p1 x, p2 x>"),
                           S.parse_term("\\x:p*p. <p2 x, p1 x>"))
    _leaves_no_cyclic_garbage(lambda: P.verify_product(cert))


def test_replay_collapse_leaves_no_cyclic_garbage():
    from betaeta import ccc as C
    cert = C.collapse(C.parse_arrow("p1[p, p]"), C.parse_arrow("p2[p, p]"))
    _leaves_no_cyclic_garbage(lambda: C.replay_collapse(cert))


def test_a_certificate_round_trip_leaves_no_cyclic_garbage():
    # producing, writing, reading and replaying each kind of certificate
    # frees everything it made by reference counting alone
    from betaeta import ccc as C, certio, cli, products as P
    producers = [
        lambda: Sep.separate_two(S.parse_term("\\x:p->p.\\y:p. x y"),
                                 S.parse_term("\\x:p->p.\\y:p. x (x y)")),
        lambda: P.separate_prod(S.parse_term("\\x:p*p. <p1 x, p2 x>"),
                                S.parse_term("\\x:p*p. <p2 x, p1 x>")),
        lambda: C.collapse(C.parse_arrow("p1[p, p]"), C.parse_arrow("p2[p, p]")),
    ]
    for produce in producers:
        _leaves_no_cyclic_garbage(lambda: cli.verify_certificate(
            certio.parse_certificate(cli.serialize_certificate(produce()))))


def test_verify_rejects_a_tampered_level():
    from betaeta import cli
    text = cli.serialize_certificate(_one_two_certificate())
    assert '"level": 8,' in text
    for level in ('9', '6', '-1'):
        tampered = cli.parse_certificate(text.replace('"level": 8,', f'"level": {level},'))
        assert not Sep.verify(tampered)
    with pytest.raises(BadCertificate, match="'level' must be int, not \"8\""):
        cli.parse_certificate(text.replace('"level": 8,', '"level": "8",'))


def test_a_level_far_above_the_type_is_refused_promptly():
    # a tower of 10**9 levels is never built: both verifiers refuse a
    # level past the node count of the a-side's type first
    out = run_in_child(
        "import time\n"
        "from betaeta import products as P, separator as Sep, syntax as S\n"
        "from betaeta.numerals import church\n"
        "sep = Sep.separate_two(church(1, 0), church(2, 0))\n"
        "prod = P.separate_prod(S.parse_term('\\\\x:p*p. <p1 x, p2 x>'),\n"
        "                       S.parse_term('\\\\x:p*p. <p2 x, p1 x>'))\n"
        "sep.level = prod.inner.level = 10 ** 9\n"
        "t0 = time.perf_counter()\n"
        "print(Sep.verify(sep), P.verify_product(prod), time.perf_counter() - t0 < 1)\n")
    assert out == "False False True\n"


def test_high_level_numerals_overflow_promptly():
    # the type of church(0, 60) is a tree of about 2**63 nodes, shared as 63; a
    # product-free check that walks it as a tree never ends, so run it in
    # a child with a timeout
    import os
    import subprocess
    import sys
    code = ("from betaeta import separator as Sep\n"
            "from betaeta.errors import Overflow\n"
            "from betaeta.numerals import church\n"
            "try:\n"
            "    Sep.separate_two(church(0, 60), church(1, 60))\n"
            "except Overflow as exc:\n"
            "    print('Overflow:', exc)\n")
    src = os.path.dirname(os.path.dirname(Sep.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("Overflow: ")


@pytest.mark.parametrize("a_text, b_text", [(r"\x:p. x", r"\x:p. y"), (r"\x:p. y", r"\x:p. x")])
def test_a_variable_free_in_one_side_only_round_trips(a_text, b_text):
    # y is free in one side alone, so the bound variables of the images
    # must take it from whichever side has it
    from betaeta import certio
    ctx = S.Context([("y", p)])
    a, b = S.parse_term(a_text, ctx), S.parse_term(b_text, ctx)
    for cert in (Sep.separate_two(a, b), Sep.separate(a, b, S.free("c", p), S.free("d", p))):
        assert [name for name, _ in cert.bound_vars] == ["y"]
        text = certio.serialize_certificate(cert)
        decoded = certio.parse_certificate(text)
        assert Sep.verify(decoded)
        assert certio.serialize_certificate(decoded) == text
