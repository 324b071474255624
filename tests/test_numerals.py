import hashlib

import pytest

from betaeta import numerals as N
from betaeta import syntax as S
from betaeta.errors import LevelTooSmall, SideConditionViolated
from betaeta.normalize import beta_nf, decide_eq, long_nf

p = S.atom("p")


def test_church_zero_shape():
    assert N.church(0, 0) is S.parse_term("\\x:p->p. \\y:p. y")


def test_church_two_shape():
    assert N.church(2, 0) is S.parse_term("\\x:p->p. \\y:p. x (x y)")


def test_church_type_is_numeral_type():
    assert N.church(5, 3).ty is S.numeral_type(3)
    assert N.church(5, 3).ty is S.tower_type(5)


def test_cond_selects_on_zero():
    for n in (0, 1, 2):
        want = N.church(4, 1) if n == 0 else N.church(5, 1)
        got = S.apps(N.cond(1), N.church(n, 1), N.church(4, 1), N.church(5, 1))
        assert decide_eq(got, want)


def test_lower_drops_one_level():
    assert decide_eq(S.app(N.lower(0), N.church(3, 1)), N.church(3, 0))


def test_expo_computes_powers():
    got = S.apps(N.expo(0), N.church(2, 1), N.church(3, 1))
    assert decide_eq(got, N.church(9, 0))


def test_add_and_mul():
    assert decide_eq(S.apps(N.add(1), N.church(2, 1), N.church(3, 1)), N.church(5, 1))
    assert decide_eq(S.apps(N.mul(1), N.church(2, 1), N.church(3, 1)), N.church(6, 1))


def test_pairing_laws():
    for a, b in ((0, 0), (1, 2), (3, 1)):
        packed = S.apps(N.pairing(0), N.church(a, 0), N.church(b, 0))
        assert decide_eq(S.app(N.proj_first(0), packed), N.church(a, 0))
        assert decide_eq(S.app(N.proj_second(0), packed), N.church(b, 0))


def test_pred_decrements_and_sticks_at_zero():
    assert decide_eq(S.app(N.pred(0), N.church(4, 3)), N.church(3, 0))
    assert decide_eq(S.app(N.pred(0), N.church(0, 3)), N.church(0, 0))


def test_raise_on_zero_and_one():
    assert decide_eq(S.app(N.raise_one(3), N.church(0, 2)), N.church(0, 3))
    assert decide_eq(S.app(N.raise_one(3), N.church(1, 2)), N.church(1, 3))


def test_raise_requires_eta():
    # without any eta steps the raised zero is not syntactically the
    # next-level zero, although the two are provably equal
    raised = S.app(N.raise_one(2), N.church(0, 1))
    assert beta_nf(raised).term is not beta_nf(N.church(0, 2)).term
    assert long_nf(raised).term is long_nf(N.church(0, 2)).term


def test_check_against_constant():
    assert decide_eq(S.app(N.check(2, 6), N.church(2, 6)), N.church(0, 6))
    assert decide_eq(S.app(N.check(2, 6), N.church(5, 6)), N.church(1, 6))
    assert decide_eq(S.app(N.check(0, 1), N.church(0, 1)), N.church(0, 1))
    assert decide_eq(S.app(N.check(0, 1), N.church(3, 1)), N.church(1, 1))


# the sha256 of check(k, i) printed with its alias table, for each k < 12
# at levels 3k, 3k + 1, 3k + 4 and 3k + 9, as the recursive build printed them
CHECK_TERMS_PIN = "dbc088c875dd0c35914bf474e8f95ac9440a0e3d5d8ae0f4789178e18870cbca"


def test_check_terms_are_pinned():
    digest = hashlib.sha256()
    for k in range(12):
        for i in (3 * k, 3 * k + 1, 3 * k + 4, 3 * k + 9):
            t = N.check(k, i)
            defs, names = S.type_alias_table([t])
            for line in [f"{n} = {d}" for n, d in defs] + [S.show_term(t, names)]:
                digest.update((line + "\n").encode())
    assert digest.hexdigest() == CHECK_TERMS_PIN


def test_check_side_condition():
    with pytest.raises(SideConditionViolated):
        N.check(2, 5)


def test_raise_side_condition():
    with pytest.raises(SideConditionViolated):
        N.raise_one(0)


def test_lowering_pair_zero_and_one():
    c1, c2 = N.lowering_pair(2)
    assert decide_eq(S.apps(N.church(0, 2), c1, c2), N.church(0, 0))
    assert decide_eq(S.apps(N.church(1, 2), c1, c2), N.church(1, 0))


def test_lowering_pair_no_contract_at_two():
    c1, c2 = N.lowering_pair(2)
    dropped = S.apps(N.church(2, 2), c1, c2)
    assert not decide_eq(dropped, N.church(2, 0))
    assert decide_eq(dropped, N.church(1, 0))  # what it actually lands on


def test_lowering_pair_iterates_to_ground():
    term = N.church(1, 6)
    for level in (6, 4, 2):
        c1, c2 = N.lowering_pair(level)
        term = S.apps(term, c1, c2)
    assert decide_eq(term, N.church(1, 0))


def test_lowering_pair_level_guard():
    with pytest.raises(LevelTooSmall):
        N.lowering_pair(1)


@pytest.mark.parametrize("build", [
    lambda i: N.church(0, i), N.cond, N.lower, N.expo, N.add, N.mul, N.pairing,
    N.proj_first, N.proj_second, N.step_pair, N.fold_pairs, N.pred, N.raise_one,
    lambda i: N.check(0, i), N.lowering_pair,
], ids=["church", "cond", "lower", "expo", "add", "mul", "pairing", "proj_first",
        "proj_second", "step_pair", "fold_pairs", "pred", "raise_one", "check",
        "lowering_pair"])
def test_a_negative_level_is_refused(build):
    # unchecked, church(0, -1) would be \x:p. \y:p. y, which is not a numeral
    with pytest.raises(SideConditionViolated, match="natural number"):
        build(-1)


def test_combinator_dispatch_and_conditions():
    term = N.combinator(N.CombinatorKind("Check", 6, 2))
    assert decide_eq(S.app(term, N.church(2, 6)), N.church(0, 6))
    assert N.combinator(N.CombinatorKind("Pred", 1)).ty is S.arrow(
        S.numeral_type(4), S.numeral_type(1))
    with pytest.raises(SideConditionViolated):
        N.CombinatorKind("Nope", 1)
    with pytest.raises(SideConditionViolated):
        N.CombinatorKind("Cond", 1, 2)  # check constant only for Check


def test_combinators_are_not_prenormalized():
    # the conditional is the defining term, not its normal form
    c = N.cond(0)
    assert c is not long_nf(c).term


def test_repeated_separation_interns_few_nodes():
    # after a warm-up a repeated round, certificate text and replay
    # included, interns no node: no builder makes throwaway names
    from betaeta import ccc as C, cli, products as P, separator as Sep
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    swap_a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    swap_b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    rounds = (
        lambda: Sep.separate_two(a, b),
        lambda: Sep.separate_two(N.church(1, 0), N.church(2, 0)),
        lambda: P.separate_prod(swap_a, swap_b),
        lambda: C.collapse(C.AProj(1, p, p), C.AProj(2, p, p)),
    )
    for make in rounds:
        for repeat in range(3):  # the first is the warm-up
            before = S.interned_term_count()
            text = cli.serialize_certificate(make())
            assert cli.verify_certificate(cli.parse_certificate(text))
            assert repeat == 0 or S.interned_term_count() == before


def test_a_combinator_kind_is_built_by_position_or_keyword():
    assert N.CombinatorKind("Check", 6, 2) == N.CombinatorKind(tag="Check", level=6, check=2)
    assert N.CombinatorKind("Pred", 1).check is None
    assert repr(N.CombinatorKind("Pred", 1)) == "CombinatorKind(tag='Pred', level=1, check=None)"
    with pytest.raises(SideConditionViolated):
        N.CombinatorKind(tag="Pred", level=-1)
