"""Property tests for the shared traversals in ``syntax``: printing,
shifting, type substitution, binding and free-variable order, on random
closed terms of the roster types and on open terms built from them."""

import random
import re

from hypothesis import given, settings, strategies as st

from betaeta import syntax as S
from betaeta.normalize import decide_eq, long_nf

from conftest import PRODUCT_FREE_ROSTER, gen_closed_term

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def closed_terms(draw):
    ty = draw(st.sampled_from(PRODUCT_FREE_ROSTER))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return gen_closed_term(ty, random.Random(seed))


@st.composite
def open_terms(draw):
    """The long normal form of a closed term applied to fresh variables,
    so the variables also occur under binders; plus those variables."""
    t = draw(closed_terms())
    arg_tys, _ = S.split_arrows(t.ty)
    names = draw(st.permutations([f"v{i}" for i in range(len(arg_tys))]))
    args = [S.free(name, ty) for name, ty in zip(names, arg_tys)]
    return long_nf(S.apps(t, *args)).term, args


@SETTINGS
@given(closed_terms())
def test_parse_inverts_show(t):
    assert S.parse_term(S.show_term(t)) is t


@SETTINGS
@given(closed_terms())
def test_shift_up_then_down_is_identity(t):
    for u in S.subterms(t):  # the open subterms have loose indices to move
        up = S.shift(u, 1)
        assert (up is u) == (u.scope == 0)
        assert S.shift(up, -1) is u


@SETTINGS
@given(closed_terms())
def test_empty_type_substitution_is_identity(t):
    assert S.substitute_types(t, {}) is t
    q = S.atom("q")
    assert S.substitute_types(S.substitute_types(t, {"p": q}), {"q": S.atom("p")}) is t


@SETTINGS
@given(open_terms())
def test_bind_then_apply_gives_the_body(case):
    body, args = case
    for v in args:
        assert decide_eq(S.app(S.bind(body, v), v), body)
    assert decide_eq(S.apps(S.bind(body, *args), *args), body)


@SETTINGS
@given(open_terms())
def test_free_vars_follow_the_printed_order(case):
    body, args = case
    names = {v.name for v in args}
    printed = [tok for tok in re.findall(r"[A-Za-z_][A-Za-z0-9_']*", S.show_term(body))
               if tok in names]
    assert list(S.free_vars(body)) == list(dict.fromkeys(printed))
