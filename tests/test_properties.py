"""Property tests for the shared traversals in ``syntax``: printing,
shifting, type substitution, binding and free-variable order, on random
closed terms of the roster types and on open terms built from them; and
for certificates and the decision procedure: certificate text round
trips, tampered certificates fail, and ``decide_eq`` agrees with the
finite-model search."""

import json
import random
import re

import pytest

from hypothesis import assume, given, settings, strategies as st

from betaeta import ccc as C
from betaeta import cli
from betaeta import models as M
from betaeta import products as P
from betaeta import separator as Sep
from betaeta import syntax as S
from betaeta.errors import BadCertificate, IllTyped
from betaeta.normalize import decide_eq, long_nf

from conftest import PRODUCT_FREE_ROSTER, gen_closed_term

SETTINGS = settings(max_examples=60, deadline=None)
# each certificate builds and verifies in well under 0.1 s
CERT_SETTINGS = settings(max_examples=25, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def closed_terms(draw):
    ty = draw(st.sampled_from(PRODUCT_FREE_ROSTER))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return gen_closed_term(ty, random.Random(seed))


@st.composite
def term_pairs(draw):
    """Two closed terms of one roster type."""
    ty = draw(st.sampled_from(PRODUCT_FREE_ROSTER))
    return tuple(gen_closed_term(ty, random.Random(draw(SEEDS))) for _ in range(2))


@st.composite
def open_unequal_pairs(draw):
    """Two provably unequal terms applied to one fresh variable ``u``, so
    their certificate binds a variable; plus a third closed term of their
    type, other than the first, applied to ``u`` as well."""
    a, b = draw(term_pairs())
    assume(not decide_eq(a, b))
    c = gen_closed_term(a.ty, random.Random(draw(SEEDS)))
    assume(c is not a)
    u = S.free("u", a.ty.dom)
    return S.app(a, u), S.app(b, u), S.app(c, u)


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
@given(closed_terms(), st.sampled_from(["x1", "x2", "x3", "x4"]))
def test_parse_inverts_show_under_a_free_binder_name(t, name):
    # the binders of t skip the free name, and still get distinct names at
    # distinct depths
    f = S.free(name, S.arrow(t.ty, S.atom("p")))
    u = S.app(f, t)
    assert S.parse_term(S.show_term(u), S.Context([(name, f.ty)])) is u


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


@CERT_SETTINGS
@given(open_unequal_pairs())
def test_certificate_text_round_trips(case):
    a, b, _ = case
    text = cli.serialize_certificate(Sep.separate_two(a, b))
    assert cli.serialize_certificate(cli.parse_certificate(text)) == text


def _json_dumps_text(text):
    """``text`` read as JSON and written by ``json.dumps`` as the
    certificate format specifies: the bytes ``serialize_certificate``
    must write."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@CERT_SETTINGS
@given(open_unequal_pairs())
def test_certificate_text_is_json_dumps_text(case):
    a, b, _ = case
    text = cli.serialize_certificate(Sep.separate_two(a, b))
    assert text == _json_dumps_text(text)


SWAP_B = "\\x:p*p. <p2 x, p1 x>"
ONE, TWO = "\\f:p->p. \\x:p. f x", "\\f:p->p. \\x:p. f (f x)"
# the pairs of the product criterion
PRODUCT_PAIRS = [
    ("\\x:p*p. <p1 x, p2 x>", SWAP_B),
    ("\\x:p*p. x", SWAP_B),
    (f"<{ONE}, {ONE}>", f"<{ONE}, {TWO}>"),
    ("\\x:p*p. p1 x", "\\x:p*p. p2 x"),
    ("\\u:T*p. \\v:p. p2 u", "\\u:T*p. \\v:p. v"),
]


@pytest.mark.parametrize("a, b", PRODUCT_PAIRS)
def test_product_certificate_text_is_json_dumps_text(a, b):
    text = cli.serialize_certificate(P.separate_prod(S.parse_term(a), S.parse_term(b)))
    assert text == _json_dumps_text(text)


def test_collapse_certificate_text_is_json_dumps_text():
    text = cli.serialize_certificate(C.collapse(C.parse_arrow("p1[p, p]"),
                                                C.parse_arrow("p2[p, p]")))
    assert text == _json_dumps_text(text)


@CERT_SETTINGS
@given(open_unequal_pairs(), st.sampled_from(["source", "head argument", "bound variable"]),
       st.booleans())
def test_tampered_certificate_fails(case, field, which):
    a, b, c = case
    cert = cli.parse_certificate(cli.serialize_certificate(Sep.separate_two(a, b)))
    assert Sep.verify(cert)
    if field == "source":  # a third term in place of one source, or the two swapped
        if which:
            cert.a_source = c
        else:
            cert.a_source, cert.b_source = cert.b_source, cert.a_source
    elif field == "head argument":  # a context that picks the other target
        if which:
            cert.head_args[-1] = cert.target_d
        else:
            cert.head_args[-2] = S.lam(cert.target_c.ty, cert.target_c)
    else:  # the bound variable renamed, or at its uninstantiated type
        (name, ty), = cert.bound_vars
        cert.bound_vars = [(name + "'", ty) if which else (name, S.free_vars(a)[name])]
    try:
        ok = Sep.verify(cert)
    except (BadCertificate, IllTyped):
        ok = False
    assert not ok


@SETTINGS
@given(term_pairs())
def test_decide_eq_agrees_with_distinguish(pair):
    a, b = pair
    assert decide_eq(a, b) == (M.distinguish(a, b, 3) is None)


@st.composite
def term_pools(draw):
    """Terms grown from a pool by random constructor steps: named leaves
    (each name at two types), loose indices, binders, applications, pairs
    and projections.  Each step may reuse any earlier term, so the terms
    share subterms."""
    rng = random.Random(draw(SEEDS))
    p = S.atom("p")
    tys = (p, S.arrow(p, p))
    pool = [S.UNIT]
    for _ in range(draw(st.integers(1, 60))):
        op, a = rng.randrange(6), rng.choice(pool)
        if op == 0:
            pool.append(S.free(rng.choice("xy"), rng.choice(tys)))
        elif op == 1:
            pool.append(S.var(rng.randrange(3), rng.choice(tys)))
        elif op == 2:
            pool.append(S.lam(rng.choice(tys), a))
        elif op == 3 and type(a.ty) is S.TyArrow:
            args = [b for b in pool if b.ty is a.ty.dom]
            if args:
                pool.append(S.app(a, rng.choice(args)))
        elif op == 4:
            pool.append(S.pair(a, rng.choice(pool)))
        elif type(a.ty) is S.TyProd:
            pool.append(rng.choice((S.proj1, S.proj2))(a))
    return pool


def _walked_free_vars(t):
    out = {}
    for u in S.subterms(t):
        if type(u) is S.Free and out.setdefault(u.name, u.ty) is not u.ty:
            raise IllTyped(f"free variable '{u.name}' used at two types")
    return out


def _outcome(f, t):
    try:
        return list(f(t).items())
    except IllTyped:
        return IllTyped


@SETTINGS
@given(term_pools())
def test_named_flag_agrees_with_a_walk(pool):
    for t in pool:
        named = any(type(u) is S.Free for u in S.subterms(t))
        assert t.named == named
        assert S.is_closed(t) == (t.scope == 0 and not named)
        expected = _outcome(_walked_free_vars, t)
        assert _outcome(S.free_vars, t) == expected
        if expected is IllTyped:
            continue
        # the passes that skip unnamed subterms give what a full rebuild gives
        for name, ty in expected:
            x, w = S.free(name, ty), S.free("w", ty)
            assert S.substitute_term(t, name, w) is S.map_term(
                t, lambda u, d: w if u is x else u)
            assert S.bind(t, x) is S.lam(ty, S.map_term(
                t, lambda u, d: S.var(d, ty) if u is x else u, depth=0))
