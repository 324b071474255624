import random

import pytest

from betaeta import syntax as S
from betaeta.errors import (
    BetaEtaError, IllTyped, ParseError, TooLargeToPrint, TypeMismatch, UnboundVariable,
)
from betaeta.normalize import decide_eq

from conftest import PRODUCT_FREE_ROSTER, gen_closed_term, log_calls, memo_sizes, run_in_child

p = S.atom("p")
q = S.atom("q")


def test_types_intern_to_identity():
    assert S.arrow(p, q) is S.arrow(p, q)
    assert S.prod(p, q) is not S.prod(q, p)
    assert S.atom("p") is p
    assert S.TERMINAL is S.parse_type("T")


def test_tower_sharing_is_linear():
    assert S.tower_type(0) is p
    assert S.type_node_count(S.tower_type(30)) == 31
    assert S.type_node_count(S.tower_type(64)) == 65


def test_a_tower_level_is_built_once(monkeypatch):
    # each base keeps its tower levels, so a level asked for again, or one
    # below it, interns nothing and takes no arrow lookup
    q = S.atom("q")
    top, over_q = S.tower_type(5000), S.tower_type(3, q)
    calls = log_calls(monkeypatch, (S, "arrow"))
    assert S.tower_type(5000) is top and S.numeral_type(4998) is top
    assert S.tower_type(4999) is top.dom and S.tower_type(-1) is p
    assert S.tower_type(3, q) is over_q and S.tower_type(2, q) is over_q.cod
    assert calls == []
    qq = S.arrow(q, q)
    assert over_q is S.arrow(S.arrow(qq, qq), S.arrow(qq, qq))


def test_repr_is_bounded_by_the_unfolded_size():
    # tower_type(9) writes out as 1023 nodes and tower_type(10) as 2047;
    # numeral_type(18) is 21 shared nodes but about 2**21 written out
    assert repr(S.tower_type(9)) == S.show_type(S.tower_type(9))
    assert repr(S.tower_type(10)) == f"<type #{S.tower_type(10).uid}, 11 shared nodes>"
    big = S.numeral_type(18)
    assert repr(big) == f"<type #{big.uid}, 21 shared nodes>"
    small = S.parse_term("\\x:p->p. \\y:p. x y")
    assert repr(small) == S.show_term(small)
    # a term whose one binder writes out to 2047 nodes
    wide = S.lams(S.tower_type(10), lambda x: x())
    assert repr(wide) == f"<term #{wide.uid} : type #{wide.ty.uid}>"


def test_numeral_type_unfolds():
    pp = S.arrow(p, p)
    assert S.numeral_type(0) is S.arrow(pp, pp)
    assert S.numeral_type(3) is S.tower_type(5)


def test_type_of_identity():
    t = S.parse_term("\\x:p. x")
    assert S.type_of(t) is S.arrow(p, p)


def test_type_of_nested_example():
    t = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    assert S.type_of(t) is S.arrow(S.arrow(S.arrow(p, p), p), p)


def test_type_of_rejects_atom_application():
    ctx = S.Context([("x", p), ("y", p)])
    with pytest.raises(IllTyped):
        S.parse_term("x y", ctx)


def test_type_of_needs_context_for_free_vars():
    stx = S.parse("\\x:p. y")  # parsing accepts the free variable
    with pytest.raises(UnboundVariable):
        S.elaborate(stx)
    t = S.elaborate(stx, S.Context([("y", p)]))
    assert t.ty is S.arrow(p, p)


def test_substitute_term_basic():
    ctx = S.Context([("x", S.arrow(p, p)), ("y", p)])
    t = S.parse_term("x y", ctx)
    ident = S.parse_term("\\z:p. z")
    out = S.substitute_term(t, "x", ident)
    assert out is S.app(ident, S.free("y", p))


def test_substitute_term_avoids_capture():
    # replacing x by the free variable y under a binder must not capture
    t = S.parse_term("\\w:p. x", S.Context([("x", p)]))
    out = S.substitute_term(t, "x", S.free("y", p))
    assert S.show_term(out) == "\\x1:p. y"
    assert S.free_vars(out) == {"y": p}


def test_binder_names_skip_free_names_and_stay_distinct():
    # x2 is free: the binders take x1, then the least numbers above the
    # last one that no free variable takes
    ctx = S.Context([("x2", S.arrows(p, p, p))])
    t = S.parse_term("\\a:p. \\b:p. \\c:p. x2 b c", ctx)
    assert S.show_term(t) == "\\x1:p. \\x3:p. \\x4:p. x2 x3 x4"
    assert S.parse_term(S.show_term(t), ctx) is t


def test_substitute_term_no_occurrence():
    t = S.parse_term("\\y:p. y")
    assert S.substitute_term(t, "x", S.free("z", p)) is t


def test_substitute_term_type_mismatch():
    t = S.free("x", p)
    with pytest.raises(TypeMismatch):
        S.substitute_term(t, "x", S.parse_term("\\z:p. z"))


def test_substitute_term_preserves_type():
    ctx = S.Context([("f", S.arrow(p, p)), ("u", p)])
    t = S.parse_term("\\g:p->p. g (f u)", ctx)
    out = S.substitute_term(t, "u", S.free("w", p))
    assert out.ty is t.ty


def test_substitute_types_identity_and_rename():
    t = S.parse_term("\\x:q. x")
    assert S.substitute_types(t, {}) is t
    assert S.substitute_types(t, {"q": p}) is S.parse_term("\\x:p. x")


def test_substitute_types_collapse_all_atoms():
    ctx = S.Context([("f", S.arrow(q, S.atom("r")))])
    t = S.parse_term("\\x:q. f x", ctx)
    out = S.substitute_types(t, {"q": p, "r": p})
    assert S.term_atoms(out) == {"p"}
    assert out.ty is S.arrow(p, p)
    # an equal mapping in another dict, in another order, is the same memo entry
    sizes = memo_sizes()
    assert S.substitute_types(t, {"r": p, "q": p}) is out
    assert memo_sizes() == sizes
    # memo results are shared, so they are immutable
    assert type(S.term_atoms(out)) is frozenset


def test_parse_print_round_trip():
    samples = [
        "\\x:p. x",
        "\\x1:(p -> p) -> p. x1 (\\x2:p. x1 (\\x3:p. x2))",
        "\\x1:p * p. <p2 x1, p1 x1>",
        "\\x1:T. k",
        "\\x1:p -> p. \\x2:p. x1 (x1 x2)",
    ]
    for text in samples:
        t = S.parse_term(text)
        assert S.parse_term(S.show_term(t)) is t


def test_parse_pair_of_projections():
    ctx = S.Context([("x", S.prod(p, p))])
    t = S.parse_term("<p1 x, p2 x>", ctx)
    assert t is S.pair(S.proj1(S.free("x", S.prod(p, p))), S.proj2(S.free("x", S.prod(p, p))))


def test_alpha_equivalent_sources_parse_identically():
    a = S.parse_term("\\x:p. \\y:p. x")
    b = S.parse_term("\\u:p. \\v:p. u")
    assert a is b


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        S.parse_term("\\x:p.")
    with pytest.raises(ParseError):
        S.parse_term("(\\x:p. x")
    with pytest.raises(ParseError):
        S.parse_type("p -> ")


def test_projection_binds_tighter_than_application():
    ctx = S.Context([("x", S.prod(S.arrow(p, p), p))])
    t = S.parse_term("p1 x (p2 x)", ctx)
    assert t is S.app(S.proj1(S.free("x", S.prod(S.arrow(p, p), p))),
                      S.proj2(S.free("x", S.prod(S.arrow(p, p), p))))


def test_type_alias_table_round_trip():
    big = S.numeral_type(12)
    term = S.lam(big, S.var(0, big))
    defs, names = S.type_alias_table([term])
    text = S.show_term(term, names)
    assert len(text) < 200
    aliases = S.parse_alias_table(defs)
    assert S.parse_term(text, aliases=aliases) is term


def test_subterms_preorder_each_node_once():
    f = S.free("f", S.arrows(p, p, p))
    u, v = S.free("u", p), S.free("v", p)
    shared = S.apps(f, u, v)
    t = S.apps(f, shared, shared)
    assert list(S.subterms(t)) == [t, t.fun, f, shared, shared.fun, u, v]


def test_subtypes_post_order_with_one_seen_set():
    pq, qp = S.arrow(p, q), S.arrow(q, p)
    ty = S.arrow(pq, qp)
    assert list(S.subtypes(ty)) == [p, q, pq, qp, ty]
    assert list(S.subtypes(qp, ty)) == [q, p, qp, pq, ty]
    defs, _ = S.type_alias_table([ty])
    assert defs == [("ty0", "p -> q"), ("ty1", "q -> p"), ("ty2", "ty0 -> ty1")]


@pytest.mark.parametrize("names", [
    ("ty0",), ("ty1",), ("ty2",), ("ty3",), ("ty5",), ("ty00",), ("ty01",), ("ty\u0661",),
    ("ty_0",), ("ty0", "ty_1"), ("ty0", "ty_1", "ty__2"), ("tyx",), ("Ty0",),
])
def test_alias_names_step_around_atoms_named_like_them(names):
    # one alias per compound node, 2 + len(names) of them, so an atom
    # clashes where its name is the prefix and a numeral below that count
    # as an f-string writes it: the old rule, which built each name
    atoms = [S.atom(name) for name in names]
    aa = S.arrow(atoms[0], atoms[0])
    ty = S.arrow(aa, S.arrows(aa, *atoms))
    defs, _ = S.type_alias_table([ty])
    prefix = "ty"
    while any(f"{prefix}{i}" in names for i in range(len(defs))):
        prefix += "_"
    assert [name for name, _ in defs] == [f"{prefix}{i}" for i in range(len(defs))]
    assert len(defs) == 2 + len(names)
    assert S.parse_alias_table(defs)[defs[-1][0]] is ty


def test_context_rejects_duplicates():
    with pytest.raises(IllTyped):
        S.Context([("x", p), ("x", q)])


def test_lams_nested_binders_resolve_outer_handles():
    pp = S.arrow(p, p)
    want = S.parse_term("\\x:p->p. \\y:p. x y")
    assert S.lams(pp, lambda x: S.lams(p, lambda y: S.app(x(), y()))) is want
    assert S.lams(pp, p, lambda x, y: S.app(x(), y())) is want


def test_lams_closed_term_built_inside_a_body_is_the_same_node():
    from betaeta import products as P
    ty = S.arrow(p, S.prod(p, q))  # its witness has binders nested two deep
    inner = []

    def body(x, y):
        inner.append(P.build_iso(ty).forward)
        return y()

    S.lams(q, S.arrow(q, q), body)
    assert inner[0] is P.build_iso(ty).forward


def test_lams_recovers_from_a_raising_body():
    from betaeta import models as M
    from betaeta.errors import LevelTooSmall
    phi = next(f for f in M.PModel(2).enum(S.arrow(p, p)) if M.kappa(f) > 0)

    def body(x):
        with pytest.raises(LevelTooSmall):
            S.lams(q, lambda y: M.define_functional(phi, 0))
        return x()

    assert S.lams(p, body) is S.parse_term("\\x:p. x")
    with pytest.raises(LevelTooSmall):
        S.lams(q, q, lambda x, y: M.define_functional(phi, 0))
    assert S.lams(p, p, lambda x, y: x()) is S.parse_term("\\x:p. \\y:p. x")


def test_parse_error_position_in_the_middle():
    # each position counts the whitespace skipped before the bad token
    for text, message, pos in (("\\f:p->p.   f ) x", "trailing input ')'", 13),
                               ("\\x:p   x. x", "expected '.', found 'x'", 7),
                               ("\\x:(p->  ]). x", "unexpected ']' in type", 9)):
        with pytest.raises(ParseError) as info:
            S.parse_term(text)
        assert info.value.position == pos
        assert str(info.value) == f"{message} (at position {pos})"


def test_a_binder_annotation_of_many_tokens_reads_its_aliases():
    pp, pq = S.arrow(p, p), S.prod(p, q)
    aliases = {"A": pp, "B": pq}
    t = S.parse_term("\\f:(A -> B) * T. \\x:A -> B * A. p1 f", aliases=aliases)
    fty = S.prod(S.arrow(pp, pq), S.TERMINAL)
    assert t is S.lam(fty, S.lam(S.arrow(pp, S.prod(pq, pp)), S.proj1(S.var(1, fty))))
    # the alias names are type text only: without the table they are atoms
    assert S.parse_term("\\x:A. x").ty is S.arrow(S.atom("A"), S.atom("A"))


def test_an_error_inside_a_binder_annotation_carries_its_position():
    for text, message, pos in (("\\x:p -> . x", "unexpected '.' in type", 8),
                               ("\\x:p -> (q * ). x", "unexpected ')' in type", 13),
                               ("\\x:(p. x", "expected ')', found '.'", 5),
                               ("\\x:p ->. x", "unexpected '.' in type", 7),
                               ("\\x:(p -> p. x", "expected ')', found '.'", 10),
                               ("\\x:p -> p) . x", "expected '.', found ')'", 9),
                               ("\\x:p p. x", "expected '.', found 'p'", 5),
                               ("\\x:p -> p", "unexpected end of input", 9),
                               ("\\x:p * . x", "unexpected '.' in type", 7),
                               ("\\x:. x", "unexpected '.' in type", 3),
                               ("\\x:p -> p -> . x", "unexpected '.' in type", 13),
                               ("\\x:p -> (p -> . x", "unexpected '.' in type", 14),
                               ("\\x:p -> p p. x", "expected '.', found 'p'", 10),
                               ("\\x:(p -> p) -> . x", "unexpected '.' in type", 15),
                               ("\\x:p -> p. \\y:p -> p -> .y", "unexpected '.' in type", 24),
                               ("\\x:p -> T * . x", "unexpected '.' in type", 12),
                               ("\\x:p -> p -> p q. x", "expected '.', found 'q'", 15),
                               ("\\x:p -> p -> p", "unexpected end of input", 14)):
        with pytest.raises(ParseError) as info:
            S.parse_term(text)
        assert (str(info.value), info.value.position) == (f"{message} (at position {pos})", pos)


def test_a_name_bound_at_two_types_means_its_innermost_binder():
    pp = S.arrow(p, p)
    inner = S.parse_term("\\x:p. \\x:p -> p. x")
    assert inner is S.lam(p, S.lam(pp, S.var(0, pp)))
    # after the inner binder closes, the name is the outer one again
    t = S.parse_term("\\x:p->p. \\y:p. <(\\x:p. x) y, x y>")
    y = S.var(0, p)
    assert t is S.lam(pp, S.lam(p, S.pair(S.app(S.lam(p, S.var(0, p)), y),
                                          S.app(S.var(1, pp), y))))
    with pytest.raises(IllTyped):
        S.parse_term("\\x:p. (\\x:p -> p. x) x")


def test_a_lambda_cannot_follow_a_projection():
    for text, pos in (("p1 \\x:p. x", 3), ("\\z:p*p. p2 \\x:p. x", 11)):
        with pytest.raises(ParseError) as info:
            S.parse_term(text)
        assert (str(info.value), info.value.position) == (
            f"unexpected '\\' (at position {pos})", pos)
    # parenthesized, it is read, and the projection is then ill-typed
    with pytest.raises(IllTyped):
        S.parse_term("p1 (\\x:p. x)")


# ---------------------------------------------------------------------------
# Parser differential pin

_PIECES = ("\\", "x", "y", "f", "g", "z", "u", "x'", "é", "λ", "y²", "²", "_a",
           "p", "q", "T", "A", "ty0", "k", "p1", "p2", "id", "bang", "eval", "curry",
           ":", ".", ",", "(", ")", "<", ">", "[", "]", "->", "-", "*", "'", "1", "9x")
_SPACES = ("", " ", "  ", "\t", "\n", "\u00a0", "\x1c", " \u00a0 ")


def _gen_type(rng, fuel):
    roll = rng.random()
    if fuel <= 0 or roll < 0.35:
        return rng.choice(("p", "q", "T", "A", "ty0"))
    sp = lambda: rng.choice(_SPACES)
    if roll < 0.7:
        return f"{_gen_type(rng, fuel - 1)}{sp()}->{sp()}{_gen_type(rng, fuel - 1)}"
    if roll < 0.85:
        return f"{_gen_type(rng, fuel - 1)}{sp()}*{sp()}{_gen_type(rng, fuel - 1)}"
    return f"({sp()}{_gen_type(rng, fuel - 1)}{sp()})"


def _gen_term(rng, fuel):
    roll = rng.random()
    sp = lambda: rng.choice(_SPACES)
    if fuel <= 0 or roll < 0.25:
        return rng.choice(("x", "y", "f", "g", "z", "u", "x'", "é", "y²", "k", "w"))
    if roll < 0.5:
        name = rng.choice(("x", "y", "x'", "é", "λ", "_a", "k", "T"))
        return (f"\\{sp()}{name}{sp()}:{sp()}{_gen_type(rng, 2)}{sp()}.{sp()}"
                f"{_gen_term(rng, fuel - 1)}")
    if roll < 0.75:
        return f"{_gen_term(rng, fuel - 1)} {sp()}{_gen_term(rng, fuel - 1)}"
    if roll < 0.85:
        return f"({sp()}{_gen_term(rng, fuel - 1)}{sp()})"
    if roll < 0.93:
        return f"<{_gen_term(rng, fuel - 1)},{sp()}{_gen_term(rng, fuel - 1)}>"
    return f"{rng.choice(('p1', 'p2'))} {sp()}{_gen_term(rng, fuel - 1)}"


def _gen_arrow(rng, fuel):
    roll = rng.random()
    sp = lambda: rng.choice(_SPACES)
    ty = lambda: _gen_type(rng, 1)
    if fuel <= 0 or roll < 0.4:
        return rng.choice((f"id[{ty()}]", f"bang[{sp()}{ty()}]", f"p1[{ty()},{sp()}{ty()}]",
                           f"p2[{ty()}, {ty()}]", f"eval[{ty()},{ty()}]"))
    if roll < 0.65:
        return f"{_gen_arrow(rng, fuel - 1)}{sp()}.{sp()}{_gen_arrow(rng, fuel - 1)}"
    if roll < 0.8:
        return f"<{sp()}{_gen_arrow(rng, fuel - 1)},{_gen_arrow(rng, fuel - 1)}>"
    if roll < 0.9:
        return f"curry[{ty()}, {ty()}]{sp()}({_gen_arrow(rng, fuel - 1)})"
    return f"({_gen_arrow(rng, fuel - 1)})"


def _mutate(rng, text):
    for _ in range(rng.randrange(4)):
        at = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:at] + rng.choice(_PIECES + _SPACES) + text[at:]
        elif roll < 0.7:
            text = text[:at] + text[at + rng.randrange(1, 4):]
        else:
            text = text[:at] + rng.choice(_SPACES[1:]) + text[at:]
    return text


_ASCII_SPACES = ("", " ", "  ", "\t", "\n", "\x1c", " \x1d\n", "\x1e\x1f ")


def _gen_long(rng, size, wide=False, pairs=True):
    """Term text of type p over the context of ``_parser_outcomes``, nested
    until it is ``size`` characters long: its functions applied, lambdas
    with one-name and compound binder types, pairs and projections.  Its
    spaces are ASCII runs, U+001C-U+001F among them, and a space precedes
    each ">", so that some texts have no piece of two tokens; ``wide`` adds
    U+00A0 and names that are no ASCII, and ``pairs=False`` leaves out the
    pairs, and with them every "<"."""
    sp = lambda: rng.choice(_SPACES if wide else _ASCII_SPACES)
    funs = ("y", "(g x)", "(g (p1 z))") + (("é", "(p1 y²)") if wide else ())
    names = ("v", "w", "x", "x'", "_b") + (("λ",) if wide else ())
    leaves = ["x", "x'", "p1 z"]  # of type p, and the p binders so far
    heads, tails, length = [], [], 0
    while length < size:
        roll = rng.random()
        if roll < 0.3:
            head, tail = f"{rng.choice(funs)}{sp()}({sp()}", f"{sp()})"
        elif roll < 0.55:
            name = rng.choice(names)
            ty = rng.choice(("p", "p", "p", "(p)"))
            head, tail = f"f{sp()}(\\{sp()}{name}{sp()}:{sp()}{ty}{sp()}.{sp()}", ")"
            leaves.append(name)
        elif roll < 0.7:
            ty = rng.choice(("A", "p -> p", "(p) -> p", "p\t->\x1cp"))
            head, tail = f"(\\h:{sp()}{ty}.{sp()}h{sp()}(", f")){sp()}y"
        elif roll < 0.8:
            head, tail = f"(\\t{sp()}:{rng.choice(('T', 'T ', '(T)'))}.{sp()}", f"){sp()}u"
        elif roll < 0.9 and pairs:
            head, tail = f"p2{sp()}<{rng.choice(('u', 'k'))},{sp()}", f"{sp()} >"
        else:
            head, tail = f"g{sp()}(", f"){sp()}({rng.choice(leaves)})"
        heads.append(head)
        tails.append(tail)
        length += len(head) + len(tail)
    return "".join(heads) + rng.choice(leaves) + "".join(reversed(tails))


# pieces that are no one token between spaces, and characters that are a
# token on their own only between spaces
_TRICKY = ("1x", "a->b", "-->", "->>", "x''", "-", ">", "'")
_RUNS = ("\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\t\n\x1c\x1d\x1e\x1f ")


def _put_tricky(rng, text):
    """``text`` with up to three tricky pieces or whitespace runs put in at
    random places, each alone or between spaces."""
    for _ in range(rng.randrange(4)):
        at = rng.randrange(len(text) + 1)
        piece = rng.choice(_TRICKY + _RUNS)
        if rng.random() < 0.5:
            piece = f" {piece}{rng.choice(_RUNS)}"
        text = text[:at] + piece + text[at:]
    return text


def _parser_outcomes(kind, seed, n):
    import hashlib
    from betaeta import ccc as C
    pp = S.arrow(p, p)
    ctx = S.Context([("x", p), ("y", pp), ("f", S.arrow(pp, p)), ("g", S.arrow(p, pp)),
                     ("z", S.prod(p, q)), ("u", S.TERMINAL), ("x'", p), ("é", pp),
                     ("y²", S.prod(pp, p))])
    aliases = {"A": pp, "ty0": S.prod(p, S.TERMINAL)}
    gen = {"term": _gen_term, "type": _gen_type, "arrow": _gen_arrow}.get(kind)
    rng = random.Random(seed)
    digest, ok = hashlib.sha256(), 0
    for i in range(n):
        if kind == "long":  # every text past the long-text threshold
            text = _gen_long(rng, rng.randrange(530, 1500), wide=i % 5 == 0)
            text = _mutate(rng, text) if i % 2 else _put_tricky(rng, text) if i % 4 else text
            assert len(text) > S._LONG_TEXT
        elif i % 4 == 3:  # token soup
            text = "".join(rng.choice(_PIECES + _SPACES) for _ in range(rng.randrange(1, 9)))
        else:
            text = gen(rng, rng.randrange(1, 5))
            if i % 2:
                text = _mutate(rng, text)
        try:
            if kind in ("term", "long"):
                t = S.parse_term(text, ctx, aliases if i % 3 else None)
                out = f"ok {S.show_term(t)} : {S.show_type(t.ty)}"
            elif kind == "type":
                out = f"ok {S.show_type(S.parse_type(text, aliases if i % 3 else None))}"
            else:
                out = f"ok {C.show_arrow(C.parse_arrow(text))}"
            ok += 1
        except BetaEtaError as exc:
            out = f"{type(exc).__name__} {exc} {getattr(exc, 'position', None)}"
        digest.update(f"{text!r} -> {out}\n".encode())
    return ok, digest.hexdigest()


@pytest.mark.parametrize("kind, seed, ok, digest", [
    ("term", 701, 412, "239b2f8f1da77a3cd7e85e88de7fcae21bab87b3a17f67d33caab8a55093bd9a"),
    ("type", 702, 1059, "8b434e85d73733d558dbeba6c53518d939a25e14a0cabcb8507daa7c8d56c0ac"),
    ("arrow", 703, 433, "0b28257e2251847324ed166675443924fe99a30e8b72cf664293c1f73dbad0ca"),
    ("long", 704, 606, "65f86f059fd8ac20c8ade61fd042adf453aff5ec00f07c9d85fea93b5dc4473c"),
])
def test_parser_results_are_pinned(kind, seed, ok, digest):
    # fuzzed texts (whitespace runs including U+00A0 and U+001C, split
    # arrows, primes, non-ASCII names, stray characters) and the result of
    # each, or the class, message and position of its error, in one digest;
    # the "long" texts are all past the long-text threshold
    assert _parser_outcomes(kind, seed, 1500) == (ok, digest)


def _long_texts(seed, n, wide=False, pairs=True):
    """``n`` term texts of 513 to 20,000 characters with tricky pieces."""
    rng = random.Random(seed)
    for _ in range(n):
        size = rng.randrange(513, 20_001)
        yield _put_tricky(rng, _gen_long(rng, size, wide, pairs)[:size])


def test_long_text_tokens_are_the_token_patterns():
    # a long ASCII text with no "<" is split at spaces after each solo
    # character is spaced out, and read by the token pattern when some
    # piece is not one token; both ways give the pattern's tokens, and so
    # does the split of a text that holds pairs wherever it succeeds
    split = pattern = 0
    for text in [*_long_texts(705, 300), *_long_texts(709, 150, pairs=False)]:
        assert len(text) > S._LONG_TEXT and text.isascii()
        toks = S._ASCII_TOKEN.findall(text)
        assert S._tokenize(text) == toks + [None]
        by_split = S._split(text)
        assert by_split in (None, toks)
        if by_split is None or "<" in text:
            pattern += 1
        else:
            split += 1
    assert split > 50 and pattern > 50


def test_long_text_that_is_no_ascii_has_its_pinned_tokens():
    import hashlib
    digest = hashlib.sha256()
    for text in _long_texts(706, 40, wide=True):
        assert not text.isascii()
        digest.update(repr(S._tokenize(text)).encode())
    assert digest.hexdigest() == "5fe5113e3046497a20621815005ce8818391848f0e4222c91e4cf1827421a294"


def test_a_long_head_argument_is_split_and_a_long_pair_text_is_not(monkeypatch):
    # the worked pair's defining head argument is read by string passes; a
    # long text that holds a pair goes straight to the token pattern, since
    # a pair printed by show_term ends in a piece such as "x2>", which is
    # two tokens
    from betaeta import cli, separator as Sep
    a, b = (S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. " + v) for v in "yz")
    text = cli.serialize_certificate(Sep.separate_two(a, b))
    calls = []
    split = S._split

    def logged_split(text):
        toks = split(text)
        calls.append((len(text), toks is not None))
        return toks

    monkeypatch.setattr(S, "_split", logged_split)
    assert cli.serialize_certificate(cli.parse_certificate(text)) == text
    assert calls == [(11_979, True)]

    def tree(d):
        return "x1" if d == 0 else f"<{tree(d - 1)}, {tree(d - 1)}>"

    pairs = "\\x1:p. " + tree(7)
    calls.clear()
    assert len(pairs) > S._LONG_TEXT and S.show_term(S.parse_term(pairs)) == pairs
    assert calls == [] and split(pairs) is None


def test_tokenizing_long_texts_keeps_no_table():
    def sizes():
        tables = {name: len(v) for name, v in vars(S).items()
                  if isinstance(v, (dict, list, set, frozenset))}
        return tables, memo_sizes()

    base = _gen_long(random.Random(708), 600, pairs=False)
    texts = [f"{base} x{i}" for i in range(500)] + [f"{base} 1x{i}" for i in range(500)]
    assert "<" not in base and S._split(texts[0]) is not None and S._split(texts[-1]) is None
    before = sizes()
    for text in texts:
        S._tokenize(text)
    assert sizes() == before


def test_show_term_refuses_only_past_the_print_bound():
    # \x:A. x takes 3N + 1 type nodes written out, where the tower type A
    # at k has N = 2^(k+1) - 1: past INLINE_NODES at k = 8 it still prints
    # inline, and k = 20 is the first past PRINT_NODES
    def identity(k):
        return S.parse_term("\\x:A. x", aliases={"A": S.tower_type(k)})

    small, under, over = identity(8), identity(19), identity(20)
    assert not S.fits_inline(small) and S.parse_term(S.show_term(small)) is small
    assert S.fits_inline(under, 3 * (2 ** 20 - 1) + 1) and not S.fits_inline(under, 3 * (2 ** 20 - 1))
    assert S.fits_inline(under, S.PRINT_NODES) and not S.fits_inline(over, S.PRINT_NODES)
    with pytest.raises(TooLargeToPrint, match="type_alias_table"):
        S.show_term(over)
    assert repr(over) == f"<term #{over.uid} : type #{over.ty.uid}>"


def test_show_type_refuses_only_past_the_print_bound():
    # the level-20 numeral type is 25,165,818 characters written out, the
    # first numeral type past PRINT_NODES; it is refused at once, with no
    # node written, and prints with an alias table
    import time
    under, over = S.numeral_type(19), S.numeral_type(20)
    assert S.fits_inline(under, S.PRINT_NODES) and not S.fits_inline(over, S.PRINT_NODES)
    start = time.perf_counter()
    with pytest.raises(TooLargeToPrint, match="type_alias_table"):
        S.show_type(over)
    assert time.perf_counter() - start < 1.0
    defs, names = S.type_alias_table([over])
    assert S.show_type(over, names) == names[over.uid] and len(defs) == 22
    assert repr(over) == f"<type #{over.uid}, 23 shared nodes>"
    assert S.show_type(S.numeral_type(2)) == repr(S.numeral_type(2)) == (
        "(((p -> p) -> p -> p) -> (p -> p) -> p -> p) -> "
        "((p -> p) -> p -> p) -> (p -> p) -> p -> p")


def test_closed_terms_are_not_walked_for_names(monkeypatch):
    pairs = [(gen_closed_term(ty, random.Random(seed)), gen_closed_term(ty, random.Random(seed + 1)))
             for ty in PRODUCT_FREE_ROSTER for seed in range(4)]

    def no_walk(t):
        raise AssertionError("walked a closed term")

    monkeypatch.setattr(S, "subterms", no_walk)
    for a, b in pairs:
        assert S.free_vars(a) == {} and S.is_closed(a)
        assert S.bind(a, S.free("x", p)).body is a
        assert S.substitute_term(a, "x", S.free("y", p)) is a
        assert decide_eq(a, b) in (True, False)
    assert not all(decide_eq(a, b) for a, b in pairs)


def test_a_text_too_deep_raises_the_documented_error():
    # the term and type readers keep their open frames on a list, so a
    # term nested 60,000 deep and a type in 40,000 parentheses parse.  A
    # child runs them, since a deep recursion could take the test process
    # down.  Afterwards the parser works as before.
    out = run_in_child(
        "from betaeta import syntax as S\n"
        "n = 60_000\n"
        "term = '\\\\f:p->p. \\\\x:p. ' + 'f (' * n + 'x' + ')' * n\n"
        "print(S.show_type(S.parse_term(term).ty))\n"
        "print(S.show_type(S.parse_type('(' * 40_000 + 'p' + ')' * 40_000)))\n"
        "print(S.show_term(S.parse_term('\\\\f:p->p. \\\\x:p. f (f x)')))\n")
    assert out.splitlines() == ["(p -> p) -> p -> p", "p",
                                "\\x1:p -> p. \\x2:p. x1 (x1 x2)"]


def test_a_semantic_error_never_masks_a_later_syntax_error():
    # the one pass meets the unbound 'y', or the ill-typed 'x y', before
    # the missing term at the end; the syntax error is the one raised
    ctx = S.Context([("x", p), ("y", p)])
    for text, context, pos in (("y (", S.EMPTY, 3), ("x y (", ctx, 5)):
        with pytest.raises(ParseError) as info:
            S.parse_term(text, context)
        assert (str(info.value), info.value.position) == (
            f"expected a term (at position {pos})", pos)
    with pytest.raises(UnboundVariable):
        S.parse_term("y (k)")
    with pytest.raises(IllTyped):
        S.parse_term("x y (k)", ctx)


class _Point(S.Record):
    x: int
    y: int = 0
    tags: list = []


def test_a_record_keeps_its_fields_defaults_and_equality():
    assert _Point._fields == ("x", "y", "tags")
    a, b = _Point(1), _Point(x=1, y=0)
    assert (a.x, a.y, a.tags) == (1, 0, [])
    assert a == b and a != _Point(1, 2) and a != (1, 0, [])
    assert a.tags is not b.tags  # a list default is each record's own
    assert repr(_Point(1, y=2)) == "_Point(x=1, y=2, tags=[])"
    a.y = 5  # records are mutable
    assert a == _Point(1, 5)


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1,), {"z": 2}), ((1,), {"x": 2}),
                                          ((1, 2, [], 3), {})])
def test_a_missing_unknown_or_extra_record_field_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        _Point(*args, **kwargs)
