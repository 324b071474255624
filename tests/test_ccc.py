import random

import pytest

from betaeta import ccc as C
from betaeta import syntax as S
from betaeta.errors import BadCertificate, EqualArrows, IllFormed, TypeMismatch
from betaeta.normalize import decide_eq

from conftest import log_calls, run_in_child

p, q, r = S.atom("p"), S.atom("q"), S.atom("r")


def test_arrow_types_of_atomic_arrows():
    assert C.arrow_type_of(C.AId(p)) == (p, p)
    assert C.arrow_type_of(C.AProj(1, p, q)) == (S.prod(p, q), p)
    assert C.arrow_type_of(C.AProj(2, p, q)) == (S.prod(p, q), q)
    assert C.arrow_type_of(C.AEval(p, q)) == (S.prod(S.arrow(p, q), p), q)
    assert C.arrow_type_of(C.ABang(p)) == (p, S.TERMINAL)


def test_composition_rules():
    f = C.AProj(1, p, q)
    g = C.ABang(p)
    gf = C.ACompose(g, f)
    assert C.arrow_type_of(gf) == (S.prod(p, q), S.TERMINAL)
    with pytest.raises(IllFormed):
        C.ACompose(f, g)


def test_pairing_and_curry_rules():
    f = C.AProj(1, p, q)
    g = C.AProj(2, p, q)
    assert C.APairing(f, g).tgt is S.prod(p, q)
    with pytest.raises(IllFormed):
        C.APairing(f, C.AId(p))
    cur = C.ACurry(p, q, C.AProj(1, p, q))
    assert C.arrow_type_of(cur) == (p, S.arrow(q, p))
    with pytest.raises(IllFormed):
        C.ACurry(q, q, C.AProj(1, p, q))


def test_translations():
    assert decide_eq(C.to_lambda(C.AId(p)), S.parse_term("\\x:p. x"))
    assert decide_eq(C.to_lambda(C.AEval(p, q)),
                     S.parse_term("\\x:(p->q)*p. p1 x (p2 x)"))
    h = C.APairing(C.AProj(2, p, q), C.AProj(1, p, q))
    assert decide_eq(C.to_lambda(h), S.parse_term("\\x:p*q. <p2 x, p1 x>"))


def test_surjective_pairing_axiom():
    h = C.APairing(C.ABang(p), C.AId(p))
    a, b = h.tgt.left, h.tgt.right
    rebuilt = C.APairing(C.ACompose(C.AProj(1, a, b), h),
                         C.ACompose(C.AProj(2, a, b), h))
    assert C.decide_ccc_eq(rebuilt, h)


def test_terminal_axiom():
    f = C.ACompose(C.ABang(S.prod(p, p)), C.APairing(C.AId(p), C.AId(p)))
    assert C.decide_ccc_eq(f, C.ABang(p))


def test_projections_differ():
    assert not C.decide_ccc_eq(C.AProj(1, p, p), C.AProj(2, p, p))


def test_decide_requires_same_arrow_type():
    with pytest.raises(TypeMismatch):
        C.decide_ccc_eq(C.AId(p), C.AId(q))


def test_axiom_families_hold():
    report = C.check_axioms(samples=10, seed=3)
    assert len(report) == 10
    assert all(passed == total for passed, total in report.values())


def test_translation_respects_composition():
    rng = random.Random(31)
    for _ in range(40):
        f = C.random_arrow(rng)
        g = C.random_arrow_from(f.tgt, rng)
        composed = C.to_lambda(C.ACompose(g, f))
        pointwise = S.lams(f.src, lambda x: S.app(C.to_lambda(g), S.app(C.to_lambda(f), x())))
        assert decide_eq(composed, pointwise)


def test_translation_respects_associativity():
    rng = random.Random(37)
    for _ in range(40):
        f = C.random_arrow(rng)
        g = C.random_arrow_from(f.tgt, rng)
        h = C.random_arrow_from(g.tgt, rng)
        left = C.to_lambda(C.ACompose(C.ACompose(h, g), f))
        right = C.to_lambda(C.ACompose(h, C.ACompose(g, f)))
        assert decide_eq(left, right)


def test_collapse_projections():
    cert = C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    assert C.show_arrow(cert.derived_lhs) == "p1[p, p]"
    assert C.show_arrow(cert.derived_rhs) == "p2[p, p]"
    assert C.replay_collapse(cert)


def test_collapse_nontrivial_pair():
    # identity on p -> p versus the constant-identity arrow
    f = C.AId(S.arrow(p, p))
    swap_like = C.ACurry(S.arrow(p, p), p,
                         C.ACompose(C.AProj(2, S.arrow(p, p), p),
                                    C.AId(S.prod(S.arrow(p, p), p))))
    # swap_like sends g to \y. y, i.e. it forgets its argument
    assert not C.decide_ccc_eq(f, swap_like)
    cert = C.collapse(f, swap_like)
    assert C.replay_collapse(cert)


def test_collapse_equal_arrows_raises():
    with pytest.raises(EqualArrows):
        C.collapse(C.AId(p), C.AId(p))


def test_collapse_replay_rejects_wrong_inputs():
    cert = C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    cert.f = C.AProj(2, p, p)  # certificate no longer matches its input
    assert not C.replay_collapse(cert)


def test_arrow_parse_print_round_trip():
    texts = (
        "id[p]",
        "p1[p, q]",
        "bang[p * T]",
        "eval[p, p] . <curry[p, p](p2[p, p]), id[p]>",
        "curry[p, q](p1[p, q])",
        "<p2[p, q], p1[p, q]>",
    )
    for text in texts:
        ar = C.parse_arrow(text)
        again = C.parse_arrow(C.show_arrow(ar))
        assert ar == again


def test_random_arrows_are_well_formed():
    rng = random.Random(41)
    for _ in range(200):
        f = C.random_arrow(rng)
        src, tgt = C.arrow_type_of(f)
        t = C.to_lambda(f)
        assert t.ty is S.arrow(src, tgt)
        assert not S.free_vars(t)


def test_replay_collapse_shares_one_table(monkeypatch):
    # the nested verify_product joins the replay's scope instead of
    # emptying the table that the last two checks reuse
    from betaeta import checker
    from betaeta import normalize as Nz
    cert = C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    after_nested = []
    real = checker.verify_product

    def spy(sep):
        try:
            return real(sep)
        finally:
            after_nested.append(len(Nz._CLOSED))

    monkeypatch.setattr(checker, "verify_product", spy)
    assert C.replay_collapse(cert)
    assert after_nested and after_nested[0] > 0
    assert not Nz._CLOSED


def test_replay_collapse_rejects_a_tampered_level():
    from betaeta import cli
    text = cli.serialize_certificate(C.collapse(C.AProj(1, p, p), C.AProj(2, p, p)))
    assert '"level": 0,' in text
    assert C.replay_collapse(cli.parse_certificate(text))
    for level in ('2', '1'):
        tampered = cli.parse_certificate(text.replace('"level": 0,', f'"level": {level},'))
        assert not C.replay_collapse(tampered)
    with pytest.raises(BadCertificate, match="'level' must be int"):
        cli.parse_certificate(text.replace('"level": 0,', '"level": "0",'))


def test_a_left_nested_composition_round_trips():
    # show_arrow brackets a composition on the left of another, which
    # parse_arrow would otherwise read as nested to the right
    from betaeta import certio
    f = C.parse_arrow("(p1[p, p] . <p1[p, p], p2[p, p]>) . id[p * p]")
    assert isinstance(f.g, C.ACompose)
    assert C.show_arrow(f) == "(p1[p, p] . <p1[p, p], p2[p, p]>) . id[p * p]"
    assert C.parse_arrow(C.show_arrow(f)) == f
    text = certio.serialize_certificate(C.collapse(f, C.AProj(2, p, p)))
    decoded = certio.parse_certificate(text)
    assert decoded.f == f
    assert certio.serialize_certificate(decoded) == text
    assert C.replay_collapse(decoded)


def test_a_deeply_nested_arrow_is_a_parse_error():
    # in a child, since the reader's recursion runs out of frames; the
    # error points at the first token of the innermost group
    out = run_in_child(
        "from betaeta import checker\n"
        "from betaeta.errors import ParseError\n"
        "try:\n"
        "    checker.parse_arrow('(' * 40_000 + 'id[p]' + ')' * 40_000)\n"
        "except ParseError as exc:\n"
        "    print(exc)\n")
    assert out == "arrow term nested too deeply (at position 40000)\n"


def test_replay_collapse_requires_the_translations_as_sources():
    # the same arrows over the atom q: each instantiated side is still a
    # type-instance of the translation over p, and the separation replays
    from betaeta import products as P
    cert = C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    cert.separation = P.separate_prod(C.to_lambda(C.AProj(1, q, q)),
                                      C.to_lambda(C.AProj(2, q, q)))
    assert P.verify_product(cert.separation)
    assert not C.replay_collapse(cert)


def test_collapse_decides_its_pair_once(monkeypatch):
    # decide_ccc_eq is the one decision on the pair; the separation is
    # built without a decision of its own or a replay, and replay_collapse
    # is the one check: its nested verify_product and both derived arrows
    # decide through normalize.decide_eq, as decide_ccc_eq does
    from betaeta import checker
    from betaeta import normalize as Nz
    from betaeta import products as P
    from betaeta import separator as Sep
    calls = log_calls(monkeypatch, (Nz, "decide_eq"), (C, "replay_collapse"), (P, "decide_eq"),
                      (P, "verify_product"), (checker, "verify_product"), (Sep, "decide_eq"),
                      (Sep, "verify"))
    C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    assert calls == ["normalize.decide_eq", "products.decide_eq", "ccc.replay_collapse",
                     "checker.verify_product"] + ["normalize.decide_eq"] * 4
