import json
import os
import re
import subprocess
import sys

import pytest

from betaeta import certio, cli
from betaeta import ccc as C
from betaeta import models as M
from betaeta import products as P
from betaeta import separator as Sep
from betaeta import syntax as S
from betaeta.errors import BadCertificate
from betaeta.numerals import church

from conftest import memo_sizes, run_in_child


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_beta(capsys):
    code, out, _ = run(capsys, "normalize", r"(\x:p.x) y", "--ctx", "y:p")
    assert code == 0 and out.strip() == "y"


def test_normalize_long(capsys):
    code, out, _ = run(capsys, "normalize", "f", "--long", "--ctx", "f:p->p")
    assert code == 0 and out.strip() == r"\x1:p. f x1"


def test_normalize_projection(capsys):
    code, out, _ = run(capsys, "normalize", "p1 <a, b>", "--ctx", "a:p, b:q")
    assert code == 0 and out.strip() == "a"


def test_normalize_parse_error_exit(capsys):
    code, _, err = run(capsys, "normalize", r"(\x:p. x")
    assert code == cli.EXIT_PARSE and "parse error" in err


def test_normalize_type_error_exit(capsys):
    code, _, err = run(capsys, "normalize", "x y", "--ctx", "x:p, y:p")
    assert code == cli.EXIT_TYPE and "type error" in err


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", r"\x:p. x", r"\y:p. y")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "eq",
                       r"\x:p->p.\y:p. x y", r"\x:p->p.\y:p. x (x y)")
    assert code == cli.EXIT_FAIL and out.strip() == "not-equal"


def test_eq_ill_typed_pair(capsys):
    code, _, err = run(capsys, "eq", r"\x:p. x", r"\x:q. x")
    assert code == cli.EXIT_TYPE


def test_pair_file_corpus(tmp_path, capsys):
    corpus = tmp_path / "pair.txt"
    corpus.write_text("\\x:p->p.\\y:p. x y\n---\n\\x:p->p.\\y:p. x (x y)\n")
    code, out, _ = run(capsys, "eq", "--pair-file", str(corpus))
    assert code == cli.EXIT_FAIL and out.strip() == "not-equal"
    code, out, _ = run(capsys, "separate", "--pair-file", str(corpus))
    assert code == 0
    assert json.loads(out)["kind"] == "lambda-separation"


def test_separate_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "separate", "--two-valued",
                       r"\x:p->p.\y:p. x y", r"\x:p->p.\y:p. x (x y)")
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out2, _ = run(capsys, "verify", str(cert_file))
    assert code == 0 and out2.strip() == "pass"


def test_separate_with_targets(capsys):
    code, out, _ = run(capsys, "separate",
                       r"\x:p->p.\y:p. x y", r"\x:p->p.\y:p. x (x y)",
                       "c", "d", "--ctx", "c:p, d:p")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["target_c"] == "c"
    assert payload["two_valued"] is False


def test_separate_equal_pair_exit(capsys):
    code, _, err = run(capsys, "separate", "--two-valued", r"\x:p. x", r"\y:p. y")
    assert code == cli.EXIT_EQUAL


def test_separate_product_flag(tmp_path, capsys):
    code, out, _ = run(capsys, "separate", "--product",
                       r"\x:p*p. <p1 x, p2 x>", r"\x:p*p. <p2 x, p1 x>")
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "product-separation"
    cert_file = tmp_path / "prod.json"
    cert_file.write_text(out)
    assert run(capsys, "verify", str(cert_file))[0] == 0


def test_serialization_is_canonical_and_bit_exact():
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    text = cli.serialize_certificate(cert)
    decoded = cli.parse_certificate(text)
    assert cli.serialize_certificate(decoded) == text
    assert Sep.verify(decoded)


def test_open_pair_serialization_keeps_source_types():
    import betaeta.syntax as S
    p = S.atom("p")
    ctx = S.Context([("f", S.arrows(p, p, p)), ("u", p), ("v", p)])
    a = S.parse_term("f u v", ctx)
    b = S.parse_term("f v u", ctx)
    cert = Sep.separate_two(a, b)
    decoded = cli.parse_certificate(cli.serialize_certificate(cert))
    # sources decode at their original types, not the instantiated ones
    assert decoded.a_source is a
    assert decoded.b_source is b
    assert Sep.verify(decoded)
    sub = {"p": S.numeral_type(decoded.level, decoded.target_c.ty)}
    assert decoded.a_prime is S.substitute_types(decoded.a_source, sub)


def test_product_serialization_round_trip():
    import betaeta.syntax as S
    a = S.parse_term("\\x:p*p. <p1 x, p2 x>")
    b = S.parse_term("\\x:p*p. <p2 x, p1 x>")
    cert = P.separate_prod(a, b)
    text = cli.serialize_certificate(cert)
    decoded = cli.parse_certificate(text)
    assert cli.serialize_certificate(decoded) == text
    assert P.verify_product(decoded)


def test_collapse_serialization_round_trip():
    import betaeta.syntax as S
    p = S.atom("p")
    cert = C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))
    text = cli.serialize_certificate(cert)
    decoded = cli.parse_certificate(text)
    assert cli.serialize_certificate(decoded) == text
    assert C.replay_collapse(decoded)


def test_verify_tampered_certificate_fails(tmp_path, capsys):
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    env = json.loads(cli.serialize_certificate(cert))
    env["payload"]["target_c"], env["payload"]["target_d"] = (
        env["payload"]["target_d"], env["payload"]["target_c"])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(env))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == cli.EXIT_FAIL and out.strip() == "fail"


def test_verify_wrong_schema_exit(tmp_path, capsys):
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    env = json.loads(cli.serialize_certificate(cert))
    env["schema"] = 2
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(env))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == cli.EXIT_SCHEMA
    assert err == "unsupported schema version 2\n"


def test_a_kind_naming_the_schema_version_is_no_schema_error(tmp_path, capsys):
    # exit 6 is chosen by the error's class, not by words in its message
    bad = tmp_path / "kind.json"
    bad.write_text(json.dumps({"schema": 1, "kind": "schema version", "payload": {}}))
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err == "certificate: unknown certificate kind 'schema version'\n"


def test_a_certificate_that_is_not_utf8_is_refused(tmp_path, capsys):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff{}")
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err.startswith("certificate: not UTF-8: ")
    assert "Traceback" not in err


def test_a_pair_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "binary.pair"
    bad.write_bytes(TWO[0].encode() + b"\n---\n\xff\n")
    code, out, err = run(capsys, "eq", "--pair-file", str(bad))
    assert (code, out) == (cli.EXIT_PARSE, "")
    at = len(TWO[0]) + len("\n---\n")  # the byte offset of 0xff
    assert err == f"parse error: pair file is not UTF-8: invalid start byte (at position {at})\n"


def _alias_tower_certificate(n: int) -> str:
    """The README's two-valued certificate with both a-sides replaced by
    the identity at ``dd{n-1}``, where ``dd0 = p -> p`` and
    ``dd{i} = dd{i-1} -> dd{i-1}``: a few KB of text whose type is a
    tree of about 2**(n+1) nodes, shared as n + 1."""
    import betaeta.syntax as S
    cert = Sep.separate_two(S.parse_term("\\x:p->p.\\y:p. x y"),
                            S.parse_term("\\x:p->p.\\y:p. x (x y)"))
    env = json.loads(cli.serialize_certificate(cert))
    payload = env["payload"]
    payload["type_defs"] += [["dd0", "p -> p"]] + [[f"dd{i}", f"dd{i - 1} -> dd{i - 1}"]
                                                   for i in range(1, n)]
    payload["a_source"] = payload["a_prime"] = f"\\x1:dd{n - 1}. x1"
    return json.dumps(env)


def test_verify_matches_a_shared_source_type_once_per_node(tmp_path):
    # a verifier that walks the shared source type as a tree never ends
    # here, so run it in a child with a timeout
    cert_file = tmp_path / "tower.json"
    cert_file.write_text(_alias_tower_certificate(40))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "betaeta", "verify", str(cert_file)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_FAIL, "fail\n", "")


@pytest.mark.parametrize("kind", [["lambda-separation"], {"k": 1}, 7, 1.5, None, True])
def test_verify_rejects_a_kind_that_is_not_a_name(tmp_path, capsys, kind):
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    env = json.loads(cli.serialize_certificate(cert))
    env["kind"] = kind
    with pytest.raises(BadCertificate, match="unknown certificate kind"):
        cli.parse_certificate(json.dumps(env))
    bad = tmp_path / "kind.json"
    bad.write_text(json.dumps(env))
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err.startswith("certificate: unknown certificate kind")
    assert "Traceback" not in err


def test_type_nf_command(capsys):
    code, out, _ = run(capsys, "type-nf", "(p*p)->q")
    assert code == 0 and out.strip() == "p -> p -> q"


def test_type_nf_trace(capsys):
    code, out, _ = run(capsys, "type-nf", "(p*p)->q", "--trace")
    assert code == 0 and "curryDom" in out


def test_type_nf_trace_shows_a_huge_measure_by_bit_length(capsys):
    # the first measure has more than the 4,300 digits str() will print
    ty = "((p*p)->(p*T))->p*(p*p)"
    code, out, err = run(capsys, "type-nf", "--trace", ty)
    assert (code, err) == (0, "")
    assert "\n# prodT at dom/cod: <194553 bits> -> 217490517487340961" in out
    step = P.type_nf(S.parse_type(ty)).steps[0]
    assert repr(step).startswith("TypeStep(path=('dom', 'cod'), rule='prodT', "
                                 "before=<194553 bits>, after=217490517487340961")


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "p*T")
    assert code == 0 and "forward:" in out and "backward:" in out


def test_define_command_prints_numeral(capsys):
    code, out, _ = run(capsys, "define", "--model", "3", "--type", "p",
                       "--functional", "2", "--level", "3")
    assert code == 0
    import betaeta.syntax as S
    assert S.parse_term(out.strip()) is church(2, 3)


def test_combinator_command(capsys):
    code, out, _ = run(capsys, "combinator", "--kind", "Cond", "--level", "0")
    assert code == 0
    import betaeta.syntax as S
    from betaeta.numerals import cond
    assert S.parse_term(out.strip()) is cond(0)


def test_combinator_kinds_are_the_builders_tags(capsys):
    from betaeta.numerals import TAGS
    assert cli.COMBINATOR_KINDS == TAGS
    with pytest.raises(SystemExit) as exc:
        cli.main(["combinator", "--kind", "Bogus", "--level", "1"])
    assert exc.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: betaeta combinator [-h] --kind\n"
                          "                          {Cond,Lower,Expo,Add,Mul,Pair,")
    assert err.endswith("error: argument --kind: invalid choice: 'Bogus' (choose from "
                        f"{', '.join(map(repr, TAGS))})\n")


def test_combinator_side_condition_exit(capsys):
    code, _, err = run(capsys, "combinator", "--kind", "Check", "--level", "2",
                       "--check", "1")
    assert code == cli.EXIT_TYPE


def test_combinator_output_stays_small_at_a_high_level(capsys):
    # the binder types of cond(18) write out as about 2**21 nodes each
    code, out, err = run(capsys, "combinator", "--kind", "Cond", "--level", "18")
    assert (code, err) == (0, "")
    assert out.startswith("type ty0 = p -> p\n") and len(out) < 64 * 1024


@pytest.mark.parametrize("argv, message", [
    (("define", "--model", "1", "--type", "p", "--functional", "0", "--level", "0"),
     "model base must be at least 2"),
    (("define", "--model", "2", "--type", "(p->p)->p", "--functional", "99", "--level", "20"),
     "code 99 out of range for (p -> p) -> p"),
    (("define", "--model", "2", "--type", "p->p", "--functional", "0", "--level", "-1"),
     "level must be a natural number"),
    (("define", "--model", "2", "--type", "p", "--functional", "0", "--level", "-1"),
     "level must be a natural number"),
    # a type over two atoms, refused before kappa at any level
    (("define", "--model", "2", "--type", "p->q", "--functional", "1", "--level", "4"),
     "hierarchy types must be built over a single atom"),
    (("define", "--model", "2", "--type", "p->q", "--functional", "1", "--level", "8"),
     "hierarchy types must be built over a single atom"),
])
def test_define_refuses_a_bad_model_code_or_level(capsys, argv, message):
    assert run(capsys, *argv) == (cli.EXIT_TYPE, "", f"type error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("type-nf", "p*q", "--atom-weight", "1"),
    ("ccc", "check", "--samples", "0"),
    ("ccc", "check", "--samples", "-1"),
])
def test_usage_errors_exit_2(capsys, argv):
    # the option is gone, or its value is not a positive integer: a check
    # of no samples would pass without checking anything
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: betaeta ")


def test_ccc_check_command(capsys):
    code, out, _ = run(capsys, "ccc", "check", "--samples", "2")
    assert code == 0 and "pass" in out and "FAIL" not in out


def test_ccc_check_refuses_arrow_terms(capsys):
    # check draws its own arrows, so a given one would go unread
    code, out, err = run(capsys, "ccc", "check", "garbage((", "--samples", "1")
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("parse error: ccc check ignores the argument 'garbage(('")


def test_ccc_collapse_command(tmp_path, capsys):
    code, out, _ = run(capsys, "ccc", "collapse", "p1[p, p]", "p2[p, p]")
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "ccc-collapse"
    cert_file = tmp_path / "collapse.json"
    cert_file.write_text(out)
    assert run(capsys, "verify", str(cert_file))[0] == 0


def test_ccc_collapse_of_arrows_of_two_types_is_a_type_error(capsys):
    # the translations of the two arrows cannot be compared, and the
    # message names both arrow types
    assert run(capsys, "ccc", "collapse", "p1[p, q]", "p2[p, p]") == (
        cli.EXIT_TYPE, "", "type error: cannot compare p * q -> p with p * p -> p\n")


@pytest.mark.parametrize("argv", [
    ("separate", r"\x:p->p.\y:p. x y", r"\x:p->p.\y:p. x (x y)"),
    ("ccc", "collapse", "id[p -> p]", "curry[p -> p, p](p2[p -> p, p] . id[(p -> p) * p])"),
])
def test_max_level_refuses_before_building(capsys, monkeypatch, argv):
    # both need level 8, which is known before any defining term is built
    def unreachable(*args):
        raise AssertionError("a defining term was built")

    monkeypatch.setattr(M, "define_functional", unreachable)
    assert run(capsys, *argv, "--max-level", "7") == (
        cli.EXIT_BUDGET, "", "required level 8 exceeds --max-level 7\n")


def test_stdout_is_data_only(capsys):
    code, out, err = run(capsys, "separate", "--two-valued", r"\x:p. x", r"\y:p. y")
    assert out == ""          # diagnostics go to stderr
    assert "equal" in err


# an option may come anywhere among the terms; each command gives what it
# gives with its options first
TWO = (r"\x:p. \y:p. x", r"\x:p. \y:p. y")


def test_collapse_option_between_the_arrows(capsys):
    first = run(capsys, "ccc", "collapse", "--max-level", "7", "p1[p, p]", "p2[p, p]")
    assert first[0] == 0
    assert run(capsys, "ccc", "collapse", "p1[p, p]", "--max-level", "7", "p2[p, p]") == first


def test_separate_flag_between_the_terms(capsys):
    first = run(capsys, "separate", "--two-valued", *TWO)
    assert first[0] == 0 and json.loads(first[1])["payload"]["two_valued"] is True
    assert run(capsys, "separate", TWO[0], "--two-valued", TWO[1]) == first


def test_eq_context_between_the_terms(capsys):
    assert run(capsys, "eq", "f", "--ctx", "f:p->p", r"\x:p. f x") == (0, "equal\n", "")


@pytest.mark.parametrize("argv", [
    ("normalize", r"\x:p. c"),
    ("eq", "c", "d"),
    ("separate", *TWO, "c", "d"),
])
def test_repeated_context_options_make_one_context(capsys, argv):
    joined = run(capsys, *argv, "--ctx", "c:p, d:p")
    assert joined[0] in (0, cli.EXIT_FAIL) and joined[2] == ""
    assert run(capsys, *argv, "--ctx", "c:p", "--ctx", "d:p") == joined
    code, out, err = run(capsys, *argv, "--ctx", "c:p", "--ctx", "c:p, d:p")
    assert (code, out) == (cli.EXIT_TYPE, "") and "duplicate context entry for 'c'" in err


def test_separate_pair_file_with_targets(tmp_path, capsys):
    pair_file = tmp_path / "pair.txt"
    pair_file.write_text(TWO[0] + "\n---\n" + TWO[1] + "\n")
    inline = run(capsys, "separate", *TWO, "c", "d", "--ctx", "c:p, d:p")
    assert inline[0] == 0 and json.loads(inline[1])["payload"]["target_c"] == "c"
    assert run(capsys, "separate", "--pair-file", str(pair_file), "c", "d",
               "--ctx", "c:p, d:p") == inline
    code, out, err = run(capsys, "separate", "--pair-file", str(pair_file), "c",
                         "--ctx", "c:p")
    assert (code, out) == (cli.EXIT_PARSE, "") and "needs both c and d" in err
    code, out, err = run(capsys, "separate", "--pair-file", str(pair_file), "c", "d", "e",
                         "--ctx", "c:p, d:p")
    assert (code, out) == (cli.EXIT_PARSE, "") and "separate ignores the argument 'e'" in err


@pytest.mark.parametrize("argv, message", [
    (("eq", "--ctx", "y:p", "y"), "eq needs two terms"),
    (("separate", "--two-valued", TWO[0]), "separate needs two terms"),
    (("ccc", "collapse", "--max-level", "7", "p1[p, p]"), "collapse needs two arrow terms"),
])
def test_one_term_is_a_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_PARSE, "") and err.startswith(f"parse error: {message}")


def test_eq_refuses_a_term_beside_a_pair_file(tmp_path, capsys):
    # the file holds both terms, so a positional term would go unread
    pair_file = tmp_path / "pair.txt"
    pair_file.write_text(TWO[0] + "\n---\n" + TWO[0] + "\n")
    assert run(capsys, "eq", "--pair-file", str(pair_file)) == (0, "equal\n", "")
    code, out, err = run(capsys, "eq", "--pair-file", str(pair_file), "garbage((")
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("parse error: --pair-file ignores the argument 'garbage(('")


SWAP = (r"\x:p*p. <p1 x, p2 x>", r"\x:p*p. <p2 x, p1 x>")


@pytest.mark.parametrize("argv, message", [
    (("separate", "--two-valued", *TWO, "c", "d"), "--two-valued ignores the argument 'c'"),
    (("separate", "--product", *SWAP, "c", "d"), "--product ignores the argument 'c'"),
    (("separate", "--two-valued", "--product", *SWAP),
     "--product ignores the argument '--two-valued'"),
], ids=["two-valued with targets", "product with targets", "two-valued with product"])
def test_separate_refuses_what_its_mode_ignores(capsys, argv, message):
    # each of these used to drop the named argument and exit 0
    code, out, err = run(capsys, *argv, "--ctx", "c:p, d:p")
    assert (code, out) == (cli.EXIT_PARSE, "") and err.startswith(f"parse error: {message}")


ONE_TWO = ("\\x:p->p. \\y:p. x y", "\\x:p->p. \\y:p. x (x y)")


def test_max_base_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("BETAETA_MAX_BASE", "x")
    with pytest.raises(SystemExit) as exc:
        cli.main(["separate", *ONE_TWO])
    assert exc.value.code == 2
    assert "argument --max-base: invalid int value: 'x'" in capsys.readouterr().err
    # a command without the option does not read the variable
    assert run(capsys, "eq", "k", "k") == (0, "equal\n", "")


def test_max_level_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("BETAETA_MAX_LEVEL", "x")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ccc", "collapse", "p1[p, p]", "p2[p, p]"])
    assert exc.value.code == 2
    assert "argument --max-level: invalid int value: 'x'" in capsys.readouterr().err
    monkeypatch.setenv("BETAETA_MAX_LEVEL", "7")
    assert run(capsys, "separate", *ONE_TWO) == (
        cli.EXIT_BUDGET, "", "required level 8 exceeds --max-level 7\n")


def test_mem_budget_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("BETAETA_MEM_BUDGET", "1e6")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eq", "k", "k"])
    assert exc.value.code == 2
    assert "argument --mem-budget: invalid int value: '1e6'" in capsys.readouterr().err


def test_deep_term_exits_with_budget_code(tmp_path):
    # a deep recursion could take the test process down, so run a child.
    # Term and type text of any depth parses; comparing two terms that
    # differ only 60,000 applications down outruns the recursive evaluator
    def deep(n):
        return "\\f:p->p. \\x:p. " + "f (" * n + "x" + ")" * n

    pair_file = tmp_path / "deep.pair"
    pair_file.write_text(deep(60_000) + "\n---\n" + deep(59_999) + "\n")
    deep_type = "(" * 40_000 + "p" + ")" * 40_000
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv, code, out, err in (
            (["eq", "--pair-file", str(pair_file)], cli.EXIT_BUDGET, "",
             "budget: term too deep for the recursive evaluator"),
            (["eq", "y", "y", "--ctx", f"y:{deep_type}"], 0, "equal\n", "")):
        proc = subprocess.run([sys.executable, "-m", "betaeta", *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr.strip()) == (code, out, err)


def test_a_deep_arrow_exits_with_the_parse_code():
    # an arrow nested past the reader's recursion is a parse error, exit 2,
    # not a budget refusal from the evaluator, which never runs
    deep = "(" * 40_000 + "id[p]" + ")" * 40_000
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "betaeta", "ccc", "collapse", deep, "id[p]"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr.strip()) == (
        cli.EXIT_PARSE, "", "parse error: arrow term nested too deeply (at position 40000)")


def test_a_deeply_nested_certificate_is_refused_as_not_json(tmp_path):
    # json.loads recurses in C once per bracket, so 70,000 of them crashed
    # the interpreter (exit 139) before any Python recursion limit; a
    # child runs it, since a crash would take the test process down
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 70_000 + "]" * 70_000 + "\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "betaeta", "verify", str(deep)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr.strip()) == (
        cli.EXIT_FAIL, "", "certificate: not JSON: nested more than 10000 deep")


def test_a_deep_compose_chain_in_a_certificate_ends_with_an_exit_code(tmp_path):
    # f is p1[p, p] behind 30,000 compositions with id[p]: its translation
    # to a lambda term once recursed from inside each lams body, whose
    # unpacked call takes C stack on Python 3.11, and crashed (exit 139).
    # Now 3.11 replays it and fails, exit 1; 3.10's arrow reader refuses
    # the nesting, exit 2.  A child runs it, as a crash would take the
    # test process down
    p = S.atom("p")
    cert = json.loads(certio.serialize_certificate(C.collapse(C.AProj(1, p, p), C.AProj(2, p, p))))
    cert["payload"]["f"] = "id[p] . " * 30_000 + "p1[p, p]"
    path = tmp_path / "deep_compose.json"
    path.write_text(json.dumps(cert))
    out = run_in_child(
        "import contextlib, io\n"
        "from betaeta import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    code = cli.main(['verify', {str(path)!r}])\n"
        "print(code, err.getvalue().strip())\n", timeout=300)
    if sys.version_info >= (3, 11):
        assert out == f"fail\n{cli.EXIT_FAIL} \n"
    else:
        assert out == f"{cli.EXIT_PARSE} parse error: arrow term nested too deeply (at position 0)\n"


@pytest.mark.parametrize("level", [
    "[" * 9_900 + "]" * 9_900,  # under the nesting limit on Python 3.10 as well
    "[" + ", ".join(["0"] * 50_000) + "]",
], ids=["deep", "long"])
def test_a_misfit_field_is_shown_in_bounded_text(tmp_path, level):
    # the message names the field and its shape and shows the start of
    # the value; the whole value made a stderr line of some 20-150 KB
    cert = Sep.separate_two(S.parse_term("\\x:p->p.\\y:p. x y"),
                            S.parse_term("\\x:p->p.\\y:p. x (x y)"))
    text, n = re.subn(r'"level": \d+', '"level": ' + level, cli.serialize_certificate(cert))
    assert n == 1
    path = tmp_path / "cert.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "betaeta", "verify", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_FAIL, "")
    assert "'level' must be int, not " + level[:20] in proc.stderr
    assert len(proc.stderr.encode()) < 4096


def test_a_free_x_name_leaves_the_binder_names_distinct(tmp_path, capsys):
    # x2 is free, so the binders print as x1, x3 and x4; before, the third
    # binder was x3 again and both sources printed as the same text
    ctx = ("--ctx", "x2:p->p->p")
    code, text, _ = run(capsys, "separate", "--two-valued", *ctx,
                        "\\a:p. \\b:p. \\c:p. x2 b c", "\\a:p. \\b:p. \\c:p. x2 c b")
    assert code == 0
    assert json.loads(text)["payload"]["a_source"] == "\\x1:p. \\x3:p. \\x4:p. x2 x3 x4"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(text)
    assert run(capsys, "verify", str(cert_file))[:2] == (0, "pass\n")


WRITER_VALUES = [
    [], {}, [[]], [{}], {"a": []}, [["x1", "p"], ["ty0", "p -> p"]], [[1, [2, []]], {"k": {}}],
    True, False, [True, False], 0, -1, -(2 ** 70), 2 ** 64 + 1, "", '"quoted"', "back\\slash",
    "\x00\x01\x1f\t\n\r\b\f\x7f", "\u00e9", "\u03bbx:p. x", "\U0001d4ab",
    {"b": [True, 0], "a": "x", "\u00e9": -5, "": [], "B": {"z": 1, "a": [""]}},
]


@pytest.mark.parametrize("value", WRITER_VALUES)
def test_the_certificate_writer_writes_the_bytes_of_json_dumps(value):
    assert certio._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, None, (1,), {1: "a"}, b"x", [1, None], {"a": {"b": 0.5}}])
def test_the_certificate_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        certio._json(value, "\n")


# sha256 of the canonical bytes; any change to alias-table order, binder
# naming or free-variable order shows up here
GOLDEN_CERTIFICATES = {
    "worked pair": (15_909, "bd3236621ecf8c50145d6a476a1ea72643d5b76fcec6a8064b4a1c6a7e2503b4"),
    "product swap": (2_339, "ba728d4870fe0ac0b63f0d338d6f7323fe456404a95913d02eb96f86d030db4f"),
    "projection collapse": (2_288, "bafd10af7ca42196f44a097f9850da7e0608bcd712a62f73ba08a3f93040ac11"),
}


def test_certificate_bytes_are_pinned():
    import hashlib
    import betaeta.syntax as S
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    certs = {
        "worked pair": Sep.separate_two(a, b),
        "product swap": P.separate_prod(S.parse_term("\\x:p*p. x"),
                                        S.parse_term("\\x:p*p. <p2 x, p1 x>")),
        "projection collapse": C.collapse(C.parse_arrow("p1[p, p]"), C.parse_arrow("p2[p, p]")),
    }
    for label, cert in certs.items():
        data = cli.serialize_certificate(cert).encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_CERTIFICATES[label], label


def test_repeated_work_grows_nothing():
    """A process that repeats a certificate's round trip keeps nothing
    more the second time and writes the same bytes."""
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")

    def round_trip():
        text = cli.serialize_certificate(Sep.separate_two(a, b))
        assert cli.verify_certificate(cli.parse_certificate(text))
        return text

    first = round_trip()
    sizes, nodes = memo_sizes(), S.interned_term_count()
    # the numeral builders' tables are memo tables too, and the worked
    # pair's defining terms fill them
    assert {"betaeta.numerals.church", "betaeta.numerals.check"} <= {
        name for name, n in sizes.items() if name.startswith("betaeta.numerals.") and n}
    assert round_trip() == first
    assert (memo_sizes(), S.interned_term_count()) == (sizes, nodes)


def _verify_envelope(tmp_path, capsys, env):
    """``betaeta verify`` on the envelope ``env``: exit code, stdout and
    stderr; a raw exception out of ``main`` fails the test."""
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(env))
    code, out, err = run(capsys, "verify", str(cert_file))
    assert "Traceback" not in err
    return code, out, err


def _product_envelope():
    import betaeta.syntax as S
    cert = P.separate_prod(S.parse_term("\\x:p*p. <p1 x, p2 x>"),
                           S.parse_term("\\x:p*p. <p2 x, p1 x>"))
    return json.loads(cli.serialize_certificate(cert))


def _collapse_envelope():
    cert = C.collapse(C.parse_arrow("p1[p, p]"), C.parse_arrow("p2[p, p]"))
    return json.loads(cli.serialize_certificate(cert))


@pytest.mark.parametrize("value", ["0", 1.5, None, [1], True])
@pytest.mark.parametrize("field", ["component", "n_components"])
def test_verify_rejects_a_component_field_that_is_not_an_int(tmp_path, capsys, field, value):
    product, collapse = _product_envelope(), _collapse_envelope()
    product["payload"][field] = value
    collapse["payload"]["separation"][field] = value
    for env in (product, collapse):
        code, out, err = _verify_envelope(tmp_path, capsys, env)
        assert (code, out) == (cli.EXIT_FAIL, "")
        assert err.startswith("certificate: ") and f"'{field}' must be int" in err


@pytest.mark.parametrize("field", [
    "f", "g", "derived_lhs", "derived_rhs", "schema_rule", "iso_forward", "a_source",
    "b_source", "a_prime", "b_prime", "target_c", "target_d",
])
def test_verify_rejects_a_text_field_that_is_not_a_string(tmp_path, capsys, field):
    # at each level of a collapse certificate that has the field: the
    # collapse payload, its product separation, and that one's inner
    # separation
    levels = lambda env: [env["payload"], env["payload"]["separation"],
                          env["payload"]["separation"]["inner"]]
    found = [k for k, payload in enumerate(levels(_collapse_envelope())) if field in payload]
    assert found
    for k in found:
        env = _collapse_envelope()
        levels(env)[k][field] = 5
        code, out, err = _verify_envelope(tmp_path, capsys, env)
        assert (code, out) == (cli.EXIT_FAIL, "")
        assert err.startswith("certificate: malformed ") and f"'{field}' must be str" in err


@pytest.mark.parametrize("value", [True, 1.0, "1", None, [1]])
def test_verify_rejects_a_schema_that_is_not_an_int(tmp_path, capsys, value):
    env = _product_envelope()
    env["schema"] = value
    code, out, err = _verify_envelope(tmp_path, capsys, env)
    assert (code, out) == (cli.EXIT_SCHEMA, "")
    assert err.startswith("unsupported schema version")


@pytest.mark.parametrize("value", [1, 0, "true", None, []])
def test_verify_rejects_a_two_valued_that_is_not_a_bool(tmp_path, capsys, value):
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    env = json.loads(cli.serialize_certificate(cert))
    env["payload"]["two_valued"] = value
    code, out, err = _verify_envelope(tmp_path, capsys, env)
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err.startswith("certificate: ") and "'two_valued' must be bool" in err


@pytest.mark.parametrize("value", ["nonsense", 5, "", None])
def test_verify_rejects_a_tampered_schema_rule(tmp_path, capsys, value):
    env = _collapse_envelope()
    assert _verify_envelope(tmp_path, capsys, env)[:2] == (0, "pass\n")
    env["payload"]["schema_rule"] = value
    # a string that names no rule fails the replay; a value of another
    # type is refused as it is read, like any other text field
    want = "fail\n" if type(value) is str else ""
    code, out, err = _verify_envelope(tmp_path, capsys, env)
    assert (code, out) == (cli.EXIT_FAIL, want)
    assert want or "'schema_rule' must be str" in err


# each field is decoded at its documented JSON type, also one the
# verifier does not replay, so a tampered one is refused, not carried
# along, and a string is never read as a list of its characters
@pytest.mark.parametrize("field, value, message", [
    ("base", "2", "'base' must be int"),
    ("base", True, "'base' must be int"),
    ("model_args", [["p", "x"]], "'model_args' must be [(str, int)]"),
    ("model_args", [["p"]], "'model_args' must be [(str, int)]"),
    ("relabeling", {"a": 1}, "'relabeling' must be [int]"),
    ("kappa_values", "12", "'kappa_values' must be [int]"),
    ("head_args", "k", "'head_args' must be [str]"),
    ("type_defs", "ab", "'type_defs' must be [(str, str)]"),
    ("bound_vars", [["x", 1]], "'bound_vars' must be [(str, str)]"),
    ("source_ctx", ["xp"], "'source_ctx' must be [(str, str)]"),
    ("target_ctx", "", "'target_ctx' must be [(str, str)]"),
    ("a_source", 5, "malformed separation payload"),
    ("target_c", None, "malformed separation payload"),
])
def test_verify_rejects_a_source_field_of_the_wrong_type(tmp_path, capsys, field, value, message):
    cert = Sep.separate_two(church(1, 0), church(2, 0))
    env = json.loads(cli.serialize_certificate(cert))
    assert _verify_envelope(tmp_path, capsys, env)[:2] == (0, "pass\n")
    env["payload"][field] = value
    code, out, err = _verify_envelope(tmp_path, capsys, env)
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err.startswith("certificate: ") and message in err


def test_an_ill_typed_head_argument_is_reported_in_bounded_text(tmp_path, capsys):
    # the defining head argument of the level-20 worked-pair certificate
    # replaced by the unit: the domain it fails to match is a numeral type
    # that takes some 200 MB written out, so the message names it by its
    # shared nodes
    a = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. y")
    b = S.parse_term("\\x:(p->p)->p. x \\y:p. x \\z:p. z")
    env = json.loads(cli.serialize_certificate(Sep.separate_two(a, b)))
    env["payload"]["head_args"][0] = "k"
    code, out, err = _verify_envelope(tmp_path, capsys, env)
    assert (code, out) == (cli.EXIT_TYPE, "")
    assert err.startswith("type error: argument type T does not match domain <type #")
    assert len(err.encode()) < 4096
