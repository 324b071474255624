"""The checker and the certificate text stand apart from the producers:
``checker`` imports only the syntax, the normalizer and the errors, and
``certio`` only those and the checker, so a reader who replays a
certificate trusts none of the code that built it; ``hierarchy``, the
finite-model evaluator, imports only the syntax and the errors.  The rule
is read off the source, and off ``sys.modules`` in a fresh process that
decodes and replays certificates, since the package imports a module on
first use."""

import ast
import os

import pytest

import betaeta
from betaeta import syntax as S

from conftest import run_in_child

PACKAGE = os.path.dirname(betaeta.__file__)
PRODUCERS = {f"betaeta.{name}" for name in ("models", "numerals", "separator", "products", "ccc")}


def _package_imports(filename):
    """(module, imported names) for each import of a package module in
    ``filename``: ``from .syntax import Term`` gives ("syntax", ["Term"])
    and ``from . import normalize`` gives ("normalize", [])."""
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is None and node.level:
            yield from ((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("betaeta")):
            yield node.module.removeprefix("betaeta.").removeprefix("betaeta"), [
                alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            yield from ((alias.name.removeprefix("betaeta."), []) for alias in node.names
                        if alias.name.startswith("betaeta"))


def test_the_checker_imports_only_syntax_normalize_and_errors():
    modules = {module for module, _ in _package_imports("checker.py")}
    assert modules == {"errors", "syntax", "normalize"}


def test_the_hierarchy_imports_only_syntax_and_errors():
    # so the checker may re-evaluate a model witness without a producer
    modules = {module for module, _ in _package_imports("hierarchy.py")}
    assert modules == {"errors", "syntax"}
    out = run_in_child("import sys\nimport betaeta.hierarchy\nprint(*sys.modules)\n")
    assert _loaded(out) == {"betaeta", "betaeta.errors", "betaeta.hierarchy", "betaeta.syntax"}


def test_certificate_io_imports_only_syntax_errors_the_checker_and_the_version():
    modules = {module for module, _ in _package_imports("certio.py")}
    assert modules == {"errors", "syntax", "checker", "__version__"}


def test_no_module_imports_a_private_name():
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            for module, names in _package_imports(filename):
                private = [n for n in names if n.startswith("_") and not n.startswith("__")]
                assert not private, f"{filename} imports {private} from {module or '.'}"


@pytest.fixture(scope="module")
def certificate_paths(tmp_path_factory):
    """The README's two-valued, product and collapse certificates, in files."""
    from betaeta import ccc as C, certio, products as P, separator as Sep
    pair = lambda a, b: (S.parse_term(a), S.parse_term(b))
    certs = (Sep.separate_two(*pair(r"\x:p->p.\y:p. x y", r"\x:p->p.\y:p. x (x y)")),
             P.separate_prod(*pair(r"\x:p*p. <p1 x, p2 x>", r"\x:p*p. <p2 x, p1 x>")),
             C.collapse(C.parse_arrow("p1[p, p]"), C.parse_arrow("p2[p, p]")))
    folder = tmp_path_factory.mktemp("certificates")
    paths = [folder / f"{i}.json" for i in range(len(certs))]
    for path, cert in zip(paths, certs):
        path.write_text(certio.serialize_certificate(cert), encoding="utf-8")
    return [str(path) for path in paths]


def _loaded(lines: str) -> set[str]:
    return {name for name in lines.split() if name.startswith("betaeta")}


def test_decoding_and_replaying_loads_no_producer(certificate_paths):
    out = run_in_child(
        "import sys\n"
        "from betaeta import certio, checker\n"
        "replays = (checker.verify, checker.verify_product, checker.replay_collapse)\n"
        f"for path, replay in zip({certificate_paths!r}, replays):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        assert replay(certio.parse_certificate(fh.read()))\n"
        "print(*sys.modules)\n")
    assert _loaded(out) == {"betaeta", "betaeta.certio", "betaeta.checker", "betaeta.errors",
                            "betaeta.normalize", "betaeta.syntax"}
    assert not _loaded(out) & PRODUCERS
    # no class on this path is a dataclass, whose import and generated
    # methods cost a fresh process milliseconds
    assert "dataclasses" not in out.split()


def test_the_verify_command_loads_no_producer(certificate_paths):
    # then eq, normalize and separate --two-valued run in the same process,
    # and none of these commands loads dataclasses
    out = run_in_child(
        "import sys\n"
        "from betaeta import cli\n"
        f"for path in {certificate_paths!r}:\n"
        "    assert cli.main(['verify', path]) == 0\n"
        "print(*sys.modules)\n"
        "assert cli.main(['eq', r'\\x:p. x', r'\\y:p. y']) == 0\n"
        "assert cli.main(['normalize', r'(\\x:p. x) y', '--ctx', 'y:p']) == 0\n"
        "assert cli.main(['separate', '--two-valued', r'\\x:p.\\y:p. x', r'\\x:p.\\y:p. y']) == 0\n"
        "print('dataclasses' in sys.modules)\n").splitlines()
    assert out[:3] == ["pass"] * 3
    assert "betaeta.cli" in _loaded(out[3])
    assert not _loaded(out[3]) & PRODUCERS
    assert "dataclasses" not in out[3].split()
    assert out[-1] == "False"


def test_no_command_loads_dataclasses():
    # the product, type normal form, isomorphism and collapse commands run
    # the producers, whose records are syntax.Records too
    out = run_in_child(
        "import sys\n"
        "from betaeta import cli\n"
        "for args in (['separate', '--product', r'\\x:p*p. <p1 x, p2 x>',\n"
        "              r'\\x:p*p. <p2 x, p1 x>'],\n"
        "             ['type-nf', '(p*p)->q', '--trace'], ['iso', 'p*T'],\n"
        "             ['ccc', 'collapse', 'p1[p, p]', 'p2[p, p]']):\n"
        "    assert cli.main(args) == 0, args\n"
        "print('dataclasses' in sys.modules)\n").splitlines()
    assert out[-1] == "False"


def test_importing_the_cli_loads_no_producer():
    out = run_in_child("import sys\nfrom betaeta import cli\nprint(*sys.modules)\n")
    assert "betaeta.cli" in _loaded(out)
    assert not _loaded(out) & PRODUCERS
    assert "dataclasses" not in out.split()


def test_equal_arrows_are_one_object():
    from betaeta.checker import ABang, ACompose, AId, AProj
    p = S.atom("p")
    assert AProj(1, p, p) is AProj(1, p, p)
    assert AProj(1, p, p) != AProj(2, p, p)
    assert AId(p) != ABang(p)
    assert ACompose(AId(p), AId(p)) is ACompose(AId(p), AId(p))


def test_an_arrow_field_cannot_be_assigned():
    from betaeta.checker import AProj
    p, q = S.atom("p"), S.atom("q")
    f = AProj(1, p, p)
    with pytest.raises(AttributeError):
        f.a = q
    with pytest.raises(AttributeError):
        del f.which
    assert (f.which, f.a, f.b) == (1, p, p)


def test_an_arrow_needs_all_of_its_fields():
    from betaeta.checker import AId, AProj
    p = S.atom("p")
    with pytest.raises(TypeError):
        AProj(1, p)
    with pytest.raises(TypeError):
        AId(p, p)
