"""The checker and the certificate text stand apart from the producers:
``checker`` imports only the syntax, the normalizer and the errors, and
``certio`` only those and the checker, so a reader who replays a
certificate trusts none of the code that built it.  The rule is read off
the source, and off ``sys.modules`` in a fresh process that decodes and
replays certificates, since the package imports a module on first use."""

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


def test_the_verify_command_loads_no_producer(certificate_paths):
    # numerals may load: the combinator command draws its choices from it
    out = run_in_child(
        "import sys\n"
        "from betaeta import cli\n"
        f"for path in {certificate_paths!r}:\n"
        "    assert cli.main(['verify', path]) == 0\n"
        "print(*sys.modules)\n").splitlines()
    assert out[:-1] == ["pass"] * 3
    assert "betaeta.cli" in _loaded(out[-1])
    assert not _loaded(out[-1]) & (PRODUCERS - {"betaeta.numerals"})
