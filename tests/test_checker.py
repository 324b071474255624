"""The checker stands apart from the producers: it imports only the
syntax, the normalizer and the errors, so a reader who replays a
certificate trusts none of the code that built it.  Importing the checker
runs the package's ``__init__``, which imports every module, so this is
read off the source, not off ``sys.modules``."""

import ast
import os

import betaeta

PACKAGE = os.path.dirname(betaeta.__file__)


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


def test_no_module_imports_a_private_name():
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            for module, names in _package_imports(filename):
                private = [n for n in names if n.startswith("_") and not n.startswith("__")]
                assert not private, f"{filename} imports {private} from {module or '.'}"
