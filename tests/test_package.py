"""The package imports each module on first use, and keeps every public
name and submodule it had when it imported them all at once."""

import importlib
import os
import re

import pytest

import betaeta

# each module, with the public names the package took from it
EXPORTS = {
    "syntax": "Context Term Ty app apps arrow atom bind elaborate free lam numeral_type pair"
              " parse parse_term parse_type prod proj1 proj2 show_term show_type"
              " substitute_term substitute_types tower_type type_of TERMINAL UNIT",
    "normalize": "beta_eta_nf beta_nf decide_eq long_nf NormalForm",
    "numerals": "CombinatorKind church combinator lowering_pair",
    "hierarchy": "Functional PModel kappa",
    "models": "define_functional distinguish i_defines_check",
    "checker": "ArrowTerm CollapseCertificate ProductCertificate SeparationCertificate"
               " decide_ccc_eq projector replay_collapse show_arrow to_lambda verify"
               " verify_product",
    "separator": "separate separate_two",
    "products": "IsoWitness build_iso differing_component measure separate_prod split type_nf",
    "ccc": "arrow_type_of check_axioms collapse parse_arrow",
}
SUBMODULES = ("syntax", "normalize", "numerals", "hierarchy", "models", "checker", "separator",
              "products", "ccc", "errors", "certio", "cli")


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_public_name_is_its_module_s_object(module):
    home = importlib.import_module(f"betaeta.{module}")
    for name in EXPORTS[module].split():
        assert getattr(betaeta, name) is getattr(home, name), name


def test_each_submodule_is_an_attribute():
    for name in SUBMODULES:
        assert getattr(betaeta, name) is importlib.import_module(f"betaeta.{name}")


def test_star_import_gives_the_public_names():
    names = {}
    exec("from betaeta import *", names)
    assert {n for n in names if n != "__builtins__"} == {
        name for names in EXPORTS.values() for name in names.split()}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        betaeta.nope
    with pytest.raises(ImportError):
        exec("from betaeta import nope", {})


def test_the_readme_library_snippet_runs():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(betaeta.__file__))))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(snippet, {})
