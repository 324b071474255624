"""Workbench for the simply typed lambda calculus with products and a
terminal type: provable equality, finite-hierarchy models, separating
contexts, and the collapse of cartesian closed structure extended with
any unprovable equation.  Each module is imported on first use (PEP 562),
so a process that only verifies certificates loads no producer."""

import sys

__version__ = "0.1.0"

# module -> the public names it defines
_NAMES = {
    "syntax": "Context Term Ty app apps arrow atom bind elaborate free lam numeral_type pair"
              " parse parse_term parse_type prod proj1 proj2 show_term show_type"
              " substitute_term substitute_types tower_type type_of TERMINAL UNIT",
    "normalize": "beta_eta_nf beta_nf decide_eq long_nf NormalForm",
    "numerals": "CombinatorKind church combinator lowering_pair",
    "hierarchy": "Functional PModel kappa",
    "models": "define_functional distinguish i_defines_check",
    "checker": "ArrowTerm CollapseCertificate ProductCertificate SeparationCertificate"
               " decide_ccc_eq parse_arrow projector replay_collapse show_arrow to_lambda"
               " verify verify_product",
    "separator": "separate separate_two",
    "products": "IsoWitness build_iso differing_component measure separate_prod split type_nf",
    "ccc": "arrow_type_of check_axioms collapse",
    "errors": "", "certio": "", "cli": "",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin import, which -X importtime reports and importlib's does not
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if name in _NAMES else getattr(module, name)
