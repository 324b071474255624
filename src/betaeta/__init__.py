"""Workbench for the simply typed lambda calculus with products and a
terminal type: provable equality, finite-hierarchy models, separating
contexts, and the collapse of cartesian closed structure extended with
any unprovable equation."""

__version__ = "0.1.0"

from .syntax import (  # noqa: F401
    Context, Term, Ty,
    app, apps, arrow, atom, bind, elaborate, free, lam, numeral_type,
    pair, parse, parse_term, parse_type, prod, proj1, proj2, show_term,
    show_type, substitute_term, substitute_types, tower_type, type_of,
    TERMINAL, UNIT,
)
from .normalize import beta_eta_nf, beta_nf, decide_eq, long_nf, NormalForm  # noqa: F401
from .numerals import CombinatorKind, church, combinator, lowering_pair  # noqa: F401
from .models import (  # noqa: F401
    Functional, PModel, define_functional, distinguish, i_defines_check, kappa,
)
from .checker import (  # noqa: F401
    ArrowTerm, CollapseCertificate, ProductCertificate, SeparationCertificate,
    decide_ccc_eq, projector, replay_collapse, show_arrow, to_lambda, verify, verify_product,
)
from .separator import separate, separate_two  # noqa: F401
from .products import (  # noqa: F401
    IsoWitness, build_iso, differing_component, measure, separate_prod, split, type_nf,
)
from .ccc import arrow_type_of, check_axioms, collapse, parse_arrow  # noqa: F401
