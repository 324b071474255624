"""Shared random generators for property-style tests, and a small-scope
corpus.

Closed product-free terms are grown type-directedly: arrows introduce a
binder, atoms apply a variable from scope to recursively generated
arguments.  Types for the product machinery mix atoms, the terminal
type, arrows and products under a node budget.  The corpus lists every
closed eta-long normal form of a type up to a number of variable
occurrences, and runs each unequal pair through the separation.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from betaeta import checker, cli
from betaeta import hierarchy as H
from betaeta import models as M
from betaeta import separator as Sep
from betaeta import syntax as S
from betaeta.errors import BetaEtaError
from betaeta.syntax import Term, Ty, TyArrow, TyAtom


def gen_closed_term(ty: Ty, rng: random.Random, fuel: int = 3) -> Term:
    """A random closed term of the given product-free type."""

    def go(ty, scope, fuel):
        # scope: (handle, type) of each binder around the term being grown
        if isinstance(ty, TyArrow):
            return S.lams(ty.dom, lambda v: go(ty.cod, scope + [(v, ty.dom)], fuel))
        # atom: apply a variable in scope whose final result is this atom
        # through all its arguments; out of fuel, prefer one with none
        candidates = [v for v in scope if S.split_arrows(v[1])[1] is ty]
        if fuel <= 0:
            candidates = [v for v in candidates if v[1] is ty] or candidates
        head, head_ty = rng.choice(candidates)
        args, _ = S.split_arrows(head_ty)
        out = head()
        for aty in args:
            out = S.app(out, go(aty, scope, fuel - 1))
        return out

    return go(ty, [], fuel)


def long_normal_forms(ty: Ty, max_occurrences: int) -> list[Term]:
    """Every closed eta-long beta-normal term of the product-free type
    ``ty`` with at most ``max_occurrences`` variable occurrences: fewer
    occurrences first, then the innermost head variable first, then the
    arguments' own order, left to right.  Distinct terms are never equal
    (a small-scope corpus in the manner of SmallCheck)."""

    def forms(ty, scope, n):
        # the forms at ``ty`` with exactly ``n`` occurrences, under binders
        # of the types in ``scope``, innermost last
        if isinstance(ty, TyArrow):
            return [S.lam(ty.dom, body) for body in forms(ty.cod, scope + (ty.dom,), n)]
        out = []
        for index, head_ty in enumerate(reversed(scope)):
            arg_tys, result = S.split_arrows(head_ty)
            if result is ty:
                out.extend(S.apps(S.var(index, head_ty), *args)
                           for args in spread(arg_tys, scope, n - 1))
        return out

    def spread(tys, scope, n):
        # the tuples of forms at ``tys`` with ``n`` occurrences in all
        if not tys:
            return [()] if n == 0 else []
        return [(first, *rest) for k in range(1, n - len(tys) + 2)
                for first in forms(tys[0], scope, k)
                for rest in spread(tys[1:], scope, n - k)]

    return [t for n in range(1, max_occurrences + 1) for t in forms(ty, (), n)]


def separate_every_pair(forms: list[Term], max_level: int = 24) -> tuple[list, str]:
    """Each pair of ``forms``, the earlier first, through ``separate_two``,
    its certificate serialized, parsed back and verified.  Returns each
    pair's outcome, its level or ``"Class: message"`` of a refusal, and
    the sha256 of the model witnesses in order, each ``[base, [[type,
    code], ...], relabeling]`` or None."""
    outcomes, witnesses = [], []
    for i, a in enumerate(forms):
        for b in forms[i + 1:]:
            try:
                cert = Sep.separate_two(a, b, max_level=max_level)
            except BetaEtaError as e:
                outcomes.append(f"{type(e).__name__}: {e}")
                witnesses.append(None)
                continue
            assert checker.verify(cli.parse_certificate(cli.serialize_certificate(cert)))
            outcomes.append(cert.level)
            witnesses.append([cert.base, [[S.show_type(ty), code] for ty, code in cert.model_args],
                              cert.relabeling])
    return outcomes, hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()


def random_mixed_type(rng: random.Random, max_nodes: int = 30) -> Ty:
    """A random type over atoms, the terminal type, arrows and products."""

    def go(budget):
        if budget <= 2 or rng.random() < 0.35:
            return S.TERMINAL if rng.random() < 0.2 else S.atom(rng.choice("pqr"))
        left_budget = rng.randint(1, budget - 2)
        left = go(left_budget)
        right = go(budget - 1 - left_budget)
        return S.arrow(left, right) if rng.random() < 0.55 else S.prod(left, right)

    return go(rng.randint(2, max_nodes))


def run_in_child(code: str, timeout: float = 60) -> str:
    """Run ``code`` in a fresh interpreter with ``betaeta`` importable and
    return its stdout; a walk that never ends fails by the timeout here
    instead of hanging the suite."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=timeout)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def log_calls(monkeypatch, *targets):
    """Route each ``(module, name)`` through a wrapper that appends
    ``"module.name"`` to the returned list before it calls the original."""
    calls = []
    for module, name in targets:
        def wrapper(*args, real=getattr(module, name),
                    tag=f"{module.__name__.rsplit('.', 1)[1]}.{name}"):
            calls.append(tag)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def memo_sizes() -> dict[str, int]:
    """The number of entries in each ``syntax.memo`` table, by builder."""
    return {name: len(table) for name, table in S._MEMOS.items()}


def from_table(model: M.PModel, ty: TyArrow, digits: list[int]) -> M.Functional:
    """The element of ``ty`` whose table of outputs is ``digits``."""
    return M.Functional(model, ty, H._pack(digits, model.card(ty.cod)))


def min_check_level(phi: M.Functional) -> int:
    """A level high enough to run i_defines_check on ``phi`` with full
    recursion depth."""
    level = M.kappa(phi)
    if isinstance(phi.ty, TyArrow):
        for psi in phi.model.enum(phi.ty.dom):
            level = max(level, min_check_level(psi), min_check_level(phi(psi)))
    return level


def type_order(ty: Ty) -> int:
    """Arrow-nesting depth; bounds the recursion needed by the check."""
    order: dict[int, int] = {}
    for t in S.subtypes(ty):  # children first
        order[t.uid] = (max(order[t.dom.uid] + 1, order[t.cod.uid])
                        if type(t) is TyArrow else 0)
    return order[ty.uid]


@pytest.fixture
def rng():
    return random.Random(20240817)


P = S.atom("p")

PRODUCT_FREE_ROSTER = (
    S.arrows(P, P, P),
    S.arrows(S.arrow(P, P), P, P),
    S.arrows(S.arrow(P, P), S.arrow(P, P), P, P),
    S.arrows(P, S.arrow(P, P), P),
)
