"""Command-line front end.  Certificate text is read and written by
``certio`` and replayed by ``checker``; a producer module is imported
only by the command that runs it, so neither ``betaeta verify`` nor
importing this module loads any.

Exit codes: 0 success (for ``eq``: equal), 1 failed check or unequal
pair, 2 parse error, 3 type error, 4 separation of a provably equal
pair, 5 search or resource budget exceeded, 6 unsupported certificate
schema version.  A refusal's code and stderr label are its error class's
(see ``errors``), and a run's node and step budgets end with the run.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certio import parse_certificate, serialize_certificate
from .checker import (
    ProductCertificate, SeparationCertificate, replay_collapse, verify, verify_product,
)
from . import syntax as S
from .errors import (
    BadCertificate, BetaEtaError, EqualTerms, IllTyped, Overflow, ParseError,
    UnsupportedSchema, not_too_deep,
)
from .normalize import beta_eta_nf, decide_eq, long_nf, set_work_budget

EXIT_FAIL, EXIT_PARSE, EXIT_TYPE, EXIT_EQUAL, EXIT_BUDGET, EXIT_SCHEMA = (
    family.exit_code
    for family in (BetaEtaError, ParseError, IllTyped, EqualTerms, Overflow, UnsupportedSchema))


# ---------------------------------------------------------------------------
# Replay

def verify_certificate(cert) -> bool:
    # the replays are called through this module's names, where a wrapper
    # that traces this module's calls finds them
    if isinstance(cert, SeparationCertificate):
        return verify(cert)
    if isinstance(cert, ProductCertificate):
        return verify_product(cert)
    return replay_collapse(cert)


# ---------------------------------------------------------------------------
# Argument helpers

def _parse_ctx(texts: list[str] | None) -> S.Context:
    """One context from the entries of every ``--ctx`` given."""
    ctx = S.Context()
    for entry in ",".join(texts or ()).split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, tytext = entry.partition(":")
        if not tytext:
            raise ParseError(f"context entry '{entry}' needs name:type", 0)
        ctx.add(name.strip(), S.parse_type(tytext.strip()))
    return ctx


def _positive_int(text: str) -> int:
    """An option value that must be an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: '{text}'")
    return int(text)


def _read_pair_file(path: str) -> tuple[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"pair file is not UTF-8: {exc.reason}", exc.start) from exc
    if "---" not in lines:
        raise ParseError("pair file needs two terms separated by a '---' line", 0)
    cut = lines.index("---")
    return "\n".join(lines[:cut]).strip(), "\n".join(lines[cut + 1:]).strip()


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _diag(text: str):
    sys.stderr.write(text + "\n")


def _emit_term(term, label: str = ""):
    """Print a term, switching to a shared type-alias preamble once the
    annotations get big enough that inline rendering would blow up."""
    if not S.fits_inline(term):
        defs, names = S.type_alias_table([term])
        for name, body in defs:
            _emit(f"type {name} = {body}")
        _emit(f"{label}{S.show_term(term, names)}")
    else:
        _emit(f"{label}{S.show_term(term)}")


# ---------------------------------------------------------------------------
# Commands

def cmd_normalize(args) -> int:
    ctx = _parse_ctx(args.ctx)
    term = S.parse_term(args.term, ctx)
    nf = long_nf(term) if args.long else beta_eta_nf(term)
    _emit_term(nf.term)
    return 0


def _read_terms(args, command: str, *given) -> list[str]:
    """The two terms, from ``--pair-file`` or else the first positionals,
    followed by the positionals that are left."""
    texts = [t for t in given if t is not None]
    if args.pair_file:
        texts[:0] = _read_pair_file(args.pair_file)
    if len(texts) < 2:
        raise ParseError(f"{command} needs two terms or --pair-file", 0)
    return texts


def _unread(owner: str, texts: list[str]):
    """Refuse arguments that ``owner`` would leave unread."""
    if texts:
        raise ParseError(f"{owner} ignores the argument '{texts[0]}'", 0)


def cmd_eq(args) -> int:
    a_text, b_text, *rest = _read_terms(args, "eq", args.a, args.b)
    _unread("--pair-file", rest)
    ctx = _parse_ctx(args.ctx)
    a = S.parse_term(a_text, ctx)
    b = S.parse_term(b_text, ctx)
    if decide_eq(a, b):
        _emit("equal")
        return 0
    _emit("not-equal")
    return EXIT_FAIL


def cmd_separate(args) -> int:
    a_text, b_text, *targets = _read_terms(args, "separate", args.a, args.b, args.c, args.d)
    if args.product:
        _unread("--product", ["--two-valued"] if args.two_valued else targets)
    elif args.two_valued:
        _unread("--two-valued", targets)
    ctx = _parse_ctx(args.ctx)
    a = S.parse_term(a_text, ctx)
    b = S.parse_term(b_text, ctx)

    from . import separator as Sep
    budgets = {"max_base": args.max_base, "max_level": args.max_level}
    if args.product:
        from .products import separate_prod
        cert = separate_prod(a, b, **budgets)
    elif args.two_valued or not targets:
        cert = Sep.separate_two(a, b, **budgets)
    else:
        _unread("separate", targets[2:])
        if len(targets) != 2:
            raise ParseError("separation with targets needs both c and d", 0)
        c = S.parse_term(targets[0], ctx)
        d = S.parse_term(targets[1], ctx)
        cert = Sep.separate(a, b, c, d, **budgets)
    _emit(serialize_certificate(cert))
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadCertificate(f"not UTF-8: {exc}") from exc
    if verify_certificate(parse_certificate(text)):
        _emit("pass")
        return 0
    _emit("fail")
    return EXIT_FAIL


def cmd_type_nf(args) -> int:
    from . import products as P
    trace = P.type_nf(S.parse_type(args.type), strategy=args.strategy)
    _emit(S.show_type(trace.output))
    if args.trace:
        for step in trace.steps:
            pos = "/".join(step.path) or "root"
            _emit(f"# {step.rule} at {pos}: "
                  f"{P.show_measure(step.before)} -> {P.show_measure(step.after)}")
    return 0


def cmd_iso(args) -> int:
    from .products import build_iso
    iso = build_iso(S.parse_type(args.type))
    _emit_term(iso.forward, "forward:  ")
    _emit_term(iso.backward, "backward: ")
    return 0


def cmd_define(args) -> int:
    from . import models as M
    phi = M.PModel(args.model).functional(S.parse_type(args.type), args.functional)
    _emit_term(M.define_functional(phi, args.level))
    return 0


def cmd_combinator(args) -> int:
    from . import numerals as N
    kind = N.CombinatorKind(args.kind, args.level,
                            args.check if args.kind == "Check" else None)
    _emit_term(N.combinator(kind))
    return 0


def cmd_ccc(args) -> int:
    from . import ccc as C
    if args.action == "check":
        _unread("ccc check", [t for t in (args.f, args.g) if t is not None])
        report = C.check_axioms(samples=args.samples, seed=args.seed)
        bad = 0
        for name, (passed, total) in sorted(report.items()):
            status = "pass" if passed == total else "FAIL"
            _emit(f"{name}: {passed}/{total} {status}")
            bad += total - passed
        return 0 if bad == 0 else EXIT_FAIL
    if args.f is None or args.g is None:
        raise ParseError("collapse needs two arrow terms", 0)
    f = C.parse_arrow(args.f)
    g = C.parse_arrow(args.g)
    cert = C.collapse(f, g, max_base=args.max_base, max_level=args.max_level)
    _emit(serialize_certificate(cert))
    return 0


# ---------------------------------------------------------------------------
# Entry point

class _IntermixedParser(argparse.ArgumentParser):
    # a subcommand parser that matches positionals wherever options come
    # between them, which a parser with subcommands cannot do
    _mixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._mixing:  # one of the intermixed parse's own passes
            return super().parse_known_args(args, namespace)
        self._mixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._mixing = False


# the tags of ``numerals.TAGS``, spelled out so that the parser loads no
# producer to offer them
COMBINATOR_KINDS = ("Cond", "Lower", "Expo", "Add", "Mul", "Pair", "Proj1", "Proj2",
                    "Aux_T", "Aux_H", "Pred", "Raise", "Check")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="betaeta",
        description="workbench for equality, separation and collapse in the "
                    "simply typed lambda calculus with products")
    # argparse converts a string default (an environment value) with the
    # option's type, so a bad value exits 2 with the usage message
    top.add_argument("--mem-budget", type=int,
                     default=os.environ.get("BETAETA_MEM_BUDGET", 10_000_000),
                     help="cap on interned term nodes")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_IntermixedParser)

    def common_budgets(p):
        p.add_argument("--max-base", type=int,
                       default=os.environ.get("BETAETA_MAX_BASE", 3))
        p.add_argument("--max-level", type=int,
                       default=os.environ.get("BETAETA_MAX_LEVEL", 24))

    p = sub.add_parser("normalize", help="print a normal form")
    p.add_argument("term")
    p.add_argument("--long", action="store_true")
    p.add_argument("--ctx", action="append",
                   help="free-variable context, e.g. 'f:p->p, y:p'; may be repeated")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("eq", help="decide provable equality")
    p.add_argument("a", nargs="?")
    p.add_argument("b", nargs="?")
    p.add_argument("--ctx", action="append")
    p.add_argument("--pair-file", help="file with two terms separated by a --- line")
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("separate", help="emit a separation certificate")
    p.add_argument("a", nargs="?")
    p.add_argument("b", nargs="?")
    p.add_argument("c", nargs="?")
    p.add_argument("d", nargs="?")
    p.add_argument("--two-valued", action="store_true",
                   help="closed contexts with free target slots")
    p.add_argument("--product", action="store_true",
                   help="separation through the product normal form")
    p.add_argument("--ctx", action="append")
    p.add_argument("--pair-file")
    common_budgets(p)
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("verify", help="replay a certificate file")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("type-nf", help="product normal form of a type")
    p.add_argument("type")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--strategy", choices=("innermost", "outermost"), default="innermost")
    p.set_defaults(fn=cmd_type_nf)

    p = sub.add_parser("iso", help="isomorphism with the product normal form")
    p.add_argument("type")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("define", help="defining term of a hierarchy element")
    p.add_argument("--model", type=int, required=True, help="hierarchy base size")
    p.add_argument("--type", required=True, help="element type over the atom p")
    p.add_argument("--functional", type=int, required=True, help="element code")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=cmd_define)

    p = sub.add_parser("combinator", help="print a closed combinator")
    p.add_argument("--kind", required=True, choices=COMBINATOR_KINDS)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--check", type=int, help="constant for the Check kind")
    p.set_defaults(fn=cmd_combinator)

    p = sub.add_parser("ccc", help="cartesian closed calculus commands")
    p.add_argument("action", choices=("check", "collapse"))
    p.add_argument("f", nargs="?")
    p.add_argument("g", nargs="?")
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common_budgets(p)
    p.set_defaults(fn=cmd_ccc)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    nodes = S.set_node_budget(args.mem_budget)
    steps = set_work_budget(max(args.mem_budget * 50, 1_000_000))
    try:
        return not_too_deep(args.fn)(args)
    except BetaEtaError as exc:
        _diag(f"{exc.label}{exc}")
        return exc.exit_code
    except OSError as exc:
        _diag(f"io error: {exc}")
        return EXIT_FAIL
    finally:
        S.set_node_budget(nodes)
        set_work_budget(steps)


if __name__ == "__main__":
    raise SystemExit(main())
