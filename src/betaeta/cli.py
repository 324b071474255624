"""Command-line front end and certificate serialization.

Certificates are wrapped in a versioned envelope and serialized with a
shared type-alias table, which keeps iterated arrow types linear in the
output instead of exponential.  Serialization is canonical (sorted keys,
fixed separators), so a decoded envelope re-encodes bit-exactly.

Exit codes: 0 success (for ``eq``: equal), 1 failed check or unequal
pair, 2 parse error, 3 type error, 4 separation of a provably equal
pair, 5 search or resource budget exceeded, 6 unsupported certificate
schema version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import ccc as C
from .checker import CollapseCertificate, ProductCertificate, SeparationCertificate, show_arrow
from . import models as M
from . import numerals as N
from . import products as P
from . import separator as Sep
from . import syntax as S
from .errors import (
    BadCertificate, BetaEtaError, EqualArrows, EqualTerms, IllFormed,
    IllTyped, LevelAboveMax, NotSeparable, Overflow, ParseError, ResourceExhausted,
    SideConditionViolated, TypeMismatch, UnboundVariable, not_too_deep,
)
from .normalize import beta_eta_nf, decide_eq, long_nf, set_work_budget

SCHEMA_VERSION = 1

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_EQUAL = 4
EXIT_BUDGET = 5
EXIT_SCHEMA = 6


# ---------------------------------------------------------------------------
# Certificate serialization

def _sep_payload(cert: SeparationCertificate) -> dict:
    source_ctx = {**S.free_vars(cert.a_source), **S.free_vars(cert.b_source)}
    roots = ([cert.a_source, cert.b_source, cert.a_prime, cert.b_prime,
              cert.target_c, cert.target_d] + cert.head_args
             + [ty for _, ty in cert.bound_vars]
             + [ty for _, ty in cert.target_ctx]
             + list(source_ctx.values()))
    defs, names = S.type_alias_table(roots)
    term = lambda t: S.show_term(t, names)
    ty = lambda t: S.show_type(t, names)
    return {
        "type_defs": [[n, d] for n, d in defs],
        "a_source": term(cert.a_source),
        "b_source": term(cert.b_source),
        # sources keep their original variable types, which differ from
        # the instantiated bound_vars entries of the same names
        "source_ctx": [[n, ty(t)] for n, t in source_ctx.items()],
        "a_prime": term(cert.a_prime),
        "b_prime": term(cert.b_prime),
        "bound_vars": [[n, ty(t)] for n, t in cert.bound_vars],
        "head_args": [term(h) for h in cert.head_args],
        "target_c": term(cert.target_c),
        "target_d": term(cert.target_d),
        "target_ctx": [[n, ty(t)] for n, t in cert.target_ctx],
        "level": cert.level,
        "base": cert.base,
        "model_args": [[S.show_type(t), code] for t, code in cert.model_args],
        "relabeling": cert.relabeling,
        "two_valued": cert.two_valued,
        "kappa_values": cert.kappa_values,
    }


def _typed(data: dict, key: str, shape):
    """``data[key]``, which must have ``shape``: ``true`` is no int.  A
    misfit is a ``TypeError``, which the payload decoder reports."""
    value = data[key]
    if not _fits(value, shape):
        name = repr(shape).replace("<class '", "").replace("'>", "")
        raise TypeError(f"'{key}' must be {name}, not {json.dumps(value)}")
    return value


def _fits(value, shape) -> bool:
    # a shape is a type the value is exactly of, [shape] for a list of
    # that shape, or a tuple of shapes for a list with one entry of each
    if type(shape) is type:
        return type(value) is shape
    if type(shape) is list:
        return type(value) is list and all(_fits(v, shape[0]) for v in value)
    return type(value) is list and len(value) == len(shape) and all(map(_fits, value, shape))


def _sep_from_payload(data: dict) -> SeparationCertificate:
    try:
        aliases = S.parse_alias_table(_typed(data, "type_defs", [(str, str)]))
        typed_names = lambda key: [(n, S.parse_type(t, aliases))
                                   for n, t in _typed(data, key, [(str, str)])]
        bound = typed_names("bound_vars")
        tctx = typed_names("target_ctx")
        sctx = S.Context(typed_names("source_ctx"))
        ctx = S.Context()
        for n, t in bound + tctx:
            if n not in ctx:
                ctx.add(n, t)
            elif ctx.lookup(n) is not t:
                raise BadCertificate(f"variable '{n}' bound at two types")
        text = lambda key: _typed(data, key, str)
        term = lambda t: S.parse_term(t, ctx, aliases)
        source = lambda t: S.parse_term(t, sctx, aliases)
        return SeparationCertificate(
            a_source=source(text("a_source")),
            b_source=source(text("b_source")),
            a_prime=term(text("a_prime")),
            b_prime=term(text("b_prime")),
            bound_vars=bound,
            head_args=[term(h) for h in _typed(data, "head_args", [str])],
            target_c=term(text("target_c")),
            target_d=term(text("target_d")),
            target_ctx=S.Context(tctx),
            level=_typed(data, "level", int),
            base=_typed(data, "base", int),
            model_args=[(S.parse_type(t), c) for t, c in _typed(data, "model_args", [(str, int)])],
            relabeling=_typed(data, "relabeling", [int]),
            two_valued=_typed(data, "two_valued", bool),
            kappa_values=_typed(data, "kappa_values", [int]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCertificate(f"malformed separation payload: {exc}") from exc


def _prod_payload(cert: ProductCertificate) -> dict:
    roots = [cert.a_source, cert.b_source, cert.a_prime, cert.b_prime, cert.iso_forward]
    defs, names = S.type_alias_table(roots)
    term = lambda t: S.show_term(t, names)
    return {
        "type_defs": [[n, d] for n, d in defs],
        "a_source": term(cert.a_source),
        "b_source": term(cert.b_source),
        "a_prime": term(cert.a_prime),
        "b_prime": term(cert.b_prime),
        "iso_forward": term(cert.iso_forward),
        "component": cert.component,
        "n_components": cert.n_components,
        "inner": _sep_payload(cert.inner),
    }


def _prod_from_payload(data: dict) -> ProductCertificate:
    try:
        aliases = S.parse_alias_table(_typed(data, "type_defs", [(str, str)]))
        term = lambda key: S.parse_term(_typed(data, key, str), S.EMPTY, aliases)
        return ProductCertificate(
            a_source=term("a_source"),
            b_source=term("b_source"),
            a_prime=term("a_prime"),
            b_prime=term("b_prime"),
            iso_forward=term("iso_forward"),
            component=_typed(data, "component", int),
            n_components=_typed(data, "n_components", int),
            inner=_sep_from_payload(data["inner"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCertificate(f"malformed product payload: {exc}") from exc


def _collapse_payload(cert: CollapseCertificate) -> dict:
    return {
        "f": show_arrow(cert.f),
        "g": show_arrow(cert.g),
        "separation": _prod_payload(cert.separation),
        "derived_lhs": show_arrow(cert.derived_lhs),
        "derived_rhs": show_arrow(cert.derived_rhs),
        "schema_rule": cert.schema,
    }


def _collapse_from_payload(data: dict) -> CollapseCertificate:
    try:
        arrow = lambda key: C.parse_arrow(_typed(data, key, str))
        return CollapseCertificate(
            f=arrow("f"),
            g=arrow("g"),
            separation=_prod_from_payload(data["separation"]),
            derived_lhs=arrow("derived_lhs"),
            derived_rhs=arrow("derived_rhs"),
            schema=_typed(data, "schema_rule", str),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCertificate(f"malformed collapse payload: {exc}") from exc


# certificate class -> (envelope kind, encoder, decoder)
_KINDS = {
    SeparationCertificate: ("lambda-separation", _sep_payload, _sep_from_payload),
    ProductCertificate: ("product-separation", _prod_payload, _prod_from_payload),
    CollapseCertificate: ("ccc-collapse", _collapse_payload, _collapse_from_payload),
}


def serialize_certificate(cert) -> str:
    kind, encode, _ = _KINDS[type(cert)]
    envelope = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "toolchain": {"name": "betaeta", "version": __version__},
        "payload": encode(cert),
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def parse_certificate(text: str):
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadCertificate(f"not JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "schema" not in envelope:
        raise BadCertificate("missing envelope fields")
    if type(envelope["schema"]) is not int or envelope["schema"] != SCHEMA_VERSION:
        raise BadCertificate(f"unsupported schema version {envelope['schema']}",)
    kind = envelope.get("kind")
    # compared, not hashed, since a decoded kind may be any JSON value
    for name, _, decode in _KINDS.values():
        if name == kind:
            return decode(envelope.get("payload", {}))
    raise BadCertificate(f"unknown certificate kind '{kind}'")


def verify_certificate(cert) -> bool:
    if isinstance(cert, SeparationCertificate):
        return Sep.verify(cert)
    if isinstance(cert, ProductCertificate):
        return P.verify_product(cert)
    return C.replay_collapse(cert)


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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

    budgets = {"max_base": args.max_base, "max_level": args.max_level}
    if args.product:
        cert = P.separate_prod(a, b, **budgets)
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
    with open(args.certificate, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        cert = parse_certificate(text)
    except BadCertificate as exc:
        if "schema version" in str(exc):
            _diag(str(exc))
            return EXIT_SCHEMA
        raise
    if verify_certificate(cert):
        _emit("pass")
        return 0
    _emit("fail")
    return EXIT_FAIL


def cmd_type_nf(args) -> int:
    ty = S.parse_type(args.type)
    trace = P.type_nf(ty, strategy=args.strategy)
    _emit(S.show_type(trace.output))
    if args.trace:
        for step in trace.steps:
            pos = "/".join(step.path) or "root"
            _emit(f"# {step.rule} at {pos}: "
                  f"{P.show_measure(step.before)} -> {P.show_measure(step.after)}")
    return 0


def cmd_iso(args) -> int:
    ty = S.parse_type(args.type)
    iso = P.build_iso(ty)
    _emit_term(iso.forward, "forward:  ")
    _emit_term(iso.backward, "backward: ")
    return 0


def cmd_define(args) -> int:
    model = M.PModel(args.model)
    ty = S.parse_type(args.type)
    phi = model.functional(ty, args.functional)
    term = M.define_functional(phi, args.level)
    _emit_term(term)
    return 0


def cmd_combinator(args) -> int:
    kind = N.CombinatorKind(args.kind, args.level,
                            args.check if args.kind == "Check" else None)
    _emit_term(N.combinator(kind))
    return 0


def cmd_ccc(args) -> int:
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
    p.add_argument("--kind", required=True, choices=N.TAGS)
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
    S.set_node_budget(args.mem_budget)
    set_work_budget(max(args.mem_budget * 50, 1_000_000))
    try:
        return not_too_deep(args.fn)(args)
    except ParseError as exc:
        _diag(f"parse error: {exc}")
        return EXIT_PARSE
    except (IllTyped, TypeMismatch, UnboundVariable, IllFormed,
            SideConditionViolated) as exc:
        _diag(f"type error: {exc}")
        return EXIT_TYPE
    except (EqualTerms, EqualArrows) as exc:
        _diag(f"equal: {exc}")
        return EXIT_EQUAL
    except LevelAboveMax as exc:
        _diag(str(exc))
        return EXIT_BUDGET
    except (NotSeparable, Overflow, ResourceExhausted) as exc:
        _diag(f"budget: {exc}")
        return EXIT_BUDGET
    except BadCertificate as exc:
        _diag(f"certificate: {exc}")
        return EXIT_FAIL
    except BetaEtaError as exc:
        _diag(str(exc))
        return EXIT_FAIL
    except OSError as exc:
        _diag(f"io error: {exc}")
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
