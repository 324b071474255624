"""Certificate I/O: the text format of every certificate, beside the
checker that replays it.  It imports only ``errors``, ``syntax`` and
``checker``, so a reader who decodes and replays a certificate loads no
producer.

Certificates are wrapped in a versioned envelope and serialized with a
shared type-alias table, which keeps iterated arrow types linear in the
output instead of exponential.  Serialization is canonical: ``certio``
writes the bytes itself, the same bytes as ``json.dumps(envelope,
sort_keys=True, indent=2)`` plus a newline, so a decoded envelope
re-encodes bit-exactly.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate

from . import __version__
from . import syntax as S
from .checker import (
    CollapseCertificate, ProductCertificate, SeparationCertificate, parse_arrow, show_arrow,
)
from .errors import BadCertificate, UnsupportedSchema

SCHEMA_VERSION = 1


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
        shown = json.dumps(value)  # the value may be as large as the input
        if len(shown) > 100:
            shown = shown[:100] + "..."
        raise TypeError(f"'{key}' must be {name}, not {shown}")
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
        arrow = lambda key: parse_arrow(_typed(data, key, str))
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
    return _json(envelope, "\n") + "\n"


_quote = json.encoder.encode_basestring_ascii


def _json(v, nl: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it, for
    the values a payload holds, where ``nl`` is a newline and the indent of
    ``v``'s line.  Any other value is a ``TypeError``."""
    cls = type(v)
    if cls is str:
        return _quote(v)
    if cls is int:
        return int.__repr__(v)
    if cls is bool:
        return "true" if v else "false"
    inner = nl + "  "
    # a string item is written here, without a call
    if cls is list:
        items = [_quote(x) if type(x) is str else _json(x, inner) for x in v]
        ends = "[]"
    elif cls is dict:
        items = [f"{_quote(k)}: {_quote(x) if type(x) is str else _json(x, inner)}"
                 for k, x in sorted(v.items())]
        ends = "{}"
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{nl}{ends[1]}" if items else ends


# ``json.loads`` recurses in C once per open bracket, so a text nested deep
# enough overflows the C stack before Python's recursion limit stops it;
# a certificate nests a few levels, and a text nested deeper than this is
# refused before it is decoded
MAX_NESTING = 10_000
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.S)


def _nesting(text: str) -> int:
    brackets = re.findall(r"[][{}]", _STRING.sub("", text))
    return max(accumulate(1 if c in "[{" else -1 for c in brackets), default=0)


def parse_certificate(text: str):
    # the bracket count bounds the depth, so the exact scan runs only
    # where that count is high
    if text.count("[") + text.count("{") > MAX_NESTING and _nesting(text) > MAX_NESTING:
        raise BadCertificate(f"not JSON: nested more than {MAX_NESTING} deep")
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadCertificate(f"not JSON: {exc}") from exc
    except RecursionError:
        raise BadCertificate("not JSON: nested too deeply for the decoder") from None
    if not isinstance(envelope, dict) or "schema" not in envelope:
        raise BadCertificate("missing envelope fields")
    if type(envelope["schema"]) is not int or envelope["schema"] != SCHEMA_VERSION:
        raise UnsupportedSchema(f"unsupported schema version {envelope['schema']}")
    kind = envelope.get("kind")
    # compared, not hashed, since a decoded kind may be any JSON value
    for name, _, decode in _KINDS.values():
        if name == kind:
            return decode(envelope.get("payload", {}))
    raise BadCertificate(f"unknown certificate kind '{kind}'")
