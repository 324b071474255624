"""The documented certificate schema, read against certificates that the
program writes: each of the four shapes validates, and none admits a key
the schema does not name."""

import json
import os

import jsonschema
import pytest

from betaeta import ccc as C
from betaeta import cli
from betaeta import products as P
from betaeta import separator as Sep
from betaeta import syntax as S
from betaeta.numerals import church

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "docs", "certificate-schema.json")

p = S.atom("p")


def _with_targets():
    # the targets are free variables, so the target context is not empty
    ctx = S.Context([("c", p), ("d", p)])
    a, b = S.parse_term("\\x:p. \\y:p. x"), S.parse_term("\\x:p. \\y:p. y")
    return Sep.separate(a, b, S.parse_term("c", ctx), S.parse_term("d", ctx))


CERTIFICATES = {
    "two-valued": lambda: Sep.separate_two(church(1, 0), church(2, 0)),
    "targets": _with_targets,
    "product": lambda: P.separate_prod(S.parse_term("\\x:p*p. <p1 x, p2 x>"),
                                       S.parse_term("\\x:p*p. <p2 x, p1 x>")),
    "collapse": lambda: C.collapse(C.parse_arrow("p1[p, p]"), C.parse_arrow("p2[p, p]")),
}


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", CERTIFICATES)
def test_a_written_certificate_fits_the_schema_exactly(schema, name):
    envelope = json.loads(cli.serialize_certificate(CERTIFICATES[name]()))
    if name == "targets":
        assert envelope["payload"]["target_ctx"] == [["c", "p"], ["d", "p"]]
    jsonschema.validate(envelope, schema)
    for where in (envelope, envelope["payload"]):
        where["unnamed"] = 0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(envelope, schema)
        del where["unnamed"]
