"""The small-scope corpus at the depth-3 types, where the pairs take
minutes in all: run only with ``BETAETA_SLOW_CORPUS=1``, as a step of
its own in CI.  The outcome of every pair is pinned: the level it
separates at, whose certificate then verifies, or the refusal's class
and message.  The cheap sets are in ``test_corpus.py``.  A check against
8,000 at level 24,000 is built here too, in a child process, since the
recursive build of it crashed the interpreter."""

import os

import pytest

from betaeta import syntax as S

from conftest import long_normal_forms, run_in_child, separate_every_pair

pytestmark = pytest.mark.skipif(os.environ.get("BETAETA_SLOW_CORPUS") != "1",
                                reason="set BETAETA_SLOW_CORPUS=1 to run the slow corpus")

# base 2 agrees on the pair and base 3 is past the tuple cap
PAST_TUPLE_CAP = "Overflow: argument search space of 7625597484987 tuples exceeds the cap"
# base 2 agrees on the pair and base 3 has no card for the argument type
PAST_CARD_CAP = "Overflow: cardinality of (p -> p -> p) -> p exceeds the cap"
PAST_MAX_LEVEL = "LevelAboveMax: required level 632 exceeds --max-level 24"

# per (type, N): the number of pairs, the usual outcome, the pairs (by
# their index in order) of another outcome, and the sha256 of the model
# witnesses in order
SLOW_CORPUS_PINS = {
    ("((p->p)->p)->p", 6): (
        105, 20, dict.fromkeys([18, 20, 31, 33, 40, 45, 47, 49, 56, 58, 64, 66, 68, 70, 78, 96,
                                98, 100, 103], PAST_TUPLE_CAP),
        "e00c6b01d811dca9b073222e599c2af797223755f2301f2e5452c0fafa195652"),
    ("((p->p->p)->p)->p", 4): (
        66, PAST_MAX_LEVEL, dict.fromkeys([54, 59], PAST_CARD_CAP),
        "afdafbf479a693b18fe021a4792b555890963f24bea8c4b3d4674bbe994aa6cc"),
}


@pytest.mark.parametrize("text, n", list(SLOW_CORPUS_PINS), ids=[t for t, _ in SLOW_CORPUS_PINS])
def test_every_unequal_pair_has_its_pinned_outcome(text, n):
    pairs, usual, other, digest = SLOW_CORPUS_PINS[text, n]
    forms = long_normal_forms(S.parse_type(text), n)
    assert separate_every_pair(forms) == ([other.get(i, usual) for i in range(pairs)], digest)


def test_a_deep_check_builds():
    # each level wraps the one below, so no build nests 8,000 calls deep
    out = run_in_child("from betaeta import numerals as N, syntax as S\n"
                       "n = S.numeral_type(24000)\n"
                       "print(N.check(8000, 24000).ty is S.arrow(n, n))\n", timeout=120)
    assert out == "True\n"
