"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

The determinism check runs each workload traced twice with one seed and
``--seconds 0``, so both runs do the minimum number of cycles, and
requires identical counters and an identical fail ratio.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as K  # noqa: E402
from run import LAYER_COUNTS  # noqa: E402


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=str(HERE.parent), timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fail_ratio = next(line for line in lines if line.startswith("fail_ratio"))
    return result, fail_ratio


@pytest.mark.parametrize("workload", ["search", "batch", "tower"])
def test_same_seed_gives_same_counters(workload):
    (first, ratio1), (second, ratio2) = traced_run(workload, 5), traced_run(workload, 5)
    for name in LAYER_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert ratio1 == ratio2
    assert first["attempted"] == second["attempted"]


def test_long_forms_identify_eta_equal_terms():
    x = K.var("x")
    identity = K.lam("x", K.PP, x)
    expanded = K.lam("y", K.PP, ("pair", ("p1", K.var("y")), ("p2", K.var("y"))))
    ty = K.arrow(K.PP, K.PP)
    assert K.long_form(identity, ty) == K.long_form(expanded, ty)
    numeral = K.arrow(K.arrow(K.P, K.P), K.P, K.P)
    assert K.long_form(K.church(1), numeral) != K.long_form(K.church(2), numeral)
    f = K.lam("f", K.arrow(K.P, K.P), K.var("f"))
    assert K.long_form(f, K.arrow(K.arrow(K.P, K.P), K.P, K.P)) == K.long_form(K.church(1), numeral)


def test_long_form_rejects_a_redex():
    redex = K.apps(K.lam("x", K.P, K.var("x")), K.var("y"))
    with pytest.raises(K.NotNormal):
        K.long_form(redex, K.P, {"y": K.P})


def test_generator_is_seeded_and_renaming_keeps_long_forms():
    ty = K.SEARCH_TYPES[2]
    one = K.gen_closed_term(ty, random.Random(3))
    assert one == K.gen_closed_term(ty, random.Random(3))
    renamed = K.rename(one, random.Random(4))
    assert K.show(renamed) != K.show(one)
    assert K.long_form(renamed, ty) == K.long_form(one, ty)
