"""The paper's separation over every unequal pair of a small scope: each
closed eta-long normal form of a type with at most N variable
occurrences, paired with each later one, separated at ``max_level`` 24,
its certificate serialized, parsed back and verified.  The levels and
the model witnesses are pinned.  The slow sets are in
``test_slow_corpus.py``."""

import pytest

from betaeta import syntax as S

from conftest import long_normal_forms, separate_every_pair

# per (type, N): the level of each pair in order, and the sha256 of the
# model witnesses in order
CORPUS_PINS = {
    ("(p->p)->p->p", 7): (
        [8, 8, 8, 8, 8, 8, 8, 14, 8, 14, 8, 8, 14, 8, 14, 8, 14, 8, 8, 14, 8],
        "6eb5418a43ffaadb4c9ca7eea6100152dd5781a2752ac92e7d330073d1d42832"),
    ("(p->p->p)->p->p", 5): (
        [8] * 6,
        "2ba96263e6fbabd1b9fee6a3cb37202e30c4005f452e50eda158955ab1deaaa2"),
    ("((p->p)->p->p)->p->p", 4): (
        [20] * 3,
        "04458673ea31abc7c7e6c543905f4fff4623682d6e9477a0a8b5549cada722ea"),
}


@pytest.mark.parametrize("text, n", list(CORPUS_PINS), ids=[t for t, _ in CORPUS_PINS])
def test_every_unequal_pair_separates_and_verifies(text, n):
    forms = long_normal_forms(S.parse_type(text), n)
    assert separate_every_pair(forms) == CORPUS_PINS[text, n]


def test_the_corpus_counts():
    # N occurrences give the numerals 0 to N - 1 at (p->p)->p->p, and the
    # binary trees of at most (N - 1) / 2 nodes at (p->p->p)->p->p
    counts = {(text, n): len(long_normal_forms(S.parse_type(text), n))
              for text, n in [*CORPUS_PINS, ("((p->p)->p)->p", 6), ("((p->p->p)->p)->p", 4)]}
    assert list(counts.values()) == [7, 4, 3, 15, 12]
    numerals = long_normal_forms(S.parse_type("(p->p)->p->p"), 3)
    assert [S.show_term(t) for t in numerals] == [
        "\\x1:p -> p. \\x2:p. x2", "\\x1:p -> p. \\x2:p. x1 x2", "\\x1:p -> p. \\x2:p. x1 (x1 x2)"]
