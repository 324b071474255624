"""Closed-term library of Church numerals and the combinators used by
the separating-context construction: conditionals, level lowering and
raising, arithmetic, numeral pairing, predecessor, and equality checks
against a fixed constant.

Each builder constructs the defining term directly, never a normalized
version of it, so a term printed here matches its defining equation up
to renaming.  Levels index the iterated arrow tower: numerals at level
``i`` operate on the ``i``-th tower type.  Binders come from
``syntax.lams``, which hands out de Bruijn indices directly, so a builder
interns the nodes of its combinator and nothing else.  Builders are
memoized, so each combinator is interned once per process however often
it is asked for.  Every builder takes the level last and refuses a
negative one with ``SideConditionViolated``.
"""

from __future__ import annotations

from functools import wraps

from .errors import LevelTooSmall, SideConditionViolated
from .syntax import Record, Term, app, apps, lams, memo, numeral_type, tower_type


def _leveled(builder):
    """``builder``, memoized by ``syntax.memo`` on its int arguments,
    refusing a negative level (its last argument) before the table."""
    memoized = memo(lambda *args: args)(builder)

    @wraps(builder)
    def build(*args):
        if args[-1] < 0:
            raise SideConditionViolated("level must be a natural number")
        return memoized(*args)
    return build


@_leveled
def church(n: int, i: int) -> Term:
    """The numeral for ``n`` at level ``i``: \\x. \\y. x^n(y)."""
    def body(x, y):
        out = y()
        for _ in range(n):
            out = app(x(), out)
        return out
    return lams(tower_type(i + 1), tower_type(i), body)


@_leveled
def cond(i: int) -> Term:
    """Zero test: applied to a numeral and two branches, returns the
    first branch for 0 and the second otherwise."""
    n, t1, t0 = numeral_type(i), tower_type(i + 1), tower_type(i)
    return lams(n, n, n, t1, t0, lambda x, y, z, u, v: apps(
        x(), lams(t0, lambda w: apps(z(), u(), v())), apps(y(), u(), v())))


@_leveled
def lower(i: int) -> Term:
    """Maps a level-(i+1) numeral to the same numeral at level i."""
    t1, t0 = tower_type(i + 1), tower_type(i)
    return lams(numeral_type(i + 1), t1, lambda x, y: apps(
        x(), lams(t1, t0, lambda z, u: app(y(), app(z(), u()))), lams(t0, lambda v: v())))


@_leveled
def expo(i: int) -> Term:
    """Exponentiation: on level-(i+1) numerals n and m yields m^n at level i."""
    n = numeral_type(i + 1)
    return lams(n, n, lambda x, y: app(x(), app(lower(i), y())))


@_leveled
def add(i: int) -> Term:
    n = numeral_type(i)
    return lams(n, n, tower_type(i + 1), tower_type(i),
                lambda x, y, z, u: apps(x(), z(), apps(y(), z(), u())))


@_leveled
def mul(i: int) -> Term:
    n = numeral_type(i)
    return lams(n, n, tower_type(i + 1), tower_type(i),
                lambda x, y, z, u: apps(x(), app(y(), z()), u()))


@_leveled
def pairing(i: int) -> Term:
    """Encodes two level-i numerals as one value of the next numeral type."""
    n = numeral_type(i)
    return lams(n, n, n, lambda x, y, z: apps(cond(i), z(), x(), y()))


@_leveled
def proj_first(i: int) -> Term:
    return lams(numeral_type(i + 1), lambda u: app(u(), church(0, i)))


@_leveled
def proj_second(i: int) -> Term:
    return lams(numeral_type(i + 1), lambda u: app(u(), church(1, i)))


@_leveled
def step_pair(i: int) -> Term:
    """One predecessor step: maps an encoded pair (n, _) to (n+1, n)."""
    def body(x):
        first = app(proj_first(i), x())
        return apps(pairing(i), apps(add(i), church(1, i), first), first)
    return lams(numeral_type(i + 1), body)


@_leveled
def fold_pairs(i: int) -> Term:
    """Iterates the pair step n times from (0, 0), giving (n, n-1)."""
    return lams(numeral_type(i + 3), lambda y: apps(
        y(), step_pair(i), apps(pairing(i), church(0, i), church(0, i))))


@_leveled
def pred(i: int) -> Term:
    """Predecessor: a level-(i+3) numeral for n yields n-1 (0 for 0) at level i."""
    return lams(numeral_type(i + 3), lambda y: app(proj_second(i), app(fold_pairs(i), y())))


@_leveled
def raise_one(i: int) -> Term:
    """Maps level-(i-1) numerals for 0 and 1 to level i.  Proving that the
    result equals the level-i numeral genuinely requires eta."""
    if i < 1:
        raise SideConditionViolated("raising is defined from level 1 upward")
    n, t1, t0 = numeral_type(i - 1), tower_type(i), tower_type(i - 1)
    return lams(n, n, t1, t0, lambda x, y, z, u: apps(
        x(), lams(t0, lambda v: apps(y(), z(), u())), app(z(), u())))


@_leveled
def check(k: int, i: int) -> Term:
    """Equality test against the constant ``k``: a level-i numeral for n
    maps to 0 if n = k and to 1 otherwise.  Requires i >= 3k because each
    recursion step burns three levels."""
    if k < 0:
        raise SideConditionViolated("check constant must be a natural number")
    if i < 3 * k:
        raise SideConditionViolated(f"check against {k} needs level >= {3 * k}, got {i}")
    if k == 0:
        return lams(numeral_type(i), lambda x: apps(cond(i), x(), church(0, i), church(1, i)))

    def body(x):
        inner = app(check(k - 1, i - 3), app(pred(i - 3), x()))
        lifted = app(raise_one(i), app(raise_one(i - 1), app(raise_one(i - 2), inner)))
        return apps(cond(i), x(), church(1, i), lifted)
    return lams(numeral_type(i), body)


@_leveled
def lowering_pair(i: int) -> tuple[Term, Term]:
    """The two closed arguments that drop numerals for 0 and 1 from level
    ``i`` to level ``i - 2`` (no such contract holds for 2 and above)."""
    if i < 2:
        raise LevelTooSmall("lowering needs level >= 2")
    t2, t1, t0 = tower_type(i), tower_type(i - 1), tower_type(i - 2)
    return (lams(t2, t1, t0, lambda x, y, z: app(y(), z())),
            lams(t1, t0, lambda y, z: z()))


_BUILDERS = {
    "Cond": cond,
    "Lower": lower,
    "Expo": expo,
    "Add": add,
    "Mul": mul,
    "Pair": pairing,
    "Proj1": proj_first,
    "Proj2": proj_second,
    "Aux_T": step_pair,
    "Aux_H": fold_pairs,
    "Pred": pred,
    "Raise": raise_one,
}
TAGS = (*_BUILDERS, "Check")


class CombinatorKind(Record):
    tag: str
    level: int
    check: int | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.tag not in TAGS:
            raise SideConditionViolated(f"unknown combinator tag '{self.tag}'")
        if self.level < 0:
            raise SideConditionViolated("combinator level must be a natural number")
        if (self.check is not None) != (self.tag == "Check"):
            raise SideConditionViolated("a check constant is given exactly for Check")


def combinator(kind: CombinatorKind) -> Term:
    """Build the closed combinator named by ``kind``."""
    if kind.tag == "Check":
        return check(kind.check, kind.level)
    return _BUILDERS[kind.tag](kind.level)
