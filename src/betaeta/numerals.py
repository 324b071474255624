"""Closed-term library of Church numerals and the combinators used by
the separating-context construction: conditionals, level lowering and
raising, arithmetic, numeral pairing, predecessor, and equality checks
against a fixed constant.

Each builder constructs the defining term directly, never a normalized
version of it, so a term printed here matches its defining equation up
to renaming.  Levels index the iterated arrow tower: numerals at level
``i`` operate on the ``i``-th tower type.  Builders are memoized, so
each combinator is interned once per process however often it is asked
for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import LevelTooSmall, SideConditionViolated
from .syntax import Term, app, apps, bind, fresh_free, numeral_type, tower_type


@cache
def church(n: int, i: int) -> Term:
    """The numeral for ``n`` at level ``i``: \\x. \\y. x^n(y)."""
    x = fresh_free("x", tower_type(i + 1))
    y = fresh_free("y", tower_type(i))
    body = y
    for _ in range(n):
        body = app(x, body)
    return bind(body, x, y)


@cache
def cond(i: int) -> Term:
    """Zero test: applied to a numeral and two branches, returns the
    first branch for 0 and the second otherwise."""
    n = numeral_type(i)
    x = fresh_free("x", n)
    y = fresh_free("y", n)
    z = fresh_free("z", n)
    u = fresh_free("u", tower_type(i + 1))
    v = fresh_free("v", tower_type(i))
    w = fresh_free("w", tower_type(i))
    body = apps(x, bind(apps(z, u, v), w), apps(y, u, v))
    return bind(body, x, y, z, u, v)


@cache
def lower(i: int) -> Term:
    """Maps a level-(i+1) numeral to the same numeral at level i."""
    x = fresh_free("x", numeral_type(i + 1))
    y = fresh_free("y", tower_type(i + 1))
    z = fresh_free("z", tower_type(i + 1))
    u = fresh_free("u", tower_type(i))
    v = fresh_free("v", tower_type(i))
    body = apps(x, bind(app(y, app(z, u)), z, u), bind(v, v))
    return bind(body, x, y)


@cache
def expo(i: int) -> Term:
    """Exponentiation: on level-(i+1) numerals n and m yields m^n at level i."""
    x = fresh_free("x", numeral_type(i + 1))
    y = fresh_free("y", numeral_type(i + 1))
    return bind(app(x, app(lower(i), y)), x, y)


@cache
def add(i: int) -> Term:
    x = fresh_free("x", numeral_type(i))
    y = fresh_free("y", numeral_type(i))
    z = fresh_free("z", tower_type(i + 1))
    u = fresh_free("u", tower_type(i))
    return bind(apps(x, z, apps(y, z, u)), x, y, z, u)


@cache
def mul(i: int) -> Term:
    x = fresh_free("x", numeral_type(i))
    y = fresh_free("y", numeral_type(i))
    z = fresh_free("z", tower_type(i + 1))
    u = fresh_free("u", tower_type(i))
    return bind(apps(x, app(y, z), u), x, y, z, u)


@cache
def pairing(i: int) -> Term:
    """Encodes two level-i numerals as one value of the next numeral type."""
    x = fresh_free("x", numeral_type(i))
    y = fresh_free("y", numeral_type(i))
    z = fresh_free("z", numeral_type(i))
    return bind(apps(cond(i), z, x, y), x, y, z)


@cache
def proj_first(i: int) -> Term:
    u = fresh_free("u", numeral_type(i + 1))
    return bind(app(u, church(0, i)), u)


@cache
def proj_second(i: int) -> Term:
    u = fresh_free("u", numeral_type(i + 1))
    return bind(app(u, church(1, i)), u)


@cache
def step_pair(i: int) -> Term:
    """One predecessor step: maps an encoded pair (n, _) to (n+1, n)."""
    x = fresh_free("x", numeral_type(i + 1))
    first = app(proj_first(i), x)
    body = apps(pairing(i), apps(add(i), church(1, i), first), first)
    return bind(body, x)


@cache
def fold_pairs(i: int) -> Term:
    """Iterates the pair step n times from (0, 0), giving (n, n-1)."""
    y = fresh_free("y", numeral_type(i + 3))
    body = apps(y, step_pair(i), apps(pairing(i), church(0, i), church(0, i)))
    return bind(body, y)


@cache
def pred(i: int) -> Term:
    """Predecessor: a level-(i+3) numeral for n yields n-1 (0 for 0) at level i."""
    y = fresh_free("y", numeral_type(i + 3))
    return bind(app(proj_second(i), app(fold_pairs(i), y)), y)


@cache
def raise_one(i: int) -> Term:
    """Maps level-(i-1) numerals for 0 and 1 to level i.  Proving that the
    result equals the level-i numeral genuinely requires eta."""
    if i < 1:
        raise SideConditionViolated("raising is defined from level 1 upward")
    j = i - 1
    x = fresh_free("x", numeral_type(j))
    y = fresh_free("y", numeral_type(j))
    z = fresh_free("z", tower_type(j + 1))
    u = fresh_free("u", tower_type(j))
    v = fresh_free("v", tower_type(j))
    body = apps(x, bind(apps(y, z, u), v), app(z, u))
    return bind(body, x, y, z, u)


@cache
def check(k: int, i: int) -> Term:
    """Equality test against the constant ``k``: a level-i numeral for n
    maps to 0 if n = k and to 1 otherwise.  Requires i >= 3k because each
    recursion step burns three levels."""
    if k < 0:
        raise SideConditionViolated("check constant must be a natural number")
    if i < 3 * k:
        raise SideConditionViolated(f"check against {k} needs level >= {3 * k}, got {i}")
    x = fresh_free("x", numeral_type(i))
    if k == 0:
        return bind(apps(cond(i), x, church(0, i), church(1, i)), x)
    inner = app(check(k - 1, i - 3), app(pred(i - 3), x))
    lifted = app(raise_one(i), app(raise_one(i - 1), app(raise_one(i - 2), inner)))
    return bind(apps(cond(i), x, church(1, i), lifted), x)


@cache
def lowering_pair(i: int) -> tuple[Term, Term]:
    """The two closed arguments that drop numerals for 0 and 1 from level
    ``i`` to level ``i - 2`` (no such contract holds for 2 and above)."""
    if i < 2:
        raise LevelTooSmall("lowering needs level >= 2")
    x = fresh_free("x", tower_type(i))
    y = fresh_free("y", tower_type(i - 1))
    z = fresh_free("z", tower_type(i - 2))
    first = bind(app(y, z), x, y, z)
    y2 = fresh_free("y", tower_type(i - 1))
    z2 = fresh_free("z", tower_type(i - 2))
    second = bind(z2, y2, z2)
    return first, second


TAGS = ("Cond", "Lower", "Expo", "Add", "Mul", "Pair", "Proj1", "Proj2",
        "Aux_T", "Aux_H", "Pred", "Raise", "Check")


@dataclass(frozen=True)
class CombinatorKind:
    tag: str
    level: int
    check: int | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise SideConditionViolated(f"unknown combinator tag '{self.tag}'")
        if self.level < 0:
            raise SideConditionViolated("combinator level must be a natural number")
        if (self.check is not None) != (self.tag == "Check"):
            raise SideConditionViolated("a check constant is given exactly for Check")


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


def combinator(kind: CombinatorKind) -> Term:
    """Build the closed combinator named by ``kind``."""
    if kind.tag == "Check":
        return check(kind.check, kind.level)
    return _BUILDERS[kind.tag](kind.level)
