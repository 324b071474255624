"""Workload inputs, built by the benchmark alone.

Terms are plain tuples here, printed to the surface syntax the program
parses, so the corpus never depends on the program or its test helpers:

    types  ("atom", name) | ("T",) | ("->", dom, cod) | ("*", left, right)
    terms  ("var", name) | ("lam", name, ty, body) | ("app", fun, arg)
           | ("pair", fst, snd) | ("p1", t) | ("p2", t) | ("unit",)

``long_form`` is an oracle independent of the code under test: it
eta-expands a beta-normal term and prints it nameless.  For the simply
typed calculus with products and a terminal type these long forms are
unique, so two inputs with different long forms are unequal.
"""

from __future__ import annotations

import random

P = ("atom", "p")
TERMINAL = ("T",)


def arrow(*tys):
    """``arrow(a, b, c)`` is a -> b -> c."""
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = ("->", ty, out)
    return out


def prod(left, right):
    return ("*", left, right)


def lam(name, ty, body):
    return ("lam", name, ty, body)


def var(name):
    return ("var", name)


def apps(fun, *args):
    for a in args:
        fun = ("app", fun, a)
    return fun


def split_arrows(ty):
    args = []
    while ty[0] == "->":
        args.append(ty[1])
        ty = ty[2]
    return args, ty


# ---------------------------------------------------------------------------
# Printing to the program's surface syntax

def show_type(ty, prec=0):
    tag = ty[0]
    if tag == "atom":
        return ty[1]
    if tag == "T":
        return "T"
    if tag == "->":
        s = f"{show_type(ty[1], 1)} -> {show_type(ty[2], 0)}"
        return f"({s})" if prec >= 1 else s
    s = f"{show_type(ty[1], 1)} * {show_type(ty[2], 2)}"
    return f"({s})" if prec >= 2 else s


def show(t, prec=0):
    """prec 0 = top, 1 = function position, 2 = argument position."""
    tag = t[0]
    if tag == "var":
        return t[1]
    if tag == "unit":
        return "k"
    if tag == "lam":
        s = f"\\{t[1]}:{show_type(t[2])}. {show(t[3], 0)}"
        return f"({s})" if prec > 0 else s
    if tag == "app":
        s = f"{show(t[1], 1)} {show(t[2], 2)}"
        return f"({s})" if prec > 1 else s
    if tag == "pair":
        return f"<{show(t[1])}, {show(t[2])}>"
    s = f"{tag} {show(t[1], 2)}"
    return f"({s})" if prec > 0 else s


# ---------------------------------------------------------------------------
# Independent equality oracle

class NotNormal(ValueError):
    """The term has a redex or does not have the stated type."""


def long_form(t, ty, free=None):
    """Nameless eta-long form of the beta-normal term ``t`` at type ``ty``;
    ``free`` maps free variable names to their types."""
    env = {name: (fty, None) for name, fty in (free or {}).items()}
    return _long(t, ty, env, 0)


def _long(t, ty, env, depth):
    tag = ty[0]
    if tag == "T":
        return "k"
    if tag == "->":
        if t[0] == "lam":
            if t[2] != ty[1]:
                raise NotNormal(f"binder type {show_type(t[2])} is not {show_type(ty[1])}")
            name, body = t[1], t[3]
        else:
            name = f"#{depth}"  # cannot clash with a surface name
            body = ("app", t, var(name))
        inner = {**env, name: (ty[1], depth)}
        return f"(\\{show_type(ty[1])}.{_long(body, ty[2], inner, depth + 1)})"
    if tag == "*":
        if t[0] == "pair":
            fst, snd = t[1], t[2]
        else:
            fst, snd = ("p1", t), ("p2", t)
        return f"<{_long(fst, ty[1], env, depth)},{_long(snd, ty[2], env, depth)}>"
    text, got = _neutral(t, env, depth)
    if got != ty:
        raise NotNormal(f"expected {show_type(ty)}, found {show_type(got)}")
    return text


def _neutral(t, env, depth):
    tag = t[0]
    if tag == "var":
        if t[1] not in env:
            raise NotNormal(f"unbound variable {t[1]}")
        ty, level = env[t[1]]
        return (t[1] if level is None else f"@{depth - 1 - level}"), ty
    if tag == "app":
        fun, fty = _neutral(t[1], env, depth)
        if fty[0] != "->":
            raise NotNormal("application of a non-function")
        return f"({fun} {_long(t[2], fty[1], env, depth)})", fty[2]
    if tag in ("p1", "p2"):
        inner, ity = _neutral(t[1], env, depth)
        if ity[0] != "*":
            raise NotNormal("projection of a non-pair")
        return f"({tag} {inner})", ity[1 if tag == "p1" else 2]
    raise NotNormal(f"redex or misplaced {tag}")


# ---------------------------------------------------------------------------
# Generators

# binder names drawn by the seed; none is a keyword or a free variable name
_NAME_LETTERS = "abcdeghjmnqrswxyz"


def rename(t, rng: random.Random):
    """Alpha-rename every binder of ``t`` to a distinct seed-drawn name."""
    used: set[str] = set()

    def fresh():
        while True:
            name = f"{rng.choice(_NAME_LETTERS)}{rng.randrange(100)}"
            if name not in used:
                used.add(name)
                return name

    def go(u, sub):
        tag = u[0]
        if tag == "var":
            return var(sub.get(u[1], u[1]))
        if tag == "lam":
            name = fresh()
            return lam(name, u[2], go(u[3], {**sub, u[1]: name}))
        if tag == "unit":
            return u
        return (tag,) + tuple(go(x, sub) for x in u[1:])

    return go(t, {})


def gen_closed_term(ty, rng: random.Random, fuel: int = 3):
    """A random closed eta-long beta-normal term of a product-free type:
    arrows introduce a binder; at an atom some variable in scope whose
    result is that atom is applied to generated arguments, and once the
    fuel is spent only variables of exactly that atom qualify."""
    count = [0]

    def go(ty, scope, fuel):
        if ty[0] == "->":
            count[0] += 1
            name = f"v{count[0]}"
            return lam(name, ty[1], go(ty[2], scope + [(name, ty[1])], fuel))
        if fuel > 0:
            candidates = [v for v in scope if split_arrows(v[1])[1] == ty]
        else:
            candidates = [v for v in scope if v[1] == ty]
        if not candidates:
            raise ValueError(f"no variable of type {show_type(ty)} in scope")
        name, vty = rng.choice(candidates)
        args, _ = split_arrows(vty)
        return apps(var(name), *(go(a, scope, fuel - 1) for a in args))

    return go(ty, [], fuel)


# the four product-free types of the equality/model cross-check
SEARCH_TYPES = (
    arrow(P, P, P),
    arrow(arrow(P, P), P, P),
    arrow(arrow(P, P), arrow(P, P), P, P),
    arrow(P, arrow(P, P), P),
)


def search_pairs(rng: random.Random, n: int, start: int):
    """``n`` seeded pairs over SEARCH_TYPES; a quarter are identical."""
    out = []
    for k in range(start, start + n):
        ty = SEARCH_TYPES[k % len(SEARCH_TYPES)]
        a = gen_closed_term(ty, rng)
        b = a if rng.random() < 0.25 else gen_closed_term(ty, rng)
        out.append((ty, a, b))
    return out


# ---------------------------------------------------------------------------
# Fixed pools

X1 = arrow(arrow(P, P), P)  # (p -> p) -> p; the pool's terms have type X1 -> p


def _nest(k_target: int, depth: int):
    """\\x1. x1 (\\x2. x1 (\\x3. ... x_k)) with ``depth`` inner binders."""
    body = var(f"x{k_target}")
    for d in range(depth + 1, 1, -1):
        body = apps(var("x1"), lam(f"x{d}", P, body))
    return lam("x1", X1, body)


TOWER_POOL = {
    "a": _nest(2, 1),
    "b2": _nest(2, 2), "b3": _nest(3, 2),
    "c2": _nest(2, 3), "c3": _nest(3, 3), "c4": _nest(4, 3),
}


def church(n: int):
    body = var("y")
    for _ in range(n):
        body = apps(var("f"), body)
    return lam("f", arrow(P, P), lam("y", P, body))


PP = prod(P, P)
_x = var("x")
_SWAP_A = lam("x", PP, ("pair", ("p1", _x), ("p2", _x)))
_SWAP_B = lam("x", PP, ("pair", ("p2", _x), ("p1", _x)))

# free variables of the one open two-valued pair
BATCH_FREE = {"f": arrow(P, P, P), "u": P, "v": P}

# (kind, label, a, b); for ccc, a and b translate the arrows in CCC_ARROWS
BATCH_POOL = (
    ("two", "church 1 vs 2", church(1), church(2)),
    ("two", "church 2 vs 3", church(2), church(3)),
    ("two", "K vs K*", lam("x", P, lam("y", P, var("x"))), lam("x", P, lam("y", P, var("y")))),
    ("two", "f y vs y",
     lam("f", arrow(P, P), lam("y", P, apps(var("f"), var("y")))),
     lam("f", arrow(P, P), lam("y", P, var("y")))),
    ("two", "f u v vs f v u", apps(var("f"), var("u"), var("v")), apps(var("f"), var("v"), var("u"))),
    ("prod", "swap", _SWAP_A, _SWAP_B),
    ("prod", "id vs swap", lam("x", PP, _x), _SWAP_B),
    ("prod", "<1,1> vs <1,2>", ("pair", church(1), church(1)), ("pair", church(1), church(2))),
    ("prod", "p1 vs p2", lam("x", PP, ("p1", _x)), lam("x", PP, ("p2", _x))),
    ("prod", "T*p projection",
     lam("u", prod(TERMINAL, P), lam("v", P, ("p2", var("u")))),
     lam("u", prod(TERMINAL, P), lam("v", P, var("v")))),
    ("ccc", "p1[p, p] vs p2[p, p]", lam("x", PP, ("p1", _x)), lam("x", PP, ("p2", _x))),
)

CCC_ARROWS = {"p1[p, p] vs p2[p, p]": ("p1[p, p]", "p2[p, p]")}


def type_of_closed(t, free=None):
    """Type of a term whose binders are annotated (the pools only)."""
    env = dict(free or {})

    def go(u, env):
        tag = u[0]
        if tag == "var":
            return env[u[1]]
        if tag == "unit":
            return TERMINAL
        if tag == "lam":
            return ("->", u[2], go(u[3], {**env, u[1]: u[2]}))
        if tag == "app":
            return go(u[1], env)[2]
        if tag == "pair":
            return ("*", go(u[1], env), go(u[2], env))
        inner = go(u[1], env)
        return inner[1 if tag == "p1" else 2]

    return go(t, env)
