"""The three workloads: inputs from a seed, the timed program calls of
one item, and the per-item correctness gate.

``run(spec)`` makes only the program calls an item times; ``check(spec,
result)`` runs after the timer stops and returns ``None`` or the reason
the output is wrong.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import corpus as K


@dataclass
class Spec:
    label: str
    kind: str            # "two" | "prod" | "ccc" | "search"
    a: object            # program terms (ccc: arrows); search: surface texts
    b: object
    distinct: bool       # the independent long forms differ
    refusal: type | None = None  # an exception that is a documented outcome
    group: str = ""      # inputs alike in cost; traced runs alternate within a group


@dataclass
class Result:
    separate_s: float
    verify_s: float
    cert_bytes: int = 0
    payload: tuple = ()


class Workload:
    collect_each_item = False
    _made: tuple = (-1, [])  # (index, items) of the last cycle drawn

    def __init__(self, program, seed):
        self.p = program
        self.rng = random.Random(seed)

    def cycle(self, c):
        """The items of cycle ``c``.  Cycles come from one seeded stream, so
        they are drawn in order and only the last one is kept."""
        if c != self._made[0]:
            assert c == self._made[0] + 1, "cycles are drawn in order"
            self._made = (c, self.draw(c))
        return self._made[1]

    def vacuous(self):
        """Why the run's checks proved nothing, or None."""
        return None


class CertificateWorkload(Workload):
    """Produce a certificate, serialize it, parse it back and verify it."""

    inputs: list[Spec]

    def _closed(self, label, kind, a, b, free=None, refusal=None):
        S = self.p.syntax
        ty = K.type_of_closed(a, free)
        distinct = K.long_form(a, ty, free) != K.long_form(b, ty, free)
        ctx = S.Context([(n, S.parse_type(K.show_type(t))) for n, t in (free or {}).items()])
        a_text = K.show(K.rename(a, self.rng))
        b_text = K.show(K.rename(b, self.rng))
        return Spec(label, kind, S.parse_term(a_text, ctx), S.parse_term(b_text, ctx),
                    distinct, refusal, label)

    def draw(self, c):
        """Every input once, in a new seeded order, so that no input always
        follows the same one."""
        order = list(self.inputs)
        self.rng.shuffle(order)
        return order

    def run(self, spec):
        p = self.p
        t0 = time.perf_counter()
        if spec.kind == "two":
            cert = p.separator.separate_two(spec.a, spec.b)
        elif spec.kind == "prod":
            cert = p.products.separate_prod(spec.a, spec.b)
        else:
            cert = p.ccc.collapse(spec.a, spec.b)
        text = p.cli.serialize_certificate(cert)
        t1 = time.perf_counter()
        parsed = p.cli.parse_certificate(text)
        ok = p.cli.verify_certificate(parsed)
        t2 = time.perf_counter()
        return Result(t1 - t0, t2 - t1, len(text), (text, parsed, ok))

    def check(self, spec, result):
        p = self.p
        text, parsed, ok = result.payload
        if not spec.distinct:
            return "the inputs are not distinct normal forms"
        if p.cli.serialize_certificate(parsed) != text:
            return "serialize(parse(text)) != text"
        if spec.kind == "ccc":
            show = p.ccc.show_arrow
            sources = (parsed.f, parsed.g)
        else:
            show = p.syntax.show_term
            sources = (parsed.a_source, parsed.b_source)
        if (show(sources[0]), show(sources[1])) != (show(spec.a), show(spec.b)):
            return "the certificate names other sources than the inputs"
        if ok is not True:
            return "verify rejected the certificate"
        return None


class Tower(CertificateWorkload):
    """Level-20 separations at ((p->p)->p)->p: the worked pair three
    times, one depth-3 pair, and the pair whose base-3 search space is
    over the cap."""

    name = "tower"
    cycle_len = 5
    rss_cycles = window_cycles = 1
    min_cycles = 4
    # items take seconds; collecting first keeps one pair's garbage out of
    # the next pair's time
    collect_each_item = True
    # the worked pair repeats so that item_p50_s, which it sets, has a
    # dozen samples in a run
    PAIRS = (("b2", "b3"),) * 3 + (("a", "c3"), ("c2", "c4"))

    def __init__(self, program, seed):
        super().__init__(program, seed)
        overflow = program.errors.Overflow
        specs = [self._closed(f"{x} vs {y}", "two", K.TOWER_POOL[x], K.TOWER_POOL[y],
                              refusal=overflow if (x, y) == ("c2", "c4") else None)
                 for x, y in self.PAIRS]
        self.inputs = specs


class Batch(CertificateWorkload):
    """Many small certificates produced and replayed in one process."""

    name = "batch"
    cycle_len = len(K.BATCH_POOL)
    rss_cycles = min_cycles = 100
    window_cycles = 10

    def __init__(self, program, seed):
        super().__init__(program, seed)
        specs = []
        for kind, label, a, b in K.BATCH_POOL:
            if kind == "ccc":
                specs.append(self._arrows(label, a, b))
            else:
                free = K.BATCH_FREE if label == "f u v vs f v u" else None
                specs.append(self._closed(label, kind, a, b, free))
        self.inputs = specs

    def _arrows(self, label, a_lambda, b_lambda):
        ty = K.type_of_closed(a_lambda)
        distinct = K.long_form(a_lambda, ty) != K.long_form(b_lambda, ty)
        f_text, g_text = K.CCC_ARROWS[label]
        parse = self.p.ccc.parse_arrow
        return Spec(label, "ccc", parse(f_text), parse(g_text), distinct, group=label)


class Search(Workload):
    """The eq command and the model search on seeded random pairs."""

    name = "search"
    cycle_len = 100
    rss_cycles = min_cycles = 10
    window_cycles = 5

    def __init__(self, program, seed):
        super().__init__(program, seed)
        self.equal = self.separated = 0
        self.cycle(0)

    def draw(self, c):
        specs = []
        for ty, a, b in K.search_pairs(self.rng, self.cycle_len, c * self.cycle_len):
            distinct = K.long_form(a, ty) != K.long_form(b, ty)
            specs.append(Spec("search", "search", K.show(a), K.show(b), distinct,
                              group=K.show_type(ty)))
        return specs

    def run(self, spec):
        p = self.p
        t0 = time.perf_counter()
        a = p.syntax.parse_term(spec.a)
        b = p.syntax.parse_term(spec.b)
        eq = p.normalize.decide_eq(a, b)
        t1 = time.perf_counter()
        found = p.models.distinguish(a, b, 3)
        t2 = time.perf_counter()
        # the model search stands in for producing a separation, the
        # normalization decision for checking one
        return Result(t2 - t1, t1 - t0, 0, (eq, found))

    def check(self, spec, result):
        eq, found = result.payload
        if eq != (not spec.distinct):
            return f"decide_eq says {eq} but the long forms {'differ' if spec.distinct else 'agree'}"
        if eq and found is not None:
            return "distinguish separated a provably equal pair"
        if not eq and found is None:
            # the generator's fuel is 3; on seeds 1 to 40 (40 000 unequal
            # pairs) base 3 separated every unequal pair
            return "decide_eq says unequal but distinguish found no model up to base 3"
        if eq:
            self.equal += 1
        elif found is not None:
            self.separated += 1
        return None

    def vacuous(self):
        if not (self.equal and self.separated):
            return f"{self.equal} equal and {self.separated} separated pairs: the check is vacuous"
        return None


WORKLOADS = {w.name: w for w in (Tower, Search, Batch)}
