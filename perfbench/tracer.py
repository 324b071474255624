"""Spans around calls into the program's modules, recorded from outside.

Inside ``Tracer.installed()`` each traced public function is replaced in
every ``betaeta`` module namespace that binds it, so a call is caught
whether its caller looks the function up as a module attribute
(``M.distinguish``) or through a name imported with ``from .normalize
import decide_eq``.  The originals are put back when the block ends.

A span is recorded only inside an item (``Tracer.item``), and only for
the outermost call of its group, so recursive entries such as ``kappa``
and ``define_functional`` give one span per outermost call.  Self time is
a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (module, function names); the name is also the group
GROUPS = {
    "normalize.decide_eq": ("normalize", ("decide_eq",)),
    "models.distinguish": ("models", ("distinguish",)),
    "models.kappa": ("models", ("kappa",)),
    "models.define_functional": ("models", ("define_functional",)),
    "numerals.build": ("numerals", (
        "church", "cond", "lower", "expo", "add", "mul", "pairing", "proj_first",
        "proj_second", "step_pair", "fold_pairs", "pred", "raise_one", "check",
        "lowering_pair", "combinator")),
    "syntax.parse": ("syntax", ("parse_term", "parse", "parse_type", "elaborate",
                                "parse_alias_table")),
    "syntax.substitute": ("syntax", ("substitute_types", "substitute_term")),
    "separator.separate": ("separator", ("separate", "separate_two")),
    "separator.verify": ("separator", ("verify",)),
    "products.separate_prod": ("products", ("separate_prod",)),
    "products.verify_product": ("products", ("verify_product",)),
    "products.build_iso": ("products", ("build_iso",)),
    "ccc.collapse": ("ccc", ("collapse",)),
    "ccc.replay_collapse": ("ccc", ("replay_collapse",)),
    "cli.serialize_certificate": ("cli", ("serialize_certificate",)),
    "cli.parse_certificate": ("cli", ("parse_certificate",)),
}

MODULES = ("syntax", "normalize", "numerals", "models", "separator", "products", "ccc", "cli")

ITEM = "bench.item"

# decide_eq steps are credited to the nearest of these enclosing spans
_VERIFY_SPANS = {"separator.verify", "products.verify_product", "ccc.replay_collapse"}
_SELF_CHECK_SPANS = {"separator.separate"}

# groups whose interned-node growth is counted
_NODE_GROUPS = {"models.define_functional": "models.define_nodes",
                "numerals.build": "numerals.nodes"}


class Tracer:
    def __init__(self, program):
        self._modules = {name: getattr(program, name) for name in MODULES}
        self._package = program
        self.nodes = program.syntax.interned_term_count
        # the step counter that decide_eq resets on entry; absent, no steps are counted
        self._work = getattr(program.normalize, "_WORK", None)
        self._busy: set[str] = set()
        self._stack: list[list] = []  # [name, start, child_time, span_index]
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.counting = False
        self._t0 = time.perf_counter()
        self.bindings = self._bindings()

    # -- installation -------------------------------------------------------

    def _bindings(self):
        """(namespace, name, original, wrapper) for every binding of a traced
        function in the program's namespaces."""
        namespaces = list(self._modules.values()) + [self._package]
        out = []
        for group, (module, names) in GROUPS.items():
            for fname in names:
                original = getattr(self._modules[module], fname, None)
                if original is None:
                    print(f"perfbench: {module}.{fname} not found; span {group} misses it",
                          file=sys.stderr)
                    continue
                wrapper = self._wrap(original, group)
                for ns in namespaces:
                    out.extend((ns, key, original, wrapper)
                               for key, value in vars(ns).items() if value is original)
        return out

    @contextmanager
    def installed(self):
        """Route the program's calls through the wrappers for the block."""
        for ns, key, _, wrapper in self.bindings:
            setattr(ns, key, wrapper)
        try:
            yield
        finally:
            for ns, key, original, _ in self.bindings:
                setattr(ns, key, original)

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def _close(self):
        name, start, child, index = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (name, start - self._t0, end - self._t0, self.spans[index][3])
        return duration

    def _enclosing_role(self):
        for frame in reversed(self._stack):
            if frame[0] in _VERIFY_SPANS:
                return "verify"
            if frame[0] in _SELF_CHECK_SPANS:
                return "self_check"
        return "other"

    def _wrap(self, fn, group):
        tracer = self
        busy = self._busy
        work = self._work
        nodes = self.nodes
        node_counter = _NODE_GROUPS.get(group)
        is_decide = group == "normalize.decide_eq" and work is not None

        def wrapper(*args, **kwargs):
            if group in busy or not tracer._stack:
                return fn(*args, **kwargs)
            busy.add(group)
            before = nodes() if node_counter else 0
            if is_decide:
                work[0] = 0
            tracer._open(group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
                busy.discard(group)
                if tracer.counting:
                    c = tracer.counts
                    c[group + ".calls"] += 1
                    if node_counter:
                        c[node_counter] += nodes() - before
                    if is_decide:
                        c["normalize.steps_" + tracer._enclosing_role()] += work[0]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    @contextmanager
    def item(self):
        """Root span of one traced item; yields a list that receives the
        item's wall time when the block ends."""
        wall = []
        self._open(ITEM)
        try:
            yield wall
        finally:
            wall.append(self._close())

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")

