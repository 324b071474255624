"""Benchmark runner for betaeta.

    python3 perfbench/run.py --workload tower|search|batch --seed N \\
        --seconds S --trace 0|1

Runs one workload as a closed loop with one client in this process, in
whole windows of cycles of the workload's items, until ``--seconds``
have passed and the workload's minimum number of cycles is done.  The
program is imported from ``src/`` next to this directory; nothing is
installed.  perfbench/README.md defines the workloads and metrics.

End-to-end timings are scaled to a nominal machine speed by a fixed
reference loop timed at every window boundary (see ``machine_speed``).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
items alternate untraced and traced within each group of like inputs,
and it prints the per-layer metrics and writes the spans to
``.bench_out/``.  Every line before the
last is a human-readable report; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output was correct (budget failures, that is
Overflow, ResourceExhausted, RecursionError and NotSeparable, are
counted, not fatal), 1 on a wrong verdict, on any other exception or on
a vacuous check, 2 when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9          # set-ups timed per run; setup_s is their median
REFERENCE_CYCLES = 2       # traced counters cover the first two cycles
# The reference loop's time at the speed every timing is scaled to: its
# time on the 2-vCPU Xeon machine the benchmark was tuned on, when quiet.
REF_NOMINAL_S = 0.009
_REF_TABLE = list(range(1024))


def import_program():
    """Import betaeta from this checkout's src/ and nowhere else."""
    if not (SRC / "betaeta" / "__init__.py").is_file():
        fail(f"no betaeta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import betaeta
    import betaeta.cli  # certificate I/O; the package does not import it
    if Path(betaeta.__file__).resolve().parent != SRC / "betaeta":
        fail(f"imported betaeta from {betaeta.__file__}, not {SRC}")
    return betaeta


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(workload, seed):
    """Import the program and build the workload's inputs: the set-up that
    ``setup_s`` times."""
    from workloads import WORKLOADS
    program = import_program()
    return WORKLOADS[workload](program, seed)


def setup_samples(args):
    """Time the set-up in fresh interpreters, one after the other."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def machine_speed():
    """Time of a fixed integer loop (median of three), which shares no code
    with the program and allocates nothing the collector tracks, so a change
    to the program's collector settings cannot move it.  It slows down with
    the machine: in a minute when batch cycle times varied by 20 % (CV over
    5-second bins), their ratio to this loop varied by 6.5 %."""
    samples = []
    table = _REF_TABLE
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x = (x * 31 + table[i & 1023]) & 0xFFFF
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """Untraced tallies of a few consecutive cycles, about a second of work
    on search and batch and one cycle on tower, with the reference loop's
    time at its start and end."""

    def __init__(self, ref_start):
        self.item_s: list[float] = []
        self.correct = 0
        self.separate_s = self.verify_s = 0.0
        self.cycles = 0
        self.ref = [ref_start]

    @property
    def slowdown(self):
        """How much slower than nominal the machine ran in this window."""
        return statistics.fmean(self.ref) / REF_NOMINAL_S


class Run:
    """The timed loop and its tallies."""

    def __init__(self, wl, seconds, tracer=None):
        self.wl = wl
        self.seconds = seconds
        self.tracer = tracer
        self.traced_s: list[float] = []    # traced item wall times
        # group -> ([untraced wall times], [traced wall times])
        self.by_group: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
        self.windows: list[Window] = []
        self.attempted = self.refused = self.failed = 0
        self.wrong: list[str] = []
        self.cert_bytes = 0
        self.cycles = 0
        self.rss_mb = None
        self._shown_traceback = False
        errors = wl.p.errors
        # the exceptions that are budget failures, not wrong verdicts
        self.budget = (errors.Overflow, errors.ResourceExhausted, RecursionError,
                       errors.NotSeparable)

    def loop(self):
        wl, tracer = self.wl, self.tracer
        start = time.perf_counter()
        seen = Counter()  # occurrences per group, to alternate within each
        while True:
            if self.cycles % wl.window_cycles == 0:
                ref = machine_speed()
                if self.windows:
                    self.windows[-1].ref.append(ref)
                self.windows.append(Window(ref))
            self.windows[-1].cycles += 1
            for spec in wl.cycle(self.cycles):
                if wl.collect_each_item:
                    gc.collect()
                traced = tracer is not None and seen[spec.group] % 2 == 1
                seen[spec.group] += 1
                counting = traced and self.cycles < REFERENCE_CYCLES
                self.item(spec, traced, counting)
            self.cycles += 1
            if self.cycles == wl.rss_cycles:
                self.rss_mb = peak_rss_mb()
            if (time.perf_counter() - start >= self.seconds
                    and self.cycles >= max(wl.min_cycles, REFERENCE_CYCLES if tracer else 1)
                    and self.cycles % wl.window_cycles == 0
                    and (tracer is None or self.cycles % 2 == 0)):
                self.windows[-1].ref.append(machine_speed())
                break

    def item(self, spec, traced, counting):
        self.attempted += 1
        result = error = None
        window = self.windows[-1]
        if traced:
            tracer = self.tracer
            nodes = tracer.nodes()
            tracer.counting = counting
            with tracer.installed(), tracer.item() as wall:
                try:
                    result = self.wl.run(spec)
                except Exception as exc:  # an item failure never aborts the run
                    error = exc
            tracer.counting = False
            self.traced_s.append(wall[0])
            self.by_group[spec.group][1].append(wall[0])
            if counting:
                tracer.counts["syntax.nodes"] += tracer.nodes() - nodes
                if result is not None:
                    tracer.counts["cli.cert_bytes"] += result.cert_bytes
        else:
            t0 = time.perf_counter()
            try:
                result = self.wl.run(spec)
            except Exception as exc:  # an item failure never aborts the run
                error = exc
            wall = time.perf_counter() - t0
            window.item_s.append(wall)
            self.by_group[spec.group][0].append(wall)

        if error is not None:
            if spec.refusal is not None and isinstance(error, spec.refusal):
                self.refused += 1
                return
            if isinstance(error, self.budget):
                self.failed += 1
            else:
                # EqualTerms on distinct inputs, a failed self-check or a
                # certificate the program cannot read back: a wrong verdict
                self.wrong.append(f"{spec.label}: {type(error).__name__}: {error}")
            if not self._shown_traceback:
                self._shown_traceback = True
                print(f"perfbench: item '{spec.label}' failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
            return
        if not traced:
            window.separate_s += result.separate_s
            window.verify_s += result.verify_s
        self.cert_bytes += result.cert_bytes
        reason = self.wl.check(spec, result)
        if reason is None:
            window.correct += not traced
        else:
            self.failed += 1
            self.wrong.append(f"{spec.label}: {reason}")


def end_to_end(run, setup):
    """Timings pool every window, each scaled to the nominal machine speed
    by the reference loop timed at its start and end.  The machine this was
    tuned on drifted by 20 to 40 % over minutes, which unscaled would
    decide most of the spread between runs."""
    wins = run.windows
    items = [t / w.slowdown for w in wins for t in w.item_s]
    cycles = sum(w.cycles for w in wins)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (sum(w.correct for w in wins) / sum(items), "1/s"),
        "item_p50_s": (statistics.median(items), "s"),
        "item_p90_s": (percentile(items, 90), "s"),
        "separate_s": (sum(w.separate_s / w.slowdown for w in wins) / cycles, "s"),
        "verify_s": (sum(w.verify_s / w.slowdown for w in wins) / cycles, "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }


# per-layer time metric -> span whose self time it reports
LAYER_TIMES = {
    "normalize.decide_s": "normalize.decide_eq",
    "models.distinguish_s": "models.distinguish",
    "models.kappa_s": "models.kappa",
    "models.define_s": "models.define_functional",
    "numerals.build_s": "numerals.build",
    "syntax.parse_s": "syntax.parse",
    "syntax.substitute_s": "syntax.substitute",
    "separator.separate_self_s": "separator.separate",
    "separator.verify_self_s": "separator.verify",
    "products.separate_s": "products.separate_prod",
    "products.verify_s": "products.verify_product",
    "products.iso_s": "products.build_iso",
    "ccc.collapse_s": "ccc.collapse",
    "ccc.replay_s": "ccc.replay_collapse",
    "cli.serialize_s": "cli.serialize_certificate",
    "cli.parse_s": "cli.parse_certificate",
}

# per-layer counter -> tracer count key
LAYER_COUNTS = {
    "normalize.steps_self_check": "normalize.steps_self_check",
    "normalize.steps_verify": "normalize.steps_verify",
    "normalize.steps_other": "normalize.steps_other",
    "normalize.decide_calls": "normalize.decide_eq.calls",
    "models.distinguish_calls": "models.distinguish.calls",
    "models.define_nodes": "models.define_nodes",
    "numerals.calls": "numerals.build.calls",
    "numerals.nodes": "numerals.nodes",
    "syntax.nodes": "syntax.nodes",
    "cli.cert_bytes": "cli.cert_bytes",
}


def per_layer(run):
    """Times are self time per traced item times the cycle length, so a
    value is seconds per cycle; counts are exact over the traced items of
    the first two cycles."""
    from tracer import ITEM
    tracer = run.tracer
    n = len(run.traced_s)
    per_cycle = run.wl.cycle_len / n
    out = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = (tracer.self_time.get(span, 0.0) * per_cycle, "s")
    for metric, key in LAYER_COUNTS.items():
        out[metric] = (tracer.counts.get(key, 0), "count")
    out["trace.wall_s"] = (sum(run.traced_s) * per_cycle, "s")
    out["trace.glue_s"] = (tracer.self_time.get(ITEM, 0.0) * per_cycle, "s")
    both = [(u, t) for u, t in run.by_group.values() if u and t]
    out["trace.overhead_ratio"] = (
        sum(statistics.fmean(t) for _, t in both) / sum(statistics.fmean(u) for u, _ in both),
        "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tower", "search", "batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        factor = machine_speed() / REF_NOMINAL_S
        t0 = time.perf_counter()
        set_up(args.workload, args.seed)
        print((time.perf_counter() - t0) / factor)
        return 0

    import_program()  # fail before spawning anything when src/ is missing
    samples = setup_samples(args)
    factor = machine_speed() / REF_NOMINAL_S
    t0 = time.perf_counter()
    wl = set_up(args.workload, args.seed)
    samples.append((time.perf_counter() - t0) / factor)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(wl.p)
    run = Run(wl, args.seconds, tracer)
    run.loop()

    vacuous = wl.vacuous()
    if vacuous:
        run.wrong.append(vacuous)
    metrics = per_layer(run) if tracer else end_to_end(run, samples)

    print(f"workload {args.workload} seed {args.seed}: {run.cycles} cycles, "
          f"{run.attempted} items attempted, {run.refused} refused by a budget, "
          f"{run.failed} failed; one process, closed loop, one client")
    print(f"fail_ratio = {(run.failed + run.refused) / run.attempted} "
          f"(failed + refused over attempted)")
    print(f"cert_bytes = {run.cert_bytes} bytes")
    if not tracer:
        raw = [t for w in run.windows for t in w.item_s]
        slow = [w.slowdown for w in run.windows]
        print(f"unscaled: items_per_s = {sum(w.correct for w in run.windows) / sum(raw)} 1/s, "
              f"item_p50_s = {statistics.median(raw)} s; machine slowdown "
              f"{min(slow):.3f} to {max(slow):.3f} (reference loop over {REF_NOMINAL_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for reason in run.wrong[:5]:
        print(f"WRONG {reason}", file=sys.stderr)
    if len(run.wrong) > 5:
        print(f"WRONG ... {len(run.wrong)} in all", file=sys.stderr)
    if tracer:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    correct = not run.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
