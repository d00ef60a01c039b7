"""symbalg benchmark: run one workload and print every metric.

From the repository root, without installing the package:

    python3 perfbench/run.py --workload products --seed 1 --seconds 25 --trace 0

Workloads (see README.md): products, elimination, local_sweep, cli.  Each
runs as a closed loop with one client and at most one child process.
Inputs come from ``--seed`` and are generated, deck by deck, outside the
timed window; the timed window is the sum of the operations' own times.
Outputs are checked afterwards by the independent oracles in oracle.py.

``--trace 0`` reports the end-to-end metrics, with times scaled to a fixed
machine speed read from the workload's reference task (README.md, "Scaled
times").  ``--trace 1`` alternates
untraced and traced decks, and reports the per-layer metrics measured
around the benchmark's own calls into each symbalg module, plus the
tracing overhead (mean operation time of traced over untraced decks).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15  # spread over the run, so their median sees the machine the run saw
MIN_OPS = 120  # so that at least ten samples lie beyond op_ms_p90
OP_LIMIT_S = 60.0  # an in-process operation slower than this counts as failed

# The machine's speed, read from the workload's reference task between
# operations; untraced times are scaled to the speed at which the task
# takes its nominal time (see README.md, "Scaled times").
REF_EVERY_S = 0.25  # busy seconds between two readings
REF_WINDOW = 5  # readings around a time whose median gives the speed there

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# every symbalg call the workloads time, named <module>.<function>
LAYERS = (
    "quaternion.mul",
    "quaternion.norm",
    "symbol.mul_n2",
    "symbol.mul_n3",
    "fields.mul",
    "fields.inv",
    "linalg.solve",
    "linalg.determinant",
    "symbol.left_regular_matrix",
    "symbol.rep_apply",
    "symbol.find_zero_divisor",
    "intmath.is_prime",
    "eisenstein.factor_rational_prime",
    "eisenstein.cubic_residue_symbol",
    "eisenstein.valuation",
    "eisenstein.divmod",
    "local.LocalAlgebraSpec",
    "local.classify_report",
    "quaternion.norm_form_zero_search",
    "cli.main",
    "cli.demo_report",
)
LAYER_STATS = {"calls": "count", "busy_s": "s", "us_p50": "us"}
LAYER_COUNTS = {
    "fields.result_digits_p50": "count",
    "eisenstein.factor_cache.hit_ratio": "ratio",
    "quaternion.norm_form_zero_search.peak_kib": "KiB",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.envelope_violations": "count",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict:
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_STATS.items()}
    units.update(LAYER_COUNTS)
    return units


def direct(name, fn, *args):
    return fn(*args)


def scaled(timed, readings, nominal_s) -> list:
    """Each (busy, seconds) in ``timed`` as seconds at the speed where the
    reference task takes ``nominal_s``, the speed at ``busy`` being the
    median of the REF_WINDOW readings, (busy, seconds) in busy order,
    nearest to it."""
    at = [busy for busy, _ in readings]
    out = []
    for busy, seconds in timed:
        i = bisect.bisect_left(at, busy) - REF_WINDOW // 2
        i = max(0, min(i, len(readings) - REF_WINDOW))
        out.append(seconds * nominal_s / statistics.median(r for _, r in readings[i:i + REF_WINDOW]))
    return out


class Tracer:
    """Spans around the benchmark's calls into symbalg, kept in memory:
    (name, start_ns, end_ns, index of the operation that made the call)."""

    def __init__(self):
        self.spans = []
        self.op = -1

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), self.op))

    def layer_metrics(self) -> dict:
        durations = {layer: [] for layer in LAYERS}
        for name, start, end, _ in self.spans:
            durations[name].append(end - start)
        out = {}
        for layer, values in durations.items():
            out[f"{layer}.calls"] = len(values)
            out[f"{layer}.busy_s"] = sum(values) / 1e9
            out[f"{layer}.us_p50"] = statistics.median(values) / 1e3 if values else 0.0
        return out


class Runner:
    """Closed loop over decks; keeps a seeded reservoir of outputs for the
    oracle so memory and checking time do not grow with throughput."""

    def __init__(self, workload, seed: int):
        self.wl = workload
        self.rng = random.Random(seed)
        self.sample_rng = random.Random(f"sample-{seed}")
        self.kept = []
        self.seen = 0
        self.attempted = 0
        self.raised = Counter()
        self.first_deck = None
        self.busy_at = []  # busy time at the end of each operation, all modes

    def phase(self, seconds: float, modes, min_ops=0, between=None) -> list:
        """Run decks until ``seconds`` of busy time; deck i runs under
        modes[i % len(modes)], a (call, tracer) pair, so that traced and
        untraced decks see the same machine conditions.  ``between(busy)``,
        if given, runs after each operation, outside the timed window.
        Returns the latencies of each mode."""
        latencies = [[] for _ in modes]
        busy, decks = 0.0, 0
        while busy < seconds or sum(map(len, latencies)) < min_ops:
            call, tracer = modes[decks % len(modes)]
            deck = self.wl.deck(self.rng)
            done = []
            for op in deck:
                if tracer is not None:
                    tracer.op += 1
                start = time.perf_counter()
                try:
                    out = op.run(call)
                except Exception as exc:  # a failing operation is counted, not fatal
                    out = exc
                elapsed = time.perf_counter() - start
                busy += elapsed
                latencies[decks % len(modes)].append(elapsed)
                self.busy_at.append(busy)
                done.append((op, out, elapsed))
                if between is not None:
                    between(busy)
            decks += 1
            self.attempted += len(done)
            for op, out, elapsed in done:
                if isinstance(out, Exception):
                    self.raised[f"{op.kind}: {type(out).__name__}: {out}"] += 1
                elif elapsed > OP_LIMIT_S:
                    self.raised[f"{op.kind}: over {OP_LIMIT_S} s"] += 1
                else:
                    self.keep(op, out)
            if self.first_deck is None:
                self.first_deck = self.wl.first_deck_counts([(op, out) for op, out, _ in done])
        return latencies

    def keep(self, op, out):
        self.seen += 1
        if len(self.kept) < self.wl.sample_size:
            self.kept.append((op, out))
        else:
            j = self.sample_rng.randrange(self.seen)
            if j < self.wl.sample_size:
                self.kept[j] = (op, out)

    def wrong(self) -> Counter:
        wrong = Counter()
        for op, out in self.kept:
            try:
                ok = op.check(out)
            except Exception:  # malformed output that the oracle cannot read
                ok = False
            if not ok:
                wrong[op.kind] += 1
        return wrong


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def line(name, value, unit, note=""):
    print(f"{name:<46} {value:>16.6f} {unit:<8} {note}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "symbalg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symbalg sources under {SRC}")
    # one CPU for the runner and its children, so that the reference task
    # reads the speed of the CPU the operations run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    # installed users import symbalg from byte-code caches, so write them
    # (under src/, inside the checkout) even where the environment says not to
    sys.dont_write_bytecode = False
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"meta": meta}, sort_keys=True))

    wl = workloads.WORKLOADS[args.workload](ROOT)
    setups, readings = [], []  # (busy time, seconds)

    def set_up(busy=0.0):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        start = time.perf_counter()
        wl.setup()
        setups.append((busy, time.perf_counter() - start))

    if not args.trace:
        readings.append((0.0, wl.reference_s()))
    set_up()
    if wl.m is not None and not Path(wl.m.fields.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: symbalg was imported from {wl.m.fields.__file__}, not {SRC}")

    runner = Runner(wl, args.seed)
    notes = {}
    if args.trace:
        tracer = Tracer()
        cache_before = wl.factor_cache() or (0, 0)
        untraced, traced = runner.phase(args.seconds, [(direct, None), (tracer.call, tracer)])
        counts = dict(runner.first_deck)
        wl.probe(tracer.call, counts, runner.rng)
        cache_after = wl.factor_cache() or (0, 0)
        hits, misses = (after - before for after, before in zip(cache_after, cache_before))
        counts["eisenstein.factor_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        counts["trace.overhead_pct"] = 100 * (statistics.fmean(traced) / statistics.fmean(untraced) - 1)
        metrics = tracer.layer_metrics()
        for name in LAYER_COUNTS:
            metrics[name] = counts.get(name, 0)
        units = per_layer_units()
    else:
        # set up again at even steps of busy time, between operations: a
        # set-up replaces the program state the next deck is dealt from
        steps = iter([args.seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)])
        step = next(steps)
        next_reading = REF_EVERY_S

        def between(busy):
            nonlocal step, next_reading
            while busy >= next_reading:
                readings.append((busy, wl.reference_s()))
                next_reading += REF_EVERY_S
            while step is not None and busy >= step:
                set_up(busy)
                step = next(steps, None)

        (raw_s,) = runner.phase(args.seconds, [(direct, None)], min_ops=MIN_OPS, between=between)
        nominal = wl.reference_nominal_s
        latencies = scaled(zip(runner.busy_at, raw_s), readings, nominal)
        setup_times = scaled(setups, readings, nominal)
        busy = sum(latencies)
        ms = sorted(x * 1e3 for x in latencies)
        p90 = statistics.quantiles(ms, n=10)[-1]
        beyond = sum(1 for x in ms if x > p90)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(ms) / busy,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": p90,
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        units = END_TO_END
        raw = sorted(x * 1e3 for x in raw_s)
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups spread over the run; unscaled {statistics.median(s for _, s in setups):.6f}",
            "ops_per_s": f"{len(ms)} ops in {busy:.2f} scaled s busy, one client; unscaled {len(raw) / sum(raw) * 1e3:.4f}",
            "op_ms_p50": f"n={len(ms)}; unscaled {statistics.median(raw):.6f}",
            "op_ms_p90": f"n={len(ms)}, {beyond} beyond; unscaled {statistics.quantiles(raw, n=10)[-1]:.6f}",
        }
        print(f"reference task: median {statistics.median(r for _, r in readings) * 1e3:.4f} ms over"
              f" {len(readings)} readings; times scaled to {nominal * 1e3:g} ms")

    wrong = runner.wrong()
    failed = sum(runner.raised.values()) + sum(wrong.values())
    for name, unit in units.items():
        line(name, metrics[name], unit, notes.get(name, ""))
    line("error_rate", failed / runner.attempted, "failed/attempted",
         f"{failed}/{runner.attempted}; {len(runner.kept)} outputs checked by the oracle")
    for what, n in sorted(runner.raised.items()):
        print(f"raised {n}x {what}")
    for kind, n in sorted(wrong.items()):
        print(f"wrong output {n}x {kind}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
