"""ambit benchmark: one seeded workload per run, result as one JSON line.

    python3 perfbench/run.py --workload cps_deep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; ambit is imported from `src/`.
A run repeats passes of the workload until `--seconds` have gone by (at
least one pass).  Each pass gets a freshly imported ambit and a new
`Machine`, and that set-up is timed apart from the pass.  A shared host
runs slower by up to a third for seconds at a time, so the median of a
run's passes moves from run to run, while the fastest of many short samples
does not.  So `run_s` and the response percentiles take each request, and
each segment of consecutive requests, at its fastest over the run's passes
(see `Fastest`).

`--trace 0` reports the end-to-end metrics and wraps nothing.  `--trace 1`
repeats rounds of three passes, untraced with stack traces on, untraced
with them off, and traced, and reports the per-layer metrics; the spans of
the first traced pass go to `perfbench/out/spans-<workload>.tsv.gz`.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

import argparse
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A pass is timed in segments of consecutive requests that took at least
# this long in the first pass: long enough that a request's own jitter
# averages out, short enough to fall within one fast spell of the host.
SEGMENT_MS = 50.0

# Set-up and cold start are sampled at least this often per run, spread
# over the run so that slow and fast spells of a shared host both land in
# it; set-up reports the median, cold start the fastest.
SETUP_SAMPLES = 15
COLD_START_SAMPLES = 40

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "response_ms.p50": "ms",
    "response_ms.p99": "ms",
    "peak_rss_mib": "MiB",
    "cold_start_s": "s",
}

PER_LAYER = {
    "reader.time_s": "s",
    "reader.calls": "count",
    "reader.chars_per_s": "1/s",
    "syntax.time_s": "s",
    "syntax.calls": "count",
    "syntax.match_hit_ratio": "ratio",
    "forms.time_s": "s",
    "forms.calls": "count",
    "forms.nodes_out": "count",
    "machine.self_s": "s",
    "machine.trampoline_calls": "count",
    "machine.cont_allocations": "count",
    "primitives.time_s": "s",
    "primitives.calls": "count",
    "trace.time_s": "s",
    "trace.overhead_s": "s",
    "trace.high_water": "count",
    "writer.time_s": "s",
    "writer.calls": "count",
    "writer.chars": "count",
    "gc.time_s": "s",
    "gc.collections.gen0": "count",
    "gc.collections.gen1": "count",
    "gc.collections.gen2": "count",
    "cli.self_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
    "tracing.wrapper_ns": "ns",
    "tracing.correction_s": "s",
}


def setup(prelude, stack_trace=True):
    """Import ambit afresh, boot a Machine, load the workload's definitions.

    Returns (seconds taken, machine).  A full collection first, untimed,
    frees the previous pass's machine and modules, so every set-up and pass
    starts from the same heap."""
    gc.collect()
    for name in [n for n in sys.modules if n == "ambit" or
                 n.startswith("ambit.")]:
        del sys.modules[name]
    start = time.perf_counter()
    ambit = importlib.import_module("ambit")
    importlib.import_module("ambit.cli")
    machine = ambit.Machine(stdout=io.StringIO(), stack_trace=stack_trace)
    machine.eval_source(prelude)
    return time.perf_counter() - start, machine


def cold_start():
    """Seconds for `python -m ambit.cli -e "(+ 1 2)"`, and whether it
    printed 3."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "ambit.cli", "-e", "(+ 1 2)"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=60, check=False)
    elapsed = time.perf_counter() - start
    return elapsed, done.returncode == 0 and done.stdout == "3\n"


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def describe_tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for pct in range(50, 100):
        if n - (n * pct + 99) // 100 >= 10:
            best = pct
    return f"n={n}, p{best} has >=10 samples beyond it" if best else \
        f"n={n}, too few samples for a tail percentile"


def lower(fastest, times):
    """Lower each entry of `fastest` to the matching entry of `times`; the
    first call fills it."""
    for i, took in enumerate(times[:len(fastest)]):
        if took < fastest[i]:
            fastest[i] = took
    fastest.extend(times[len(fastest):])


class Fastest:
    """Each request's and each segment's fastest time over a run's passes.

    Every pass of a run makes the same requests in the same order.  The
    first pass fixes where segments start, each at least SEGMENT_MS long.
    Only the running minima are kept, so memory does not grow with the
    number of passes."""

    def __init__(self):
        self.requests = array("d")  # ms
        self.segments = array("d")  # ms
        self.starts = None

    def add(self, responses):
        if self.starts is None:
            self.starts, took = [0], 0.0
            for i, ms in enumerate(responses[:-1]):
                took += ms
                if took >= SEGMENT_MS:
                    self.starts.append(i + 1)
                    took = 0.0
        ends = self.starts[1:] + [len(responses)]
        lower(self.segments, [math.fsum(responses[a:b])
                              for a, b in zip(self.starts, ends)])
        lower(self.requests, responses)

    def run_s(self):
        return math.fsum(self.segments) / 1000.0


def end_to_end(inputs, run_pass, seconds, tally):
    setups, colds, times = [], [], []
    fastest = Fastest()

    def sample(share):
        while len(setups) < SETUP_SAMPLES * share:
            setups.append(setup(inputs.prelude)[0])
        while len(colds) < COLD_START_SAMPLES * share:
            took, ok = cold_start()
            colds.append(took)
            tally[0] += 1
            tally[1] += not ok

    started = time.perf_counter()
    while not times or time.perf_counter() < started + seconds:
        took, machine = setup(inputs.prelude)
        setups.append(took)
        result = run_pass(machine, inputs)
        del machine
        tally[0] += result.ops
        tally[1] += result.failed
        times.append(result.elapsed)
        fastest.add(result.responses)
        sample(min(1.0, (time.perf_counter() - started) / seconds))
    sample(1.0)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = fastest.run_s()
    print(f"passes={len(times)} items/pass={result.items} "
          f"ops/pass={result.ops} setups={len(setups)} "
          f"cold_starts={len(colds)}")
    print(f"pass wall time: median {statistics.median(times):.4f}s, "
          f"fastest {min(times):.4f}s; {len(fastest.segments)} segments "
          f"at their fastest {run_s:.4f}s")
    print(f"response_ms: {describe_tail(fastest.requests)}")
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "items_per_s": result.items / run_s,
        "response_ms.p50": percentile(fastest.requests, 50),
        "response_ms.p99": percentile(fastest.requests, 99),
        "peak_rss_mib": peak_rss,
        "cold_start_s": min(colds),
    }


def traced_pass(inputs, run_pass, tally, cost):
    _, machine = setup(inputs.prelude)
    rec = tracer.Recorder()
    allocations = machine.cont_allocations
    with tracer.instrument(rec, machine):
        result = run_pass(machine, inputs)
    tally[0] += result.ops
    tally[1] += result.failed
    self_s, calls, counts, correction = tracer.layer_totals(rec, cost)
    reader_s = self_s["reader"]
    values = {
        "reader.time_s": reader_s,
        "reader.calls": calls["reader"],
        "reader.chars_per_s": rec.reader_chars / reader_s if reader_s else 0.0,
        "syntax.time_s": self_s["syntax"],
        "syntax.calls": calls["syntax"],
        "syntax.match_hit_ratio": (rec.match_hits / rec.match_attempts
                                   if rec.match_attempts else 0.0),
        "forms.time_s": self_s["forms"],
        "forms.calls": calls["forms"],
        "forms.nodes_out": tracer.core_nodes(rec),
        "machine.self_s": self_s["machine"],
        "machine.trampoline_calls": counts.get(
            ("machine", "Machine.trampoline"), 0),
        "machine.cont_allocations": machine.cont_allocations - allocations,
        "primitives.time_s": self_s["primitives"],
        "primitives.calls": calls["primitives"],
        "trace.time_s": self_s["trace"],
        "trace.high_water": machine.trace.high_water,
        "writer.time_s": self_s["writer"],
        "writer.calls": calls["writer"],
        "writer.chars": rec.writer_chars,
        "gc.time_s": self_s["gc"],
        "cli.self_s": self_s["cli"],
        "tracing.spans": len(rec.start),
        "tracing.correction_s": correction,
    }
    for g in range(3):
        values[f"gc.collections.gen{g}"] = counts.get(("gc", f"gen{g}"), 0)
    return result.elapsed, values, self_s, correction, rec, result.responses


def per_layer(workload, seed, inputs, run_pass, seconds, tally):
    # the three kinds of pass, each timed as run_s is
    plain, untraced_off, traced = Fastest(), Fastest(), Fastest()
    rounds = []
    first = None
    cost = tracer.wrapper_cost()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for stack_trace, fastest in ((True, plain), (False, untraced_off)):
            _, machine = setup(inputs.prelude, stack_trace=stack_trace)
            result = run_pass(machine, inputs)
            tally[0] += result.ops
            tally[1] += result.failed
            fastest.add(result.responses)
            del machine
        origin = time.perf_counter()
        elapsed, values, self_s, correction, rec, responses = traced_pass(
            inputs, run_pass, tally, cost)
        traced.add(responses)
        rounds.append(values)
        if first is None:
            first = (elapsed, self_s, correction)
            path = HERE / "out" / f"spans-{workload}.tsv.gz"
            tracer.export(rec, path, workload, seed, origin)
        del rec
    # median_low keeps counts whole
    metrics = {name: statistics.median_low(r[name] for r in rounds)
               for name in rounds[0]}
    plain_s, off_s = plain.run_s(), untraced_off.run_s()
    metrics["trace.overhead_s"] = plain_s - off_s
    metrics["tracing.overhead_s"] = traced.run_s() - plain_s
    metrics["tracing.wrapper_ns"] = cost[0] * 1e9
    elapsed, self_s, correction = first
    print(f"rounds={len(rounds)} first traced pass {elapsed:.3f}s; run_s "
          f"traced {traced.run_s():.3f}s, untraced {plain_s:.3f}s "
          f"(stack trace off {off_s:.3f}s)")
    print(f"wrapper cost per call {cost[0] * 1e9:.0f} ns, "
          f"{cost[1] * 1e9:.0f} ns with a counting hook")
    print("self time by layer in the first traced pass:")
    for layer in tracer.LAYERS:
        print(f"  {layer:<11}{self_s[layer]:10.4f}s "
              f"{100.0 * self_s[layer] / elapsed:6.1f}%")
    rest = elapsed - sum(self_s.values()) - correction
    for name, took in (("(wrappers)", correction), ("(bench)", rest)):
        print(f"  {name:<11}{took:10.4f}s {100.0 * took / elapsed:6.1f}%")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ambit" / "__init__.py").is_file():
        print(f"run.py: no ambit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    generate, run_pass = WORKLOADS[args.workload]
    inputs = generate(random.Random(args.seed))
    tally = [0, 0]  # oracle-checked results attempted, failed
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"python={sys.version.split()[0]}")
    if args.trace:
        values = per_layer(args.workload, args.seed, inputs, run_pass,
                           args.seconds, tally)
        units = PER_LAYER
    else:
        values = end_to_end(inputs, run_pass, args.seconds, tally)
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:<26}{values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally[1] == 0,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
