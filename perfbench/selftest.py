"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that one small pass passes every oracle check,
that a second seed gives the same number of checks (every generator fixes
its sizes), and that a corrupted expected value is counted as a failed check.
It also checks that a traced pass puts back everything it wrapped, even when
the pass raises, that a wrapped call is found to cost something, that
`run.Fastest` keeps each request's and segment's fastest time, and that
BENCHMARK.json lists the metrics run.py reports.
Exits 1 if any check fails.
"""

import gc
import json
import random
import sys
import threading

import run
import tracer
from workloads import WORKLOADS

TINY = 0.01


def corrupt(workload, inputs):
    """Spoil expected values; returns how many checks must now fail."""
    if workload == "cps_deep":
        inputs.expected += 1
        return 1
    if workload == "choose_exhaust":
        program, expected = inputs.programs[0]
        inputs.programs[0] = (program, ["(wrong)"] + expected[1:])
        return 1
    inputs.outputs[0] += " wrong"
    line, frames = inputs.errors[0]
    inputs.errors[0] = (line, frames + 1)
    return 2


def one_pass(workload, inputs):
    _, run_pass = WORKLOADS[workload]
    _, machine = run.setup(inputs.prelude)
    return run_pass(machine, inputs)


def global_state(machine):
    """Everything a traced pass may touch, by identity."""
    mods = sys.modules
    names = {(module, attr): getattr(mods[module], attr)
             for module in mods if module.startswith("ambit.")
             for attr in ("read_all", "parse_core", "expand", "match_pattern",
                          "define_macro", "parse_define_syntax",
                          "write_value", "display_value", "render_traceback",
                          "repl_loop")
             if hasattr(mods[module], attr)}
    trace_stack = mods["ambit.trace"].TraceStack
    names.update({("TraceStack", attr): trace_stack.__dict__[attr]
                  for attr in ("snapshot", "restore", "clear")})
    fns = {proc.name: proc.fn for proc in machine.globals.values()
           if hasattr(proc, "fn")}
    return (names, fns, set(vars(machine)), list(gc.callbacks),
            threading.stack_size())


def check_hygiene(failures):
    generate, run_pass = WORKLOADS["repl_load"]
    inputs = generate(random.Random(1), TINY)
    _, machine = run.setup(inputs.prelude)
    before = global_state(machine)
    rec = tracer.Recorder()
    with tracer.instrument(rec, machine):
        result = run_pass(machine, inputs)
    if global_state(machine) != before:
        failures.append("traced pass left a wrapper or GC hook behind")
    if result.failed or not len(rec.start):
        failures.append("traced repl_load pass failed or recorded no spans")
    try:
        with tracer.instrument(tracer.Recorder(), machine):
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    if global_state(machine) != before:
        failures.append("interrupted traced pass left a wrapper behind")
    if min(tracer.wrapper_cost(calls=20_000, repeats=3)) <= 0:
        failures.append("wrapper_cost found no cost per wrapped call")
    stack_size = threading.stack_size()
    one_pass("cps_deep", WORKLOADS["cps_deep"][0](random.Random(1), TINY))
    if threading.stack_size() != stack_size:
        failures.append("cps_deep pass changed threading.stack_size")


def check_fastest(failures):
    fastest = run.Fastest()
    fastest.add([30.0, 30.0, 10.0])  # segments of 60 and 10 ms
    fastest.add([20.0, 45.0, 5.0])   # 65 and 5 ms
    if (list(fastest.requests) != [20.0, 30.0, 5.0]
            or list(fastest.segments) != [60.0, 5.0]
            or abs(fastest.run_s() - 0.065) > 1e-12):
        failures.append("Fastest kept the wrong request or segment times")


def check_benchmark_json(failures):
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from run.py")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        failures.append("BENCHMARK.json names a workload workloads.py lacks")


def main():
    sys.path.insert(0, str(run.SRC))
    failures = []
    for workload, (generate, _) in WORKLOADS.items():
        first = one_pass(workload, generate(random.Random(1), TINY))
        second = one_pass(workload, generate(random.Random(2), TINY))
        if first.failed or second.failed:
            failures.append(f"{workload}: clean pass reported failures")
        if first.ops != second.ops:
            failures.append(f"{workload}: seeds 1 and 2 give {first.ops} and "
                            f"{second.ops} checks")
        inputs = generate(random.Random(1), TINY)
        spoiled = corrupt(workload, inputs)
        caught = one_pass(workload, inputs).failed
        if caught != spoiled:
            failures.append(f"{workload}: {spoiled} corrupted expectations, "
                            f"{caught} failed checks")
        print(f"{workload}: {first.ops} checks, corrupted oracle gives "
              f"{caught} failed")
    check_hygiene(failures)
    check_fastest(failures)
    check_benchmark_json(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
