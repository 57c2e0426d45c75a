"""Spans around the calls into each ambit layer, recorded from outside.

`instrument` wraps the names each caller looks up (module globals such as
`ambit.machine.parse_core`, methods on the machine instance, every
`Primitive.fn` in the global frame) and adds a `gc.callbacks` hook, then
puts every one of them back when the traced pass ends, even if it raised.
Spans live in flat arrays while the pass runs; `layer_totals` derives self
time per layer from them afterwards and `export` writes them out.

A layer's self time is its spans' duration minus the part covered by child
spans, so nested layers (a primitive inside the trampoline, a collection
inside a primitive) are each counted once.  A wrapper's own bookkeeping
runs outside the span it records, so it would land in the caller's self
time; `wrapper_cost` measures it per call and `layer_totals` takes it off
the caller once per child span.
"""

import gc
import gzip
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("reader", "syntax", "forms", "machine", "primitives", "trace",
          "writer", "cli", "gc")


class Recorder:
    """Span store for one traced pass: parallel arrays indexed by span id."""

    def __init__(self):
        self.labels = []          # name id -> (layer, label)
        self._ids = {}
        self.hooked = set()       # name ids whose wrapper has an `after` hook
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.reader_chars = 0
        self.match_attempts = 0
        self.match_hits = 0
        self.writer_chars = 0
        self.core_forms = []

    def name_id(self, layer, label):
        key = (layer, label)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.labels)
            self.labels.append(key)
        return nid

    def wrap(self, fn, layer, label, after=None):
        """`fn` recording one span per call; `after(args, result)` runs
        once the span has closed.  Every wrapped entry point is called with
        positional arguments only, which keeps the wrapper cheap."""
        nid = self.name_id(layer, label)
        if after is not None:
            self.hooked.add(nid)
        names, parents, starts, ends = self.name, self.parent, self.start, \
            self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def gc_callback(self):
        generations = [self.name_id("gc", f"gen{g}") for g in range(3)]
        names, parents, starts, ends = self.name, self.parent, self.start, \
            self.end
        stack = self.stack
        clock = time.perf_counter

        def on_gc(phase, info):
            if phase == "start":
                i = len(starts)
                names.append(generations[info["generation"]])
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
            elif len(stack) > 1:
                ends[stack.pop()] = clock()

        return on_gc

    # per-layer counters that need a call's arguments or result

    def _count_read(self, args, result):
        self.reader_chars += len(args[0])

    def _count_match(self, args, result):
        self.match_attempts += 1
        self.match_hits += result is not None

    def _count_written(self, args, result):
        self.writer_chars += len(result)

    def _keep_core(self, args, result):
        self.core_forms.append(result)


def _targets(rec, machine):
    """(owner, attribute, layer, after) for every name the pass wraps."""
    mods = sys.modules
    cli, machine_mod, syntax, trace = (mods["ambit.cli"], mods["ambit.machine"],
                                       mods["ambit.syntax"], mods["ambit.trace"])
    yield machine_mod, "read_all", "reader", rec._count_read
    yield cli, "read_all", "reader", rec._count_read
    yield syntax, "expand", "syntax", None
    yield syntax, "match_pattern", "syntax", rec._count_match
    yield syntax, "parse_define_syntax", "syntax", None
    yield syntax, "define_macro", "syntax", None
    yield machine_mod, "parse_core", "forms", rec._keep_core
    yield machine, "eval_source", "machine", None
    yield machine, "eval_top", "machine", None
    yield machine, "trampoline", "machine", None
    yield trace.TraceStack, "snapshot", "trace", None
    yield trace.TraceStack, "restore", "trace", None
    yield trace.TraceStack, "clear", "trace", None
    yield cli, "render_traceback", "trace", None
    for module_name in ("cli", "primitives", "trace", "machine", "forms",
                        "syntax"):
        module = mods[f"ambit.{module_name}"]
        for fn_name in ("write_value", "display_value"):
            if hasattr(module, fn_name):
                yield module, fn_name, "writer", rec._count_written
    yield cli, "repl_loop", "cli", None


@contextmanager
def instrument(rec, machine):
    """Wrap every layer entry point of `machine`'s modules for one pass."""
    restore = []
    on_gc = rec.gc_callback()
    try:
        for owner, attr, layer, after in _targets(rec, machine):
            original = getattr(owner, attr)
            restore.append((owner, attr, original))
            label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
            setattr(owner, attr, rec.wrap(original, layer, label, after))
        primitive = sys.modules["ambit.values"].Primitive
        for proc in list(machine.globals.values()):
            if type(proc) is primitive:
                restore.append((proc, "fn", proc.fn))
                proc.fn = rec.wrap(proc.fn, "primitives", proc.name)
        gc.callbacks.append(on_gc)
        yield rec
    finally:
        if on_gc in gc.callbacks:
            gc.callbacks.remove(on_gc)
        for owner, attr, original in reversed(restore):
            if owner is machine:
                # the wrapper shadowed the class's method on the instance
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _count_nodes(roots, forms_module):
    """Core-form nodes reachable from `roots` (each node class is defined in
    ambit.forms; literal data inside them is not walked)."""
    node_types = {cls for cls in vars(forms_module).values()
                  if isinstance(cls, type)
                  and cls.__module__ == forms_module.__name__}
    count = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if type(node) in node_types:
            count += 1
            for slot in type(node).__slots__:
                stack.append(getattr(node, slot))
        elif type(node) is tuple:
            stack.extend(node)
    return count


def _noop(arg):
    return arg


def _noop_hook(args, result):
    pass


def wrapper_cost(calls=100_000, repeats=9):
    """Seconds per call that a wrapper adds to its caller's self time, as
    (plain, with an `after` hook): the time of a loop of wrapped no-op calls,
    less the spans it recorded, less the same loop calling the no-op
    directly.  The median of `repeats` loops.  The real hooks do one or two
    counter updates more than the no-op hook does."""
    clock = time.perf_counter
    plain, hooked = [], []
    for _ in range(repeats):
        start = clock()
        for i in range(calls):
            _noop(i)
        bare = clock() - start
        for hook, costs in ((None, plain), (_noop_hook, hooked)):
            rec = Recorder()
            traced = rec.wrap(_noop, "bench", "noop", hook)
            start = clock()
            for i in range(calls):
                traced(i)
            total = clock() - start
            inside = sum(rec.end) - sum(rec.start)
            costs.append((total - inside - bare) / calls)
    return statistics.median(plain), statistics.median(hooked)


def layer_totals(rec, cost):
    """Per-layer self time and span count, the span count of every
    (layer, label) name, and the wrapper time taken off the callers.

    `cost` is `wrapper_cost()`: each wrapped call's bookkeeping is charged
    to its parent span as if it were part of the child.  Collections are
    not corrected; the GC callback runs a few thousand times a pass at
    most."""
    n = len(rec.start)
    starts, ends, parents, names = rec.start, rec.end, rec.parent, rec.name
    plain, hooked = cost
    charge = [0.0 if layer == "gc" else hooked if nid in rec.hooked else plain
              for nid, (layer, _) in enumerate(rec.labels)]
    covered = array("d", bytes(8 * n))
    correction = 0.0
    for i in range(n):
        p = parents[i]
        if p >= 0:
            extra = charge[names[i]]
            covered[p] += ends[i] - starts[i] + extra
            correction += extra
    layer_of = [layer for layer, _ in rec.labels]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    per_name = [0] * len(rec.labels)
    for i in range(n):
        layer = layer_of[names[i]]
        self_s[layer] += ends[i] - starts[i] - covered[i]
        per_name[names[i]] += 1
    for nid, count in enumerate(per_name):
        calls[layer_of[nid]] += count
    return self_s, calls, dict(zip(rec.labels, per_name)), correction


def core_nodes(rec):
    return _count_nodes(rec.core_forms, sys.modules["ambit.forms"])


def export(rec, path, workload, seed, origin):
    """Write every span as name, start, end, parent and workload, with times
    in nanoseconds since `origin`, gzip-compressed tab-separated text."""
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = [f"{layer}:{label}" for layer, label in rec.labels]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("# " + json.dumps({"workload": workload, "seed": seed,
                                     "spans": len(rec.start)}) + "\n")
        out.write("id\tname\tstart_ns\tend_ns\tparent\tworkload\n")
        starts, ends, parents, names = rec.start, rec.end, rec.parent, \
            rec.name
        chunk = []
        for i in range(len(starts)):
            chunk.append(f"{i}\t{labels[names[i]]}\t"
                         f"{int((starts[i] - origin) * 1e9)}\t"
                         f"{int((ends[i] - origin) * 1e9)}\t{parents[i]}\t"
                         f"{workload}\n")
            if len(chunk) == 65536:
                out.write("".join(chunk))
                chunk.clear()
        out.write("".join(chunk))
