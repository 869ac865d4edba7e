"""Span and counter recording around the program's layer entry points.

Wrappers are installed at run time from this file, so the program's sources
stay untouched.  Every wrapped call records a span (name, start, end, parent
span, query id); spans are kept in memory and written out when the run ends.
Self time of a span is its duration minus the durations of its child spans.
Recording happens only while a query or the set-up is being timed, so the
answer checks never show up in the trace.
"""

import json
import time
import weakref

# (layer, module, attribute or Class.method, span name, kind); the layer
# names the module whose self time the span counts toward
ENTRY_POINTS = (
    ("ltl", "regsafe.ltl", "parse_formula", "ltl.parse", "call"),
    ("ltl", "regsafe.ltl", "parse_formula_file", "ltl.parse", "call"),
    ("tm", "regsafe.pipeline.tm", "parse_tm", "tm.parse_tm", "call"),
    ("tm", "regsafe.pipeline.tm", "tm_to_formula", "tm.tm_to_formula", "call"),
    ("translate", "regsafe.ara.translate", "ltl_to_ara", "translate.ltl_to_ara", "translate"),
    ("posbool", "regsafe.ara.posbool", "minimal_models", "posbool.minimal_models", "call"),
    ("automaton", "regsafe.ara.automaton", "parse_automaton", "automaton.parse_automaton", "call"),
    ("automaton", "regsafe.ara.automaton", "run_exists", "automaton.run_exists", "call"),
    ("automaton", "regsafe.ara.automaton", "step", "automaton.step", "call"),
    ("automaton", "regsafe.ara.automaton", "inclusion_product", "automaton.inclusion_product", "call"),
    ("compile", "regsafe.pipeline.compile", "CompiledMachine.config_successors",
     "compile.config_successors", "generator"),
    ("compile", "regsafe.pipeline.compile", "CompiledMachine.read_images",
     "compile.read_images", "memo"),
    ("compile", "regsafe.pipeline.compile", "CompiledMachine.here_sets",
     "compile.here_sets", "call"),
    ("compile", "regsafe.pipeline.compile", "CompiledMachine.materialize",
     "compile.materialize", "call"),
    ("explore", "regsafe.pipeline.explore", "successors", "explore.successors", "successors"),
    ("explore", "regsafe.pipeline.explore", "prefix_reachable", "explore.prefix_reachable", "call"),
    ("explore", "regsafe.pipeline.explore", "inclusion_check", "explore.inclusion_check", "saturation"),
    ("explore", "regsafe.pipeline.explore", "bounded_nonemptiness",
     "explore.bounded_nonemptiness", "call"),
    ("ipcant", "regsafe.ipcant", "parse_machine", "ipcant.parse_machine", "call"),
    ("ipcant", "regsafe.ipcant", "format_machine", "ipcant.format_machine", "call"),
    ("ipcant", "regsafe.ipcant", "check_distributive", "ipcant.check_distributive", "call"),
    ("cli", "regsafe.cli", "run_cli", "cli.run_cli", "call"),
)

LAYERS = ("ltl", "tm", "translate", "posbool", "automaton", "compile",
          "explore", "ipcant", "cli")

# spans kept for the written trace; counters and times keep counting beyond
SPAN_LIMIT = 200000


class Tracer:
    def __init__(self):
        self.active = False
        self.query = None
        self.spans = []
        self.dropped = 0
        self.stack = []  # [name, layer, start, child time, span index]
        self.depth = {}
        self.calls = {}
        self.inclusive = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.missing = []
        self._seen_keys = weakref.WeakKeyDictionary()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, name, layer):
        index = -1
        parent = self.stack[-1][4] if self.stack else -1
        start = time.perf_counter()
        if len(self.spans) < SPAN_LIMIT:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.query])
        else:
            self.dropped += 1
        self.stack.append([name, layer, start, 0.0, index])
        self.depth[name] = self.depth.get(name, 0) + 1

    def _exit(self):
        end = time.perf_counter()
        name, layer, start, child, index = self.stack.pop()
        duration = end - start
        if index >= 0:
            self.spans[index][2] = end
        self.depth[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.depth[name] == 0:  # count a recursive entry point once
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.self_time[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        return duration

    def wrap(self, layer, name, kind, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if kind == "memo":
                tracer._note_key(args)
            tracer._enter(name, layer)
            try:
                if kind == "generator":
                    # callers consume the successor stream in full, so
                    # drawing it inside the span changes no result
                    return iter(list(fn(*args, **kwargs)))
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if kind == "translate":
                tracer.count("translate.states", len(result.states))
            elif kind == "successors":
                tracer.count("explore.configs_generated", len(result[0]))
                if any(frame[0] == "explore.bounded_nonemptiness" for frame in tracer.stack):
                    tracer.count("explore.bounded_nonemptiness_expanded")
            elif kind == "saturation":
                tracer.count("explore.inclusion_explored", result.explored)
                tracer.count("explore.inclusion_checkpoints", result.checkpoints)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _note_key(self, args):
        # a call is a hit when the same machine was asked for the same
        # (letter, thread set) before: what a per-machine memo can answer
        machine, key = args[0], args[1:]
        seen = self._seen_keys.setdefault(machine, set())
        if key in seen:
            self.count("compile.read_images_hits")
        else:
            seen.add(key)

    def install(self, modules):
        """Wrap every entry point and rebind each name in every loaded
        regsafe module that imported it, so callers reach the wrapper."""
        for layer, modname, attr, name, kind in ENTRY_POINTS:
            module = modules.get(modname)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module else None
            if owner is None or (method and not hasattr(owner, method)):
                self.missing.append("%s.%s" % (modname, attr))
                continue
            if method:
                setattr(owner, method, self.wrap(layer, name, kind, getattr(owner, method)))
                continue
            original = owner
            wrapped = self.wrap(layer, name, kind, original)
            for other_name, other in modules.items():
                if not other_name.startswith("regsafe"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
