"""Layer tracing from outside the program.

The tracer wraps the functions at each layer boundary by rebinding the
names a calling module imported (`_compact.cmp`, `fundseq.o_star`,
`cli.prove_lt`, ...), plus the methods of `CompactRunner` and the names
`fundseq` imports lazily from `_compact`.  Nothing under `src/` is edited,
and `uninstall` puts every original binding back.

Per wrapped function it keeps count, total time (outermost activations
only) and self time (total minus time in wrapped callees), and per
caller/callee pair a call count.  Calls made from the `cli` module, and the
command itself, are also kept as spans (id, parent, command, name, start,
end) in memory until `dump` writes them out.

Work a layer does through constructors or dunder methods it calls
implicitly (`Ordinal(...)`, `BracketWorm.__eq__` inside a dict lookup) is
not wrapped, so it counts toward the calling layer's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

PACKAGE = "bracketcalc"
# module -> layer name used in metric names (which must start with a letter)
LAYERS = {
    "cli": "cli",
    "syntax": "syntax",
    "ordinals": "ordinals",
    "worms": "worms",
    "fundseq": "fundseq",
    "_compact": "compact",
    "calculus": "calculus",
    "proving": "proving",
}
# intra-layer names wrapped as well: step_iter's plain phase calls
# fs_bracket through fundseq's own global
INTRA = (("fundseq", "fs_bracket"),)
# names fundseq imports from _compact at call time
LAZY = ("to_bracket",)
RUNNER_METHODS = ("__init__", "run", "step", "as_cw")


def layer_of(module_name: str):
    prefix, _, mod = module_name.partition(".")
    return LAYERS.get(mod) if prefix == PACKAGE else None


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [start, time in wrapped callees, key]
        self.agg = {}  # key -> [calls, total_s, self_s, open activations]
        self.edges = {}  # (caller key, callee key) -> calls
        self.counters = {}
        self.spans = []  # [id, parent id, command, name, start, end]
        self.span_stack = []
        self.command = None
        self._undo = []
        self._hooks = {}

    # -- wrapping

    def hook(self, key: str, fn) -> None:
        """Call fn(args, result) after each call of `key`, or of every
        function of layer `key`; fn=None exempts a key from its layer's
        hook.  Hook time is charged to no layer.  Register before install."""
        self._hooks[key] = fn

    def wrap(self, key: str, fn, span: bool = False):
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        span_stack = self.span_stack
        agg = self.agg.setdefault(key, [0, 0.0, 0.0, 0])
        edges = self.edges
        hook = self._hooks.get(key, self._hooks.get(key.split(".", 1)[0]))
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            edge = (parent[2] if parent else None, key)
            edges[edge] = edges.get(edge, 0) + 1
            if span:
                sid = len(spans)
                rec = [sid, span_stack[-1] if span_stack else None, tracer.command, key, 0.0, 0.0]
                spans.append(rec)
                span_stack.append(sid)
            agg[3] += 1
            frame = [clock(), 0.0, key]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                agg[3] -= 1
                elapsed = end - frame[0]
                agg[0] += 1
                agg[2] += elapsed - frame[1]
                if not agg[3]:
                    agg[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if span:
                    span_stack.pop()
                    rec[4] = frame[0]
                    rec[5] = end
            if hook is not None:
                h0 = clock()
                hook(args, result)
                if parent is not None:
                    parent[1] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every cross-layer name the package's modules imported."""
        mods = {m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in LAYERS}
        for mod_name, mod in mods.items():
            for name, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                callee = layer_of(value.__module__)
                own = (mod_name, name) in INTRA
                if callee is None or (callee == LAYERS[mod_name] and not own):
                    continue
                key = "%s.%s" % (callee, value.__name__)
                self._rebind(mod, name, self.wrap(key, value, span=mod_name == "cli"))
        compact = mods["_compact"]
        for name in LAZY:
            self._rebind(compact, name, self.wrap("compact.%s" % name, getattr(compact, name)))
        runner = compact.CompactRunner
        for name in RUNNER_METHODS:
            fn = vars(runner)[name]
            self._rebind(runner, name, self.wrap("compact.CompactRunner.%s" % name, fn))
        length = vars(runner)["length"]
        self._rebind(runner, "length", property(self.wrap("compact.CompactRunner.length", length.fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results

    def calls(self, key: str) -> int:
        return self.agg.get(key, (0,))[0]

    def total_s(self, key: str) -> float:
        return self.agg.get(key, (0, 0.0))[1]

    def self_s(self, *keys) -> float:
        return sum(self.agg.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def layer_self_s(self, layer: str, exclude=()) -> float:
        return sum(
            a[2]
            for k, a in self.agg.items()
            if k.split(".", 1)[0] == layer and k not in exclude
        )

    def edge_calls(self, caller: str, callee: str) -> int:
        return self.edges.get((caller, callee), 0)

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def dump(self, path) -> None:
        data = {
            "functions": {
                k: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                for k, a in sorted(self.agg.items())
            },
            "edges": [
                {"caller": c, "callee": k, "calls": n}
                for (c, k), n in sorted(self.edges.items(), key=lambda e: -e[1])
            ],
            "counters": self.counters,
            "spans": [
                dict(zip(("id", "parent", "command", "name", "start", "end"), s))
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(data, fh)
