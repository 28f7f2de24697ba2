"""In-memory spans around omforge's public functions, for the traced run.

Tracing wraps the functions in LAYERS from outside the library: every
module attribute of omforge that refers to one of them (including the
names other modules imported with `from .x import f`) is replaced by a
timing wrapper while the tracer is installed, and restored afterwards.
Spans and counters stay in memory; `write_spans` saves them at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    ("core", "validate_chirotope"),
    ("core", "cocircuits_from_chirotope"),
    ("core", "om_from_points"),
    ("faces", "flip"),
    ("faces", "mutations"),
    ("faces", "mutation_from_basis"),
    ("faces", "topes"),
    ("canonical", "canonical_form"),
    ("programs", "is_euclidean"),
    ("extensions", "lex_extend"),
    ("extensions", "mandel_from_euclidean_mutant"),
    ("classify", "mutation_graph_bfs"),
    ("classify", "classify"),
    ("acceptance", "run_eight_point_campaign"),
)

BFS = "classify.mutation_graph_bfs"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, round id, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._keyed: set = set()
        self._round = 0
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, counted: bool = True) -> list:
        frame = [len(self.spans) + len(self._stack), name, 0.0, 0.0]
        if counted:
            self.calls[name] += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, self._round, name, start, end)
        )
        if name == "faces.flip" and parent is not None and parent[1] == BFS:
            self.counters["bfs_flips"] += 1

    def start_round(self, index: int) -> list:
        self._round = index
        self._keyed.clear()
        return self.open("round", counted=False)

    def wrap(self, name: str, fn, counted: bool = True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._before(name, args, kwargs)
            frame = tracer.open(name, counted)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            tracer._after(name, result)
            return result

        return traced

    # -- counters read at the layer boundaries -------------------------

    def _before(self, name, args, kwargs) -> None:
        if name == "canonical.canonical_form":
            chi = (args[0] if args else kwargs["om"]).chirotope
            if chi is not None:
                labelled = (chi.rank, chi.n, chi.to_string())
                if labelled in self._keyed:
                    self.counters["repeat_chirotope_calls"] += 1
                self._keyed.add(labelled)
        elif name == BFS and kwargs.get("node_hook") is not None:
            # the hook's own work counts towards the function that passed it
            owner = self._stack[-1][1] if self._stack else "round"
            kwargs["node_hook"] = self.wrap(owner, kwargs["node_hook"], counted=False)

    def _after(self, name, result) -> None:
        if name == "programs.is_euclidean" and not result.euclidean:
            self.counters["non_euclidean_verdicts"] += 1
        elif name == BFS:
            self.counters["bfs_classes"] += len(result.nodes)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "omforge" or k.startswith("omforge."))
        ]
        for module_name, func_name in LAYERS:
            original = getattr(sys.modules[f"omforge.{module_name}"], func_name)
            traced = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round means of calls and self time for every layer."""
        out = {}
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")
        flips = self.counters["bfs_flips"]
        out["classify.new_class_ratio"] = (
            self.counters["bfs_classes"] / flips if flips else 0.0, "ratio"
        )
        out["canonical.repeat_chirotope_calls"] = (
            self.counters["repeat_chirotope_calls"] / rounds, "count"
        )
        out["programs.non_euclidean_verdicts"] = (
            self.counters["non_euclidean_verdicts"] / rounds, "count"
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, rnd, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "round": rnd,
                    "name": name, "start": start, "end": end,
                }) + "\n")
