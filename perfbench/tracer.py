"""Span tracer that instruments visiplan's layers from the outside.

The tracer replaces a layer's public functions under the names their callers
bind (module globals and class attributes), records one span per call, and
puts every original back when it is uninstalled. Nothing inside the program
changes: a traced mission runs the same arithmetic as an untraced one.

Spans are kept in memory as parallel arrays (name, parent span, mission,
start, end). A span's parent is the span that was open when it started; the
benchmark opens a span per mission set-up and per mission run, so every
layer call hangs under exactly one mission.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). Each entry is replaced in the namespace its
# caller reads at call time, which is why `sim.search` is patched in the sim
# module and not in the search module.
SIM_HOOKS = [
    ("visiplan.sim", "build_esdf", "env.build_esdf"),
    ("visiplan.sim", "fit", "predict.fit"),
    ("visiplan.sim", "predict_track", "predict.track"),
    ("visiplan.sim", "_revalidate_path", "sim.revalidate"),
    ("visiplan.sim", "search", "search"),
    ("visiplan.sim", "initialize_from_path", "spline.init"),
    ("visiplan.sim", "optimize", "optimizer"),
    ("visiplan.sim", "raycast_occluded", "sim.raycast"),
    ("visiplan.search", "raycast_occluded", "search.raycast"),
    ("visiplan.optimizer", "total_cost", "costs.total_cost"),
    ("visiplan.optimizer", "solve_triangular", "optimizer.solve"),
]

# total_cost's lambdas look these globals up on every evaluation
COST_TERMS = ["do", "ao", "oe", "feasibility", "yaw_feasibility",
              "smoothness", "yaw_smoothness", "collision", "safe_tracking"]

ESDF_METHODS = [("distance_at", "env.distance_at"),
                ("distance_and_gradient", "env.distance_and_gradient")]

# the replan stages called directly by the simulator's loop
STAGES = ("predict.fit", "predict.track", "sim.revalidate", "search",
          "spline.init", "optimizer")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_mission = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.mission = -1
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    # --- span recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_mission.append(self.mission)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float):
        self._stack.pop()
        self.span_start[sid] = start
        self.span_end[sid] = end

    @contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, start, time.perf_counter())

    def wrap(self, fn, name: str, note=None):
        """Return `fn` recording a span per call. `note(args, kwargs, result,
        exc)` runs after the span is closed, so its cost is not charged to
        the layer."""
        nid = self.name_id(name)
        clock = time.perf_counter
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(sid, start, clock())
                if note is not None:
                    note(args, kwargs, None, exc)
                raise
            close(sid, start, clock())
            if note is not None:
                note(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, note=None,
               transform=None):
        original = getattr(owner, attr)     # AttributeError if it moved
        inner = transform(original) if transform else original
        setattr(owner, attr, self.wrap(inner, name, note))
        self._restore.append((owner, attr, original))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        notes = {
            "optimizer": self._note_optimize,
            "sim.revalidate": self._note_revalidate,
            "search.raycast": self._note_search_raycast,
            "costs.total_cost": self._note_total_cost,
        }
        transforms = {"search": self._search_with_trace}
        for module, attr, name in SIM_HOOKS:
            self._patch(importlib.import_module(module), attr, name,
                        notes.get(name), transforms.get(name))
        costs = importlib.import_module("visiplan.costs")
        for term in COST_TERMS:
            self._patch(costs, f"cost_{term}", f"costs.{term}")
        esdf_cls = importlib.import_module("visiplan.env").ESDFField
        for attr, name in ESDF_METHODS:
            self._patch(esdf_cls, attr, name, self._note_points(name))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- per-call notes -----------------------------------------------------

    def _search_with_trace(self, search):
        """Pass an expansion list through search (it appends one row per
        expansion and nothing else), and count the failures by kind."""
        samples, counts = self.samples, self.counts

        def search_counting(*args, trace=None, **kwargs):
            rows = trace if trace is not None else []
            before = len(rows)
            try:
                result = search(*args, trace=rows, **kwargs)
            except Exception as exc:
                counts[f"search.fail.{type(exc).__name__}"] += 1
                raise
            finally:
                samples["search.expansions"].append(len(rows) - before)
            return result

        return search_counting

    def _note_optimize(self, args, kwargs, result, exc):
        if result is None:
            return
        self.samples["optimizer.iterations"].append(result.iterations)
        self.samples["optimizer.termination"].append(result.termination.value)
        self.samples["optimizer.final_cost"].append(result.final_report.total)
        self.samples["optimizer.evals"].append(self.counts.pop("evals", 0))

    def _note_total_cost(self, args, kwargs, result, exc):
        self.counts["evals"] += 1

    def _note_revalidate(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["sim.revalidate.reused"] += 1

    def _note_search_raycast(self, args, kwargs, result, exc):
        if result:
            self.counts["search.raycast.occluded"] += 1

    def _note_points(self, name: str):
        key = f"{name}.points"
        counts = self.counts

        def note(args, kwargs, result, exc):
            counts[key] += np.size(args[1]) // 3

        return note

    # --- read-out -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with self time (duration minus the time
        covered by direct children)."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name": name, "parent": parent,
            "mission": np.frombuffer(self.span_mission, dtype=np.int32).copy(),
            "start": start, "end": end, "duration": duration,
            "self": duration - child,
        }

    def durations(self, name: str,
                  spans: dict) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span called `name`, from the
        output of `arrays()`."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0), np.zeros(0)
        mask = spans["name"] == nid
        return spans["duration"][mask], spans["self"][mask]

    def save(self, path) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans)
