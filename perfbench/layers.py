"""Per-layer metrics from a traced run.

Times are per call unless the name says otherwise; `*.self_ms` is the layer's
self time (its spans minus their child spans) summed over the traced run, and
`*.calls` / `*.points` are totals over the traced run.
"""

from __future__ import annotations

import math

import numpy as np

from .tracer import COST_TERMS, STAGES, Tracer

# name -> (unit, better); the order is the order of the printed report
PER_LAYER = {
    "search.calls": ("count", "lower"),
    "search.ms_p50": ("ms", "lower"),
    "search.ms_p95": ("ms", "lower"),
    "search.self_ms": ("ms", "lower"),
    "search.expansions_mean": ("count", "lower"),
    "search.fail.exhausted": ("count", "lower"),
    "search.fail.invalid_start": ("count", "lower"),
    "search.raycast.calls": ("count", "lower"),
    "search.raycast_us_mean": ("us", "lower"),
    "search.raycast.reject_ratio": ("fraction", "lower"),
    "sim.revalidate.calls": ("count", "lower"),
    "sim.revalidate.reuse_ratio": ("fraction", "higher"),
    "sim.revalidate.self_ms": ("ms", "lower"),
    "sim.raycast.calls": ("count", "lower"),
    "sim.min_clearance_m": ("m", "higher"),
    "optimizer.calls": ("count", "lower"),
    "optimizer.ms_p50": ("ms", "lower"),
    "optimizer.ms_p95": ("ms", "lower"),
    "optimizer.self_ms": ("ms", "lower"),
    "optimizer.iterations_mean": ("count", "lower"),
    "optimizer.evals_per_call": ("count", "lower"),
    "optimizer.max_iter_ratio": ("fraction", "lower"),
    "optimizer.solve.calls": ("count", "lower"),
    "optimizer.solve_us_mean": ("us", "lower"),
    "optimizer.final_cost_p50": ("cost", "lower"),
    "costs.total_cost_us_p50": ("us", "lower"),
    **{f"costs.{t}_us_mean": ("us", "lower") for t in COST_TERMS},
    "env.build_esdf_ms": ("ms", "lower"),
    "env.distance_at.points": ("count", "lower"),
    "env.distance_at_us_mean": ("us", "lower"),
    "env.distance_and_gradient.points": ("count", "lower"),
    "env.distance_and_gradient_us_mean": ("us", "lower"),
    "predict.fit_us_p50": ("us", "lower"),
    "predict.track_us_p50": ("us", "lower"),
    "spline.init_us_p50": ("us", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.stage_coverage": ("fraction", "higher"),
}


def _pct(x: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(x, q)) * scale if x.size else 0.0


def _mean(x, scale: float = 1.0) -> float:
    return float(np.mean(x)) * scale if len(x) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results, overhead: float) -> dict:
    """Every PER_LAYER metric from the tracer's spans and the traced run's
    mission results. A layer that was never called reports 0."""
    spans = tracer.arrays()
    dur = {}
    self_t = {}
    for name in tracer.names:
        dur[name], self_t[name] = tracer.durations(name, spans)
    empty = np.zeros(0)

    def d(name):
        return dur.get(name, empty)

    def selfsum_ms(name):
        return float(self_t.get(name, empty).sum()) * 1e3

    counts, samples = tracer.counts, tracer.samples
    n_search = d("search").size
    n_search_rays = d("search.raycast").size
    n_reval = d("sim.revalidate").size
    n_opt = d("optimizer").size
    terminations = samples["optimizer.termination"]

    # stage spans directly under a mission span, against the replan cycle
    # times the simulator measured around them
    mission_ids = [i for i, n in enumerate(tracer.names) if n == "mission"]
    top = np.isin(spans["parent"], np.flatnonzero(
        np.isin(spans["name"], mission_ids)))
    stage_ids = [i for i, n in enumerate(tracer.names) if n in STAGES]
    staged = float(spans["duration"][top & np.isin(spans["name"],
                                                   stage_ids)].sum())
    cycle_total = sum(sum(r.replan_times) for r in results)
    clearances = [r.min_clearance_m for r in results
                  if math.isfinite(r.min_clearance_m)]

    values = {
        "search.calls": n_search,
        "search.ms_p50": _pct(d("search"), 50, 1e3),
        "search.ms_p95": _pct(d("search"), 95, 1e3),
        "search.self_ms": selfsum_ms("search"),
        "search.expansions_mean": _mean(samples["search.expansions"]),
        "search.fail.exhausted": counts["search.fail.SearchExhausted"],
        "search.fail.invalid_start": counts["search.fail.InvalidStart"],
        "search.raycast.calls": n_search_rays,
        "search.raycast_us_mean": _mean(d("search.raycast"), 1e6),
        "search.raycast.reject_ratio": _ratio(
            counts["search.raycast.occluded"], n_search_rays),
        "sim.revalidate.calls": n_reval,
        "sim.revalidate.reuse_ratio": _ratio(
            counts["sim.revalidate.reused"], n_reval),
        "sim.revalidate.self_ms": selfsum_ms("sim.revalidate"),
        "sim.raycast.calls": d("sim.raycast").size,
        "sim.min_clearance_m": min(clearances) if clearances else 0.0,
        "optimizer.calls": n_opt,
        "optimizer.ms_p50": _pct(d("optimizer"), 50, 1e3),
        "optimizer.ms_p95": _pct(d("optimizer"), 95, 1e3),
        "optimizer.self_ms": selfsum_ms("optimizer"),
        "optimizer.iterations_mean": _mean(samples["optimizer.iterations"]),
        "optimizer.evals_per_call": _mean(samples["optimizer.evals"]),
        "optimizer.max_iter_ratio": _ratio(
            sum(t == "max_iter" for t in terminations), len(terminations)),
        "optimizer.solve.calls": d("optimizer.solve").size,
        "optimizer.solve_us_mean": _mean(d("optimizer.solve"), 1e6),
        "optimizer.final_cost_p50": _pct(
            np.asarray(samples["optimizer.final_cost"]), 50, 1.0),
        "costs.total_cost_us_p50": _pct(d("costs.total_cost"), 50, 1e6),
        **{f"costs.{t}_us_mean": _mean(d(f"costs.{t}"), 1e6)
           for t in COST_TERMS},
        "env.build_esdf_ms": _mean(d("env.build_esdf"), 1e3),
        "env.distance_at.points": counts["env.distance_at.points"],
        "env.distance_at_us_mean": _mean(d("env.distance_at"), 1e6),
        "env.distance_and_gradient.points":
            counts["env.distance_and_gradient.points"],
        "env.distance_and_gradient_us_mean":
            _mean(d("env.distance_and_gradient"), 1e6),
        "predict.fit_us_p50": _pct(d("predict.fit"), 50, 1e6),
        "predict.track_us_p50": _pct(d("predict.track"), 50, 1e6),
        "spline.init_us_p50": _pct(d("spline.init"), 50, 1e6),
        "trace.overhead_frac": overhead,
        "trace.stage_coverage": _ratio(staged, cycle_total),
    }
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k][0]}
            for k in PER_LAYER}
