"""In-memory span tracing around the twobeam layers, from outside the package.

The package's modules call each other through names bound by from-imports,
so a call is intercepted by replacing the attribute its *caller* looks up:
``twobeam.region.algorithm1_sum_power`` is the name ``build_region`` uses,
``twobeam.nonrecip.solve_min_trace`` the one the bisection uses. Each
wrapper records a span (name, start, end, parent, request) and, for a few
calls, a small summary of the result. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "region", "recip", "nonrecip", "sdp", "model")
ROOT_SPAN = "cli.main"


def _sdp_summary(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    return (problem.dimension, out.status.value)


def _randomize_summary(args, kwargs, out):
    return (out.source.best_violation,)


def _rank_one_summary(args, kwargs, out):
    return (out.source.fallback,)


# (module the caller lives in, attribute it looks up, span name, summary).
# The span name's prefix is the layer that owns the called function.
TARGETS = (
    ("twobeam.cli", "build_region", "region.build_region", None),
    ("twobeam.cli", "sample_channels", "region.sample_channels", None),
    ("twobeam.cli", "region_csv_text", "region.region_csv_text", None),
    ("twobeam.cli", "region_json_text", "region.region_json_text", None),
    ("twobeam.region", "wsismin_sum_power", "recip.wsismin_sum_power", None),
    ("twobeam.region", "sum_power_beamformer", "recip.sum_power_beamformer", None),
    ("twobeam.region", "wsismin_individual", "recip.wsismin_individual", None),
    ("twobeam.region", "individual_power_beamformer", "recip.individual_power_beamformer", None),
    ("twobeam.region", "algorithm1_sum_power", "nonrecip.algorithm1_sum_power", None),
    ("twobeam.region", "algorithm2_individual", "nonrecip.algorithm2_individual", None),
    ("twobeam.region", "randomize_rank_one", "nonrecip.randomize_rank_one", _randomize_summary),
    ("twobeam.cli", "algorithm1_sum_power", "nonrecip.algorithm1_sum_power", None),
    ("twobeam.cli", "algorithm2_individual", "nonrecip.algorithm2_individual", None),
    ("twobeam.cli", "rank_one_reduce", "nonrecip.rank_one_reduce", _rank_one_summary),
    ("twobeam.cli", "randomize_rank_one", "nonrecip.randomize_rank_one", _randomize_summary),
    ("twobeam.nonrecip", "min_power_sdp", "nonrecip.min_power_sdp", None),
    ("twobeam.nonrecip", "snr_targets", "nonrecip.snr_targets", None),
    ("twobeam.nonrecip", "SdpProblem", "sdp.SdpProblem", None),
    ("twobeam.nonrecip", "solve_min_trace", "sdp.solve_min_trace", _sdp_summary),
    ("twobeam.nonrecip", "solve_feasibility", "sdp.solve_feasibility", _sdp_summary),
    ("twobeam.region", "rate_pair", "model.rate_pair", None),
    ("twobeam.nonrecip", "rate_pair", "model.rate_pair", None),
    ("twobeam.nonrecip", "noise_matrices", "model.noise_matrices", None),
    ("twobeam.cli", "rate_pair", "model.rate_pair", None),
    ("twobeam.cli", "relay_powers", "model.relay_powers", None),
    ("twobeam.model", "snr_pair", "model.snr_pair", None),
    ("twobeam.model", "noise_matrices", "model.noise_matrices", None),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Each span is [name id, start, end, parent index, request index].
        self.spans: list[list] = []
        self.summaries: dict[int, tuple] = {}
        self._stack: list[int] = []
        self.request = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, summarize):
        name_id = self._name_id(name)
        spans, stack, summaries, clock = self.spans, self._stack, self.summaries, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if summarize is not None:
                summaries[idx] = summarize(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, request: int):
        """Replaces every target name with its traced wrapper, then restores."""
        self.request = request
        saved = []
        try:
            for module_name, attr, name, summarize in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    # A caller that no longer looks the name up makes no calls.
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, summarize))
            yield self._wrap(lambda fn, *a: fn(*a), ROOT_SPAN, None)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds each layer spent in its own code, children excluded."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for (name_id, t0, t1, _, _), c in zip(self.spans, child):
            out[layer_of(self.names[name_id])] += (t1 - t0) - c
        return out

    def durations(self, *names: str) -> list[float]:
        ids = {self._ids[n] for n in names if n in self._ids}
        return [s[2] - s[1] for s in self.spans if s[0] in ids]

    def by_name(self, *names: str) -> list[int]:
        ids = {self._ids[n] for n in names if n in self._ids}
        return [i for i, s in enumerate(self.spans) if s[0] in ids]

    def write(self, path: Path) -> None:
        """Writes all spans as JSON, times in microseconds from the first span."""
        t_zero = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_us", "end_us", "parent", "request"],
            "names": self.names,
            "spans": [
                [n, round((t0 - t_zero) * 1e6, 3), round((t1 - t_zero) * 1e6, 3), p, r]
                for n, t0, t1, p, r in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tr: Tracer, points: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced run, as name -> (value, unit, samples).

    ``points`` are the boundary points of the traced requests, ``traced_s``
    their wall time and ``untraced_s`` the wall time of the same requests run
    without tracing.
    """
    m: dict[str, tuple[float, str, int]] = {}
    per_point = max(points, 1)
    self_s = tr.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_point"] = (1e3 * self_s[layer] / per_point, "ms/point", points)
    m["trace.point_ms"] = (1e3 * traced_s / per_point, "ms/point", points)
    gap = abs(traced_s - sum(self_s.values())) / traced_s if traced_s > 0 else 0.0
    m["trace.self_sum_gap_share"] = (gap, "share", points)
    m["trace.overhead_share"] = (
        traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0, "share", points)

    roots = tr.by_name(ROOT_SPAN)
    requests = len(roots)
    out_by_request: dict[int, float] = defaultdict(float)
    for i in tr.by_name("region.region_csv_text", "region.region_json_text"):
        n, t0, t1, _, r = tr.spans[i]
        out_by_request[r] += t1 - t0
    m["region.output_ms"] = (1e3 * _p50(list(out_by_request.values())), "ms", len(out_by_request))

    rate = tr.durations("model.rate_pair")
    m["model.rate_pair_us_p50"] = (1e6 * _p50(rate), "us", len(rate))
    nm_calls = len(tr.by_name("model.noise_matrices"))
    m["model.noise_matrices_calls_per_point"] = (nm_calls / per_point, "calls/point", points)
    solve = tr.durations("recip.wsismin_sum_power", "recip.wsismin_individual")
    m["recip.solve_us_p50"] = (1e6 * _p50(solve), "us", len(solve))
    bf = tr.durations("recip.sum_power_beamformer", "recip.individual_power_beamformer")
    m["recip.beamformer_us_p50"] = (1e6 * _p50(bf), "us", len(bf))

    alg1 = set(tr.by_name("nonrecip.algorithm1_sum_power"))
    alg2 = set(tr.by_name("nonrecip.algorithm2_individual"))
    steps = sum(1 for i in tr.by_name("nonrecip.min_power_sdp") if tr.spans[i][3] in alg1)
    steps += sum(1 for i in tr.by_name("nonrecip.snr_targets") if tr.spans[i][3] in alg2)
    m["nonrecip.bisection_steps_per_point"] = (steps / per_point, "steps/point", points)

    kinds = {"min_trace": "sdp.solve_min_trace", "feasibility": "sdp.solve_feasibility"}
    sdp_spans = tr.by_name(*kinds.values())
    for short, name in kinds.items():
        idx = tr.by_name(name)
        durs = [tr.spans[i][2] - tr.spans[i][1] for i in idx]
        m[f"sdp.{short}_calls_per_point"] = (len(idx) / per_point, "calls/point", points)
        m[f"sdp.{short}_ms_p50"] = (1e3 * _p50(durs), "ms", len(durs))
        for k in (10, 20):
            durs_k = [tr.spans[i][2] - tr.spans[i][1] for i in idx if tr.summaries[i][0] == k]
            m[f"sdp.{short}_ms_p50.k{k}"] = (1e3 * _p50(durs_k), "ms", len(durs_k))
    busy = sum(tr.spans[i][2] - tr.spans[i][1] for i in sdp_spans + tr.by_name("sdp.SdpProblem"))
    m["sdp.busy_share"] = (busy / traced_s if traced_s > 0 else 0.0, "share", requests)
    statuses = [tr.summaries[i][1] for i in sdp_spans]
    for status in ("max_iter", "infeasible"):
        share = statuses.count(status) / len(statuses) if statuses else 0.0
        m[f"sdp.{status}_share"] = (share, "share", len(statuses))
    k20 = [tr.summaries[i][1] for i in sdp_spans if tr.summaries[i][0] == 20]
    m["sdp.max_iter_share.k20"] = (
        k20.count("max_iter") / len(k20) if k20 else 0.0, "share", len(k20))

    rnd = tr.by_name("nonrecip.randomize_rank_one")
    viol = [tr.summaries[i][0] for i in rnd]
    m["nonrecip.randomize_ms_p50"] = (
        1e3 * _p50([tr.spans[i][2] - tr.spans[i][1] for i in rnd]), "ms", len(rnd))
    m["nonrecip.rand_targets_met_share"] = (
        sum(v <= 0.0 for v in viol) / len(viol) if viol else 0.0, "share", len(viol))
    m["nonrecip.rand_best_violation_p50"] = (_p50(viol), "ratio", len(viol))
    r1 = tr.by_name("nonrecip.rank_one_reduce")
    m["nonrecip.rank_one_ms_p50"] = (
        1e3 * _p50([tr.spans[i][2] - tr.spans[i][1] for i in r1]), "ms", len(r1))
    m["nonrecip.rank_one_fallbacks"] = (
        float(sum(tr.summaries[i][0] for i in r1)), "count", len(r1))
    return m
