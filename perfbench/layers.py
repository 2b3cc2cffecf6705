"""Per-layer metrics of a traced pass, named `<module>.<function>.<quantity>`."""

from __future__ import annotations

from collections import defaultdict

from tracing import Tracer

# span name -> {metric quantity: span attribute summed over the calls}
LAYERS: dict[str, dict[str, str]] = {
    "spectral.eigen_lowest": {"modes": "k", "grid_points": "N"},
    "spectral.solve_lowest": {},
    "spectral.spectral_data": {},
    "spectral.choose_box": {},
    "spectral.reduced_resolvent_solve": {},
    "dispersion.critical_points": {},
    "dispersion.curvature_consistency": {},
    "wavepacket.coef_batch": {"points": "points"},
    "wavepacket.ansatz_values": {},
    "wavepacket.residual": {},
    "wavepacket.transport_demo": {},
    "wavepacket.second_microlocal_profile_demo": {},
    "fourier.Factor1D.transform": {"frequencies": "frequencies"},
    "fourier.plancherel_calibrate": {},
    "fourier.matrix_coefficient": {},
    "fourier.rep_apply": {},
    "algebra.pbw_normal_form": {},
    "algebra.PBWPolynomial.mul": {},
    "algebra.multiply": {},
    "algebra.bracket": {},
    "cli.run": {},
}

EXTRA_UNITS = {
    "wavepacket.machinery.calls": "count",
    "wavepacket.machinery.hit_ratio": "1",
    "wavepacket.machinery.build_s": "s",
    "dispersion.critical_points.eigensolves_per_root": "count",
    "algebra.normal_form_cache.hit_ratio": "1",
    "cli.dispersion.pool_busy_ratio": "1",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_ratio": "1",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
}


def units() -> dict[str, str]:
    """Unit of every metric `per_layer` returns."""
    out = {}
    for name, extras in LAYERS.items():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        for quantity in extras:
            out[f"{name}.{quantity}"] = "count"
    out.update(EXTRA_UNITS)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, pool_size: int) -> tuple[dict[str, float], dict]:
    """Metrics of every layer, zero for layers the pass did not reach, and a
    summary of the per-call counts that must repeat between traced runs."""
    from engellab import algebra

    spans = tracer.spans
    selfs = tracer.self_times()
    metrics = {name: 0.0 for name in units()}
    for s, own in zip(spans, selfs):
        if s.name in LAYERS:
            metrics[f"{s.name}.calls"] += 1
            metrics[f"{s.name}.self_s"] += own
            for quantity, attr in LAYERS[s.name].items():
                metrics[f"{s.name}.{quantity}"] += s.attrs.get(attr, 0)
        elif s.name.startswith("bench."):
            metrics["bench.self_s"] += own

    def ancestor(i: int, name: str) -> int | None:
        p = spans[i].parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        return p

    per_root: dict[int, int] = defaultdict(int)
    per_residual: dict[int, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name == "spectral.solve_lowest":
            cp = ancestor(i, "dispersion.critical_points")
            if cp is not None:
                per_root[cp] += 1
        elif s.name == "wavepacket.ansatz_values":
            r = ancestor(i, "wavepacket.residual")
            if r is not None:
                per_residual[r] += 1
    roots = sum(s.attrs.get("roots", 0) for s in spans
                if s.name == "dispersion.critical_points")
    metrics["dispersion.critical_points.eigensolves_per_root"] = _ratio(
        sum(per_root.values()), roots)

    machinery = [s for s in spans if s.name == "wavepacket.machinery"]
    metrics["wavepacket.machinery.calls"] = len(machinery)
    metrics["wavepacket.machinery.hit_ratio"] = _ratio(
        sum(s.attrs.get("hit", False) for s in machinery), len(machinery))
    metrics["wavepacket.machinery.build_s"] = sum(
        s.duration for s in machinery if not s.attrs.get("hit", False))

    # the lru_cache behind PBW normal ordering; zero if the library drops it
    cache_info = getattr(getattr(algebra, "_normal_form_word", None), "cache_info", None)
    if cache_info is not None:
        cache = cache_info()
        metrics["algebra.normal_form_cache.hit_ratio"] = _ratio(
            cache.hits, cache.hits + cache.misses)

    strips = [s for s in spans if s.name == "bench.dispersion"]
    busy = sum(s.duration for i, s in enumerate(spans)
               if s.name == "spectral.spectral_data"
               and ancestor(i, "bench.dispersion") is not None)
    metrics["cli.dispersion.pool_busy_ratio"] = _ratio(
        busy, pool_size * sum(s.duration for s in strips))

    root = next(s for s in spans if s.name == "bench.pass")
    metrics["trace.wall_s"] = root.duration
    metrics["trace.self_sum_ratio"] = _ratio(sum(selfs), root.duration)
    # traced / untraced wall - 1, with the untraced wall taken as the traced
    # one less the calibrated cost of every span: a second, untraced pass
    # would carry the machine's run-to-run noise, which exceeds the overhead
    cost = len(spans) * tracer.span_cost()
    metrics["trace.spans"] = len(spans)
    metrics["trace.overhead_ratio"] = _ratio(cost, root.duration - cost)

    summary = dict(
        threads=len({s.thread for s in spans}),
        critical_points=[dict(n=spans[i].attrs.get("n"), roots=spans[i].attrs.get("roots"),
                              solve_lowest=count) for i, count in sorted(per_root.items())],
        ansatz_values_per_residual=sorted(set(per_residual.values())),
        counts={k: v for k, v in metrics.items() if units()[k] == "count"},
    )
    return metrics, summary
