"""Per-layer tracing of specsing from outside the library.

Each traced function is replaced by a timing wrapper in its defining module
and in every specsing module that imported it by name (e.g. kernels.
hyp2f1_terminating, limits.hyp1f1, asymptotics.kernel_scaled, the package
namespace), so cross-module calls are seen too.  A wrapper keeps a stack of
open calls: a function's self time is its duration minus the time of traced
calls made inside it.  Durations come from perf_counter: a CPU-time clock
would leave out the time the host takes the CPU away, but costs four times
as much per call, and the hot leaves are called millions of times.

Spans: every op is a root span, and every call of a function outside HOT is
a span (name, start, end, parent).  Calls of the hot leaf functions are not
stored one by one; their count and time are added to the enclosing span.
Integrands handed to the quadrature functions are wrapped to count
evaluations (scalar callbacks) and nodes (vectorized callbacks).  Cache hit
ratios come from the lru_cache objects' cache_info().
"""
from __future__ import annotations

import sys
import time

import numpy as np

LAYERS = {
    "series": ("hyp2f1_terminating", "hyp1f1", "pochhammer", "log_gamma"),
    "polynomials": ("rr_norm", "rr_poly", "orthogonality_check"),
    "quadrature": ("complex_quad", "complex_quad_segments", "sector_integrate",
                   "sector_integrate_adaptive", "tanh_sinh_rule"),
    "kernels": ("_phi", "_phi_deriv", "tail_integral", "_s_tilde", "_s_tilde_cached",
                "_h_sub", "kernel_scaled"),
    "limits": ("k_limit", "l1", "l2", "j_odd", "j_symp_raw", "_A",
               "derivative_identity_residual"),
    "jack": ("hyper_pfq_alpha", "gen_pochhammer", "_jack_one_cached", "partitions_up_to"),
    "density": ("rho_finite", "rho_limit", "_b_integral", "morris_quadrature",
                "morris_closed", "density_expansion_check"),
    "asymptotics": ("kernel_residual_scan", "tuned_scaling_residual"),
}

HOT = {"hyp2f1_terminating", "hyp1f1", "pochhammer", "log_gamma", "rr_norm", "rr_poly",
       "tanh_sinh_rule", "_phi", "_phi_deriv", "_h_sub", "_A", "gen_pochhammer",
       "_jack_one_cached"}

CACHED = {"kernels": ("_s_tilde_cached", "_h_sub"), "jack": ("_jack_one_cached",)}

# which workload stresses each per-layer metric: the traced run checks that
# the metric is nonzero there
STRESS = {
    "series.hyp2f1_terminating": ("kernel_sweep",),
    "series.hyp1f1": ("limit_verify",),
    "series.pochhammer": ("limit_verify",),
    "series.log_gamma": ("kernel_sweep",),
    "polynomials": ("sector_quadrature",),
    "quadrature.complex_quad.": ("limit_verify",),
    "quadrature.complex_quad_segments": ("kernel_sweep",),
    "quadrature.sector_integrate": ("sector_quadrature",),
    "quadrature.tanh_sinh_rule": ("sector_quadrature",),
    "quadrature.nonconverged": ("limit_verify", "kernel_sweep"),
    "kernels": ("kernel_sweep",),
    "limits": ("limit_verify",),
    "jack": ("density_series",),
    "density.rho_finite": ("density_series", "sector_quadrature"),
    "density.rho_limit": ("density_series", "sector_quadrature"),
    "density._b_integral": ("sector_quadrature",),
    "density.morris_quadrature": ("sector_quadrature",),
    "density.morris_closed": ("density_series",),
    "density.density_expansion_check": ("density_series",),
    "asymptotics": ("limit_verify",),
}


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    def stats(mod, fn, kinds):
        return [f"{mod}.{fn}.{k}" for k in kinds]

    cs = ("calls", "self_s")
    names = []
    for fn in LAYERS["series"]:
        names += stats("series", fn, cs)
    names += stats("polynomials", "rr_norm", cs) + stats("polynomials", "rr_poly", cs)
    names += stats("polynomials", "orthogonality_check", ("self_s",))
    names += stats("quadrature", "complex_quad", cs + ("evals",))
    names += stats("quadrature", "complex_quad_segments", cs + ("evals",))
    names += stats("quadrature", "sector_integrate", cs + ("nodes",))
    names += ["quadrature.sector_integrate_adaptive.calls", "quadrature.tanh_sinh_rule.calls",
              "quadrature.nonconverged"]
    names += stats("kernels", "_phi", cs) + ["kernels._phi_deriv.calls"]
    names += stats("kernels", "tail_integral", cs) + stats("kernels", "_s_tilde", cs)
    names += ["kernels._s_tilde_cached.hit_ratio", "kernels._h_sub.hit_ratio"]
    names += stats("kernels", "kernel_scaled", cs)
    for fn in ("k_limit", "l1", "l2", "j_odd", "j_symp_raw"):
        names += stats("limits", fn, cs)
    names += ["limits._A.calls", "limits.derivative_identity_residual.self_s"]
    names += stats("jack", "hyper_pfq_alpha", cs) + ["jack.partitions_visited"]
    names += stats("jack", "gen_pochhammer", cs)
    names += ["jack._jack_one_cached.hit_ratio", "jack.partitions_up_to.self_s",
              "jack.nonconverged"]
    for fn in ("rho_finite", "rho_limit", "_b_integral"):
        names += stats("density", fn, cs)
    names += [f"density.{fn}.self_s" for fn in
              ("morris_quadrature", "morris_closed", "density_expansion_check")]
    names += ["asymptotics.kernel_residual_scan.self_s",
              "asymptotics.tuned_scaling_residual.self_s"]
    return names


def stressed_by(metric: str) -> tuple:
    """Workloads on which `metric` must be nonzero (longest matching prefix)."""
    best = ""
    for prefix in STRESS:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return STRESS.get(best, ())


class Tracer:
    """Installs the wrappers on construction; report() returns the metrics."""

    def __init__(self, package):
        self.mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        self.stats = {}          # "module.fn" -> [calls, self_s]
        self.counts = {"quadrature.complex_quad.evals": 0,
                       "quadrature.complex_quad_segments.evals": 0,
                       "quadrature.sector_integrate.nodes": 0,
                       "quadrature.nonconverged": 0, "jack.nonconverged": 0,
                       "jack.partitions_visited": 0}
        self.stack = []          # open spans: [span, child_time]
        self.spans = []
        self.originals = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                original = getattr(self.mods[mod], fn, None)
                if original is None:   # removed from the library: reports zero
                    continue
                self.originals[f"{mod}.{fn}"] = original
                wrapped = self._wrap(f"{mod}.{fn}", fn, original)
                for m in list(self.mods.values()) + [package]:
                    if getattr(m, fn, None) is original:
                        setattr(m, fn, wrapped)

    # --- spans ---------------------------------------------------------------

    def _parent(self):
        """The innermost open span (hot calls sit on the stack without one)."""
        return next((s for s, _ in reversed(self.stack) if s is not None), None)

    def _open(self, name):
        parent = self._parent()
        span = {"name": name, "parent": parent["id"] if parent else None,
                "id": len(self.spans), "start": time.perf_counter(), "leaf": {}}
        self.spans.append(span)
        self.stack.append([span, 0.0])

    def _close(self):
        span, child = self.stack.pop()
        span["end"] = time.perf_counter()
        dt = span["end"] - span["start"]
        if self.stack:
            self.stack[-1][1] += dt
        return dt - child

    def begin_op(self, kind):
        self._open(f"op:{kind}")

    def end_op(self):
        self._close()

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, key, fn, original):
        st = self.stats.setdefault(key, [0, 0.0])
        hooks = {"complex_quad": self._count_evals, "complex_quad_segments": self._count_evals,
                 "sector_integrate": self._count_nodes}
        hook = hooks.get(fn)
        tracer = self

        if fn in HOT:
            def wrapper(*args, **kwargs):
                tracer.stack.append([None, 0.0])
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    child = tracer.stack.pop()[1]
                    st[0] += 1
                    st[1] += dt - child
                    if tracer.stack:
                        tracer.stack[-1][1] += dt
                        parent = tracer._parent()
                        if parent is not None:
                            agg = parent["leaf"].setdefault(fn, [0, 0.0])
                            agg[0] += 1
                            agg[1] += dt
        else:
            def wrapper(*args, **kwargs):
                if hook:
                    args = (hook(key, args[0]),) + args[1:]
                tracer._open(key)
                try:
                    out = original(*args, **kwargs)
                except Exception as exc:
                    tracer._note_error(fn, exc)
                    raise
                finally:
                    st[0] += 1
                    st[1] += tracer._close()
                if fn == "partitions_up_to":
                    tracer.counts["jack.partitions_visited"] += len(out)
                elif fn == "sector_integrate_adaptive":
                    rtol = kwargs.get("rtol", 1e-8)
                    tracer.counts["quadrature.nonconverged"] += out[1] >= rtol
                return out

        wrapper.__wrapped__ = original
        return wrapper

    def _note_error(self, fn, exc):
        if type(exc).__name__ != "NonConvergenceError":
            return
        if fn in ("complex_quad", "complex_quad_segments"):
            self.counts["quadrature.nonconverged"] += 1
        elif fn == "hyper_pfq_alpha":
            self.counts["jack.nonconverged"] += 1

    def _count_evals(self, key, f):
        counter = f"{key}.evals"

        def counted(t):
            self.counts[counter] += 1
            return f(t)
        return counted

    def _count_nodes(self, key, fvec):
        def counted(args):
            self.counts["quadrature.sector_integrate.nodes"] += np.broadcast(*args).size
            return fvec(args)
        return counted

    # --- report --------------------------------------------------------------

    def report(self) -> dict:
        values = dict(self.counts)
        for key, (calls, self_s) in self.stats.items():
            values[f"{key}.calls"] = calls
            values[f"{key}.self_s"] = self_s
        for mod, fns in CACHED.items():
            for fn in fns:
                original = self.originals.get(f"{mod}.{fn}")
                info = original.cache_info() if hasattr(original, "cache_info") else None
                total = info.hits + info.misses if info else 0
                values[f"{mod}.{fn}.hit_ratio"] = info.hits / total if total else 0.0
        metrics = {name: values.get(name, 0) for name in metric_names()}
        return {"metrics": metrics, "spans": self.spans}
