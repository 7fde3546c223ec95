"""Benchmark worker: one fresh process runs one op list.

    python3 worker.py <src-dir> <trace 0|1>

It imports specsing (with numpy and scipy), writes "ready" on stdout, reads
the op list as one JSON line on stdin, runs the ops in order on a single
thread and writes one JSON line with each op's output, error, times and
RuntimeWarning count, the CPU times of the speed probe taken between ops,
the pass's wall time and the peak RSS.  The parent times the start-up from
spawning the process to reading "ready".
"""
import json
import math
import os
import resource
import sys
import time
import warnings

PROBE_EVERY = 16  # ops between two samples of the speed probe
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _params(S, beta, N, p, q):
    return S.EnsembleParams(beta, N, p, q)


def _report(rep):
    return {"slope": rep.fitted_slope, "residuals": list(rep.residuals),
            "floor_hit": bool(rep.floor_hit)}


def _morris(a_re, a_im, b_re, b_im, lam, N, S):
    return S.MorrisParams(complex(a_re, a_im), complex(b_re, b_im), lam, N)


# every op kind: (specsing module, keyword arguments from workloads.py) -> call
OPS = {
    "kernel_scaled": lambda S, beta, N, p, q, X, Y:
        S.kernel_scaled(beta, X, Y, _params(S, beta, N, p, q)),
    "k_limit": lambda S, beta, p, q, X, Y: S.k_limit(beta, X, Y, _params(S, beta, 100, p, q)),
    "l1": lambda S, beta, p, q, X, Y: S.l1(beta, X, Y, _params(S, beta, 100, p, q)),
    "l2": lambda S, beta, p, q, X, Y: S.l2(beta, X, Y, _params(S, beta, 100, p, q)),
    "derivative_identity_residual": lambda S, beta, p, q, X, Y:
        S.derivative_identity_residual(beta, X, Y, _params(S, beta, 100, p, q)),
    "kernel_residual_scan": lambda S, beta, p, q, X, Y, n_list, order: _report(
        S.kernel_residual_scan(beta, X, Y, _params(S, beta, max(n_list), p, q),
                               n_list, order)),
    "tuned_scaling_residual": lambda S, beta, p, q, X, Y, n_list: _report(
        S.tuned_scaling_residual(beta, X, Y, _params(S, beta, max(n_list), p, q), n_list)),
    "rho_finite": lambda S, beta, N, p, q, theta, path="jack":
        S.rho_finite(theta, _params(S, beta, N, p, q), path=path),
    "rho_limit": lambda S, beta, p, q, theta, path="jack":
        S.rho_limit(theta, _params(S, beta, 4, p, q), path=path),
    "morris_closed": lambda S, **m: S.morris_closed(_morris(S=S, **m)),
    "morris_quadrature": lambda S, **m: S.morris_quadrature(_morris(S=S, **m)),
    "density_expansion_check": lambda S, beta, p, q, theta, n_list:
        S.density_expansion_check(theta, _params(S, beta, min(n_list), p, q), n_list),
    "i_integral": lambda S, p, q, theta, moment:
        S.i_integral("weighted", theta, _params(S, 2, 4, p, q), moment),
    "orthogonality_check": lambda S, n, m, beta, N, p, q:
        S.orthogonality_check(n, m, _params(S, beta, N, p, q)),
}


def _plain(value):
    """JSON form of an op output: numbers as floats, complex as [re, im]."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return float(value)


def probe():
    """A fixed piece of the kinds of work specsing does, written without it:
    a Python-level terminating series evaluated inside an adaptive quadrature
    that calls back into Python, and numpy arithmetic on a large array.  Its
    CPU time measures how fast the host runs such code at the moment.  At
    about 20 ms it lasts as long as the ops that carry most of cpu_s, so the
    least of its samples is about as likely as theirs to fall in a fast
    stretch of the host, and the fresh 3 MB array pays page faults as the
    ops' large arrays do."""
    import numpy as np
    from scipy.integrate import quad

    def series(t):
        z = complex(math.cos(t), math.sin(t)) * 0.5
        term = total = 1.0 + 0.0j
        for n in range(20):
            term *= (n - 20) * (n + 1.5) / ((n + 1) * (n + 2.25)) * z
            total += term
        return total.real

    c0 = time.process_time()
    for k in range(1, 5):
        quad(series, 0.0, k * math.pi, limit=50)
    x = np.linspace(0.0, 1.0, 400_000)
    float(np.sum(np.exp(-x * x) * np.cos(3.0 * x)))
    return time.process_time() - c0


def run(S, ops, tracer=None):
    """Run the ops in order.  Times are wall-clock (perf_counter) and CPU
    time of this process (process_time); the latter leaves out the time the
    host takes the CPU away, which dominates wall-clock noise on a shared VM."""
    outs, errs, times, cpu, warns, probes = [], [], [], [], [], []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if not tracer and k % PROBE_EVERY == 0:
            probes.append(probe())
        fn = OPS[op["kind"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer:
                tracer.begin_op(op["kind"])
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out, err = fn(S, **op["args"]), None
            except Exception as exc:  # an op failure is a result, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"[:300]
            cpu.append(time.process_time() - c0)
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
        outs.append(None if out is None else _plain(out))
        errs.append(err)
        warns.append(sum(issubclass(w.category, RuntimeWarning) for w in caught))
    return {"wall_s": time.perf_counter() - start, "op_s": times, "op_cpu_s": cpu, "out": outs, "err": errs, "warnings": warns,
            "probe_s": probes}


def main():
    src, trace = sys.argv[1], sys.argv[2] == "1"
    # one compute thread: pin the BLAS and OpenMP pools before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import specsing as S
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    ops = json.loads(sys.stdin.readline())
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(S)
    result = run(S, ops, tracer)
    if tracer:
        result["trace"] = tracer.report()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # NaN and inf are legal here: json writes them as NaN/Infinity
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
