"""Command-line front end: parse a run configuration, dispatch to kernel,
density, and verification computations over grids, and emit machine-readable
results (csv or json).

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification-test failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import asymptotics, density, kernels, limits
from .polynomials import EnsembleParams, orthogonality_check
from .series import NonConvergenceError, PoleError

_DEFAULT_TOL = {
    "identity": 1e-6,
    "ortho": 1e-8,
    "morris": 1e-6,
    "intermediate_ratio": 2.0,
}


@dataclass
class RunConfig:
    command: str
    beta: int = 2
    p: float = 1.5
    q: float = 0.7
    n_list: list = field(default_factory=lambda: [100, 200, 400, 800])
    grid_x: list = field(default_factory=lambda: [0.7, 2.0])
    grid_y: list = field(default_factory=lambda: [0.9, 3.1])
    out: str = "specsing_out.json"
    format: str = "json"
    tolerances: dict = field(default_factory=dict)

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command.startswith("density") and self.beta % 2:
            raise ValueError("density commands require even beta")
        if not self.grid_x or (self.command.startswith("kernel") and not self.grid_y):
            raise ValueError("grid must be nonempty")
        if not self.n_list:
            raise ValueError("n-list must be nonempty")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        for N in self.n_list:
            _params(self, N)   # EnsembleParams rejects beta, N, p and q

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, _DEFAULT_TOL[key]))


def _params(cfg: RunConfig, N: int) -> EnsembleParams:
    return EnsembleParams(cfg.beta, N, cfg.p, cfg.q)


# --- command implementations ---------------------------------------------------

def _cmd_kernel_eval(cfg: RunConfig):
    rows = []
    for N in cfg.n_list:
        pr = _params(cfg, N)
        for X in cfg.grid_x:
            for Y in cfg.grid_y:
                rows.append([cfg.beta, N, X, Y,
                             kernels.kernel_scaled(cfg.beta, X, Y, pr)])
    return {"columns": ["beta", "N", "X", "Y", "S_scaled"], "rows": rows}, 0


def _cmd_kernel_limit(cfg: RunConfig):
    pr = _params(cfg, max(cfg.n_list))
    rows = []
    for X in cfg.grid_x:
        for Y in cfg.grid_y:
            K = limits.k_limit(cfg.beta, X, Y, pr)
            L1 = limits.l1(cfg.beta, X, Y, pr)
            L2 = limits.l2(cfg.beta, X, Y, pr) if cfg.beta in (2, 4) else complex("nan")
            rows.append([X, Y, K.real, K.imag, L1.real, L1.imag, L2.real, L2.imag])
    return {"columns": ["X", "Y", "K_re", "K_im", "L1_re", "L1_im",
                        "L2_re", "L2_im"], "rows": rows}, 0


def _cmd_density_eval(cfg: RunConfig):
    rows = []
    for N in cfg.n_list:
        pr = _params(cfg, N)
        for theta in cfg.grid_x:
            rows.append([cfg.beta, N, theta, density.rho_finite(theta, pr)])
    return {"columns": ["beta", "N", "theta", "rho"], "rows": rows}, 0


def _cmd_density_limit(cfg: RunConfig):
    pr = _params(cfg, max(cfg.n_list))
    rows = [[theta, density.rho_limit(theta, pr)] for theta in cfg.grid_x]
    return {"columns": ["theta", "rho_inf"], "rows": rows}, 0


def _cmd_converge(cfg: RunConfig):
    pr = _params(cfg, max(cfg.n_list))
    X, Y = cfg.grid_x[0], cfg.grid_y[0]
    rows = []
    max_order = 2 if cfg.beta in (2, 4) else 1
    for order in range(max_order + 1):
        rep = asymptotics.kernel_residual_scan(cfg.beta, X, Y, pr,
                                               cfg.n_list, order)
        for N, r in zip(rep.N_values, rep.residuals):
            rows.append([f"order{order}", N, r, rep.fitted_slope, rep.fit_r2,
                         int(rep.floor_hit)])
    rep = asymptotics.tuned_scaling_residual(cfg.beta, X, Y, pr, cfg.n_list)
    for N, r in zip(rep.N_values, rep.residuals):
        rows.append(["tuned", N, r, rep.fitted_slope, rep.fit_r2,
                     int(rep.floor_hit)])
    return {"columns": ["mode", "N", "residual", "slope", "fit_r2", "floor"],
            "rows": rows}, 0


def _cmd_verify_identity(cfg: RunConfig):
    rows = []
    worst = 0.0
    pr = _params(cfg, max(cfg.n_list))
    for X in cfg.grid_x:
        for Y in cfg.grid_y:
            res = limits.derivative_identity_residual(cfg.beta, X, Y, pr)
            worst = max(worst, res)
            rows.append([cfg.beta, X, Y, res])
    status = 0 if worst <= cfg.tol("identity") else 3
    return {"columns": ["beta", "X", "Y", "residual"], "rows": rows,
            "max_residual": worst}, status


def _cmd_verify_intermediate(cfg: RunConfig):
    rows = []
    status = 0
    X = cfg.grid_x[0]
    Ns = sorted(cfg.n_list)[-2:] if len(cfg.n_list) >= 2 else [100, 200]
    pr = _params(cfg, Ns[-1])
    for kind in asymptotics._KINDS:
        vals = [asymptotics.intermediate_expansion_check(kind, N, X, pr)
                for N in Ns]
        lo = max(min(vals), 1e-300)
        ratio = max(vals) / lo if lo > 1e-250 else 1.0
        ok = ratio <= cfg.tol("intermediate_ratio") or max(vals) < 1e-10
        status = status if ok else 3
        rows.append([kind, Ns[0], vals[0], Ns[1], vals[1], int(ok)])
    return {"columns": ["kind", "N1", "scaled_resid1", "N2", "scaled_resid2",
                        "pass"], "rows": rows}, status


def _cmd_ortho_check(cfg: RunConfig):
    pr = _params(cfg, max(cfg.n_list))
    rows = []
    worst = 0.0
    nmax = min(6, pr.size - 1)
    for n in range(nmax + 1):
        for m in range(n, nmax + 1):
            res = orthogonality_check(n, m, pr)
            worst = max(worst, res)
            rows.append([n, m, res])
    status = 0 if worst <= cfg.tol("ortho") else 3
    return {"columns": ["n", "m", "residual"], "rows": rows,
            "max_residual": worst}, status


def _cmd_morris_check(cfg: RunConfig):
    rows = []
    worst = 0.0
    cases = [(N, lam) for N in (1, 2, 3) for lam in (0.5, 1.0, 2.0)]
    pairs = [(0.0, 0.0), (1.0, 0.0), (cfg.p, cfg.q)]
    for N, lam in cases:
        for (a, b) in pairs:
            m = density.MorrisParams(complex(a), complex(b), lam, N)
            closed = density.morris_closed(m)
            quad = density.morris_quadrature(m)
            rel = abs(closed - quad) / abs(closed)
            worst = max(worst, rel)
            rows.append([N, lam, a, b, closed.real, closed.imag,
                         quad.real, quad.imag, rel])
    status = 0 if worst <= cfg.tol("morris") else 3
    return {"columns": ["N", "lambda", "a", "b", "closed_re", "closed_im",
                        "quad_re", "quad_im", "rel_err"], "rows": rows,
            "max_rel_err": worst}, status


_DISPATCH = {
    "kernel-eval": _cmd_kernel_eval,
    "kernel-limit": _cmd_kernel_limit,
    "density-eval": _cmd_density_eval,
    "density-limit": _cmd_density_limit,
    "converge": _cmd_converge,
    "verify-identity": _cmd_verify_identity,
    "verify-intermediate": _cmd_verify_intermediate,
    "ortho-check": _cmd_ortho_check,
    "morris-check": _cmd_morris_check,
}
COMMANDS = tuple(_DISPATCH)


# --- emission -------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def emit(report: dict, fmt: str, path: str) -> str:
    """Write a report deterministically; complex values are emitted as paired
    re/im columns upstream, floats with 17 significant digits."""
    if fmt == "csv":
        lines = [",".join(report["columns"])]
        for row in report["rows"]:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        clean = {k: v for k, v in sorted(report.items())}
        text = json.dumps(clean, sort_keys=True, indent=1,
                          default=lambda v: float(v)) + "\n"
    else:
        raise ValueError("format must be csv or json")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- entry point ----------------------------------------------------------------

def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_config(argv) -> RunConfig:
    ap = argparse.ArgumentParser(
        prog="specsing",
        description="circular Jacobi beta-ensemble kernels, densities and "
                    "asymptotic verification")
    ap.add_argument("--config", help="JSON config file; flags override it")
    ap.add_argument("--command", choices=COMMANDS)
    ap.add_argument("--beta", type=int)
    ap.add_argument("--n-list", type=str, help="comma-separated matrix sizes")
    ap.add_argument("--p", type=float)
    ap.add_argument("--q", type=float)
    ap.add_argument("--grid-x", type=str, help="comma-separated X (or theta) grid")
    ap.add_argument("--grid-y", type=str, help="comma-separated Y grid")
    ap.add_argument("--out", type=str)
    ap.add_argument("--format", choices=("csv", "json"))
    args = ap.parse_args(argv)

    data = {}
    if args.config:
        with open(args.config) as fh:
            data.update(json.load(fh))
    if args.command:
        data["command"] = args.command
    if "command" not in data:
        ap.error("a command is required (flag --command or config file)")
    for key, val in (("beta", args.beta), ("p", args.p), ("q", args.q),
                     ("out", args.out), ("format", args.format)):
        if val is not None:
            data[key] = val
    if args.n_list is not None:
        data["n_list"] = _ints(args.n_list)
    if args.grid_x is not None:
        data["grid_x"] = _floats(args.grid_x)
    if args.grid_y is not None:
        data["grid_y"] = _floats(args.grid_y)
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)


def run(cfg: RunConfig) -> int:
    """Validate, dispatch, and write results; returns the exit status."""
    try:
        cfg.validate()
    except (ValueError, TypeError) as exc:
        print(f"specsing: invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        report, status = _DISPATCH[cfg.command](cfg)
    except (NonConvergenceError, PoleError, ArithmeticError, ZeroDivisionError) as exc:
        print(f"specsing: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"specsing: invalid configuration: {exc}", file=sys.stderr)
        return 1
    report = {"command": cfg.command,
              "params": {"beta": cfg.beta, "p": cfg.p, "q": cfg.q,
                         "n_list": list(cfg.n_list)},
              **report}
    emit(report, cfg.format, cfg.out)
    print(f"specsing: {cfg.command} -> {cfg.out} (exit {status})")
    return status


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"specsing: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 1 if exc.code else 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
