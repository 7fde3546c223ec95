"""Spectral density: Morris integrals, beta-dimensional representations,
finite-N density against the determinantal oracle, and scaled limits."""
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from specsing import (DensityTilde, EnsembleParams, MorrisParams, NonConvergenceError,
                      density_expansion_check, i_integral, k_limit, kernel_s2, l1,
                      log_gamma, morris_closed, morris_quadrature, rho_finite, rho_limit,
                      tanh_sinh_rule)
from specsing import density
from specsing.density import _morris_ratio, c_beta_limit
from specsing.jack import hyper_pfq_alpha
from specsing.quadrature import _T_CUT, sector_integrate


def rho_determinantal(theta, params):
    """Oracle: the determinantal diagonal transported to the circle through
    x = cot(theta/2) (the orientation matching the e^{-q theta} phase)."""
    x = 1.0 / math.tan(theta / 2)
    return kernel_s2(x, x, params) / (2 * math.sin(theta / 2) ** 2)


class TestMorris:
    def test_n1_closed(self):
        a, b = 1.5 + 0.0j, 0.7 + 0.0j
        m = MorrisParams(a, b, 2.0, 1)
        ref = np.exp(log_gamma(a + b + 1) - log_gamma(a + 1) - log_gamma(b + 1))
        assert abs(morris_closed(m) - ref) < 1e-13 * abs(ref)

    def test_unit_integrand(self):
        m = MorrisParams(0.0 + 0j, 0.0 + 0j, 1.7, 1)
        assert abs(morris_quadrature(m) - 1.0) < 1e-10

    def test_n1_a1b1(self):
        m = MorrisParams(1.0 + 0j, 1.0 + 0j, 1.0, 1)
        assert abs(morris_quadrature(m) - 2.0) < 1e-8

    def test_finite_positive(self):
        m = MorrisParams(0.0 + 0j, 0.0 + 0j, 1.0, 3)
        val = morris_closed(m)
        assert val.real > 0 and abs(val.imag) < 1e-14

    @pytest.mark.parametrize("a, b", [(1.3 + 0.4j, 1.3 - 0.4j), (1.3 - 0.4j, 1.3 + 0.4j),
                                      (1.3 + 0j, 1.3 + 0j), (1.3 + 0j, complex(1.3, -0.0)),
                                      (1.5 + 0j, 0.7 + 0j), (-2.3 + 0.5j, -2.3 - 0.5j),
                                      (-2.3 + 0j, -2.3 + 0j), (0.9 + 0.4j, 1.1 - 0.4j)])
    def test_closed_matches_unshared_sum(self, a, b, monkeypatch):
        # b = conj(a) off the real axis reads log G at lam j + b + 1 as the
        # conjugate of the value at lam j + a + 1: bit for bit the sum of
        # five log-gamma values per j, in 3 N + 1 calls instead of 5 N
        lam, N = 0.7, 6
        ref = 0j
        for j in range(N):
            ref += (log_gamma(lam * j + a + b + 1) + log_gamma(lam * (j + 1) + 1)
                    - log_gamma(lam * j + a + 1) - log_gamma(lam * j + b + 1)
                    - log_gamma(1 + lam))
        calls = []
        monkeypatch.setattr(density, "log_gamma", lambda z: calls.append(z) or log_gamma(z))
        val = morris_closed(MorrisParams(a, b, lam, N))
        assert repr(val) == repr(complex(np.exp(ref)))
        assert len(calls) == (3 * N + 1 if a.imag and b == a.conjugate() else 4 * N + 1)

    @pytest.mark.parametrize("N,lam", [(2, 0.5), (2, 1.0), (3, 2.0)])
    def test_closed_vs_quadrature(self, N, lam):
        m = MorrisParams(1.5 + 0j, 0.7 + 0j, lam, N)
        c, q = morris_closed(m), morris_quadrature(m)
        assert abs(c - q) < 1e-6 * abs(c)

    @pytest.mark.parametrize("a, b, lam", [(math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
                                           (0.0, complex(0.0, math.inf), 1.0),
                                           (0.0, 0.0, math.nan), (0.0, 0.0, math.inf)])
    def test_non_finite_parameters(self, a, b, lam):
        # each of these made morris_closed and morris_quadrature return nan
        # (nan + 0j or nan + nan j) without raising
        with pytest.raises(ValueError, match="finite"):
            MorrisParams(complex(a), complex(b), lam, 2)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            morris_quadrature(MorrisParams(0j, 0j, 1.0, 4))

    @pytest.mark.parametrize("a, lam, N", [(-0.4, 1.0, 1), (-0.45, 1.0, 2), (-0.45, 0.1, 2)])
    def test_negative_a_plus_b(self, a, lam, N):
        # (2 cos pi t)^(a+b) is singular at the ends; cos(pi t) there loses
        # all relative precision, 2 sin(pi * distance to the end) keeps it
        # (off by 4.5e-4, 2.5e-2 and 3.0e-2 when computed from cos)
        m = MorrisParams(complex(a), complex(a), lam, N)
        c = morris_closed(m)
        assert abs(morris_quadrature(m) - c) < 1e-6 * abs(c)

    @pytest.mark.parametrize("a, b", [(-0.5, -0.5), (-0.7 + 0.2j, -0.4 - 0.5j), (-1.5, 0.2)])
    def test_divergent_raises(self, a, b):
        with pytest.raises(ValueError, match="diverges"):
            morris_quadrature(MorrisParams(complex(a), complex(b), 1.0, 2))

    @pytest.mark.parametrize("a, lam, N", [(-0.49, 1.0, 1), (-0.49, 0.3, 2), (-0.49, 1.0, 2),
                                           (-0.487, 1.0, 1), (-0.487, 0.3, 2)])
    def test_near_divergent(self, a, lam, N):
        # the rule's last nodes, 1e-290 from the ends, leave out about
        # (1e-290)^(1 + a + b) of the integral, a share no level difference
        # sees: 1.6e-6 at a + b = -0.98, where a value 2.1e-6 off was
        # returned, so that raises; 2.8e-8 at -0.974 (measured 2.0e-8 and
        # 4.1e-8), which returns
        m = MorrisParams(complex(a), complex(a), lam, N)
        if a == -0.49:
            with pytest.raises(NonConvergenceError, match="Morris quadrature"):
                morris_quadrature(m)
        else:
            c = morris_closed(m)
            assert abs(morris_quadrature(m) - c) < 1e-7 * abs(c)

    @pytest.mark.parametrize("m", [
        MorrisParams(-0.298 + 0.219j, -0.433 - 0.986j, 0.399, 1),
        MorrisParams(-0.436 - 0.315j, -0.4 - 0.477j, 1.165, 2)])
    def test_levels_past_five(self, m):
        # levels 4 and 5 differ by 1.35e-6 and 7.6e-4 (relative), over the
        # 1e-6 limit: finer levels, as many as the point budget allows, settle
        # them (measured 1.2e-15 and 3.2e-15)
        c = morris_closed(m)
        assert abs(morris_quadrature(m) - c) < 1e-6 * abs(c)

    def test_window_matches_full_rule(self, monkeypatch):
        # the node window morris_quadrature takes from the endpoint exponents
        # leaves out less than 1e-13 of the integral: on a seeded grid it is
        # within 1e-13 of the same levels on the default nodes, and raises
        # where they raise (measured: at most 2.9e-16; 1 of the 35 raises, at
        # N = 3, whose level 6 is past the point budget)
        rng = np.random.default_rng(17)
        cases = []
        for N, count in ((1, 16), (2, 16), (3, 3)):
            for _ in range(count):
                ab, d = rng.uniform(-0.95, 5.0), rng.uniform(-1.0, 1.0)
                ya, yb = rng.uniform(-1.0, 1.0, 2)
                cases.append(MorrisParams(complex((ab + d) / 2, ya), complex((ab - d) / 2, yb),
                                          rng.uniform(0.05, 2.0), N))

        def outcomes():
            out = []
            for m in cases:
                try:
                    out.append(morris_quadrature(m))
                except NonConvergenceError:
                    out.append(None)
            return out

        windowed = outcomes()
        monkeypatch.setattr(density, "_morris_window", lambda e: _T_CUT)
        full = outcomes()
        assert sum(v is not None for v in full) >= 30
        for m, got, want in zip(cases, windowed, full):
            assert (got is None) == (want is None), m
            if want is not None:
                assert abs(got - want) <= 1e-13 * abs(want), m

    def test_nonconvergence_raises(self, monkeypatch):
        # an integrand no level the point budget allows resolves: the last
        # two levels differ by more than 1e-6 relative
        real = density.sector_integrate_adaptive

        def unresolved(fvec, *args, **kwargs):
            return real(lambda ts: fvec(ts) * (1 + 1e-2 * np.sin(1e4 * ts[0])),
                        *args, **kwargs)

        monkeypatch.setattr(density, "sector_integrate_adaptive", unresolved)
        with pytest.raises(NonConvergenceError, match="Morris quadrature"):
            morris_quadrature(MorrisParams(1.5 + 0j, 0.7 + 0j, 1.0, 2))


class TestIIntegral:
    def test_finite_N_at_zero(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        assert abs(i_integral("finite_N", 0.0, pr) - 1.0) < 1e-10

    def test_infinity_at_zero_is_morris(self):
        # beta = 2: 1-D moments by Andreief's identity (measured <= 6e-14);
        # beta = 4: de Bruijn's Pfaffian on 1-D nodes (measured <= 6e-13)
        cases = [(beta, pq, 1e-12 if beta == 2 else 1e-10) for beta in (2, 4)
                 for pq in ((1.5, 0.7), (0.6, -0.4), (2.4, 0.9))]
        for beta, pq, tol in cases:
            pr = EnsembleParams(beta, 4, *pq)
            td = DensityTilde.from_ensemble(pr)
            closed = (2 * math.pi) ** beta * morris_closed(
                MorrisParams(td.a_tilde, td.b_tilde, 2 / beta, beta))
            val = i_integral("infinity", 0.0, pr)
            assert abs(val - closed) < tol * abs(closed), (beta, pq)

    def test_integration_by_parts_identity(self):
        # I[-theta sum e^{i t_j}] = -i a~ beta I_inf + i (a~+b~) I[sum 1/(1+e^{i t_p})]
        # (the displayed a~-b~ fails numerically; the derivation gives a~+b~).
        # The inv1p moment has endpoint exponent p + 2/beta - 3, so p near
        # 2 - 2/beta is the hard case (measured <= 6e-14 at beta = 2 and
        # <= 1.8e-12 at beta = 4)
        theta = 1.0
        for beta, p, tol in ((2, 1.15, 1e-12), (2, 1.3, 1e-12), (2, 1.5, 1e-12),
                             (4, 1.6, 1e-11), (4, 2.2, 1e-11)):
            pr = EnsembleParams(beta, 4, p, 0.7)
            td = DensityTilde.from_ensemble(pr)
            lhs = -theta * i_integral("weighted", theta, pr, "exp1")
            rhs = (-1j * td.a_tilde * beta * i_integral("infinity", theta, pr)
                   + 1j * (td.a_tilde + td.b_tilde)
                   * i_integral("weighted", theta, pr, "inv1p"))
            assert abs(lhs - rhs) < tol * abs(lhs), (beta, p)

    def test_inv1p_needs_integrable_endpoint(self):
        # the inv1p moment carries |1 + e^{it}|^{p + 2/beta - 3}
        with pytest.raises(ValueError):
            i_integral("weighted", 1.0, EnsembleParams(2, 4, 0.95, 0.7), "inv1p")
        with pytest.raises(ValueError):
            i_integral("weighted", 1.0, EnsembleParams(4, 4, 1.4, 0.7), "inv1p")

    @pytest.mark.parametrize("moment", ["one", "exp1", "exp2"])
    def test_beta2_moments_match_sector_rule(self, moment):
        # the 1-D Andreief moments against a level-8 2-D sector rule of the
        # original integrand (measured <= 1.1e-13)
        pr = EnsembleParams(2, 4, 1.7, 0.4)
        theta = 1.2
        td = DensityTilde.from_ensemble(pr)
        ab, d = td.a_tilde + td.b_tilde, td.a_tilde - td.b_tilde
        h = {"one": lambda t: 0.5, "exp1": lambda t: np.exp(1j * t),
             "exp2": lambda t: np.exp(2j * t)}[moment]

        def g(t):
            return np.exp(1j * d / 2 * t + ab * np.log(2 * np.abs(np.cos(t / 2)))
                          + 1j * theta * np.exp(1j * t))

        def f(ts):
            x, y = ts
            return (g(x) * g(y) * np.abs(np.exp(1j * y) - np.exp(1j * x)) ** 2
                    * (h(x) + h(y)))

        ref = sector_integrate(f, 2, -math.pi, math.pi, level=8)
        val = i_integral("weighted", theta, pr, moment)
        assert abs(val - ref) < 1e-11 * abs(ref)

    def test_iinf_derivative_relation(self):
        # i theta I_inf'(theta) = -theta I[sum e^{i t_p}]; at beta = 4 the
        # moment is the first-order term of the Pfaffian
        for beta in (2, 4):
            pr = EnsembleParams(beta, 4, 1.5, 0.7)
            theta, h = 1.0, 1e-5
            d = (i_integral("infinity", theta + h, pr)
                 - i_integral("infinity", theta - h, pr)) / (2 * h)
            lhs = 1j * theta * d
            rhs = -theta * i_integral("weighted", theta, pr, "exp1")
            assert abs(lhs - rhs) < 1e-6 * abs(lhs)

    def test_unsupported(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        with pytest.raises(ValueError):
            i_integral("weighted", 1.0, pr, "bogus")
        with pytest.raises(ValueError):
            i_integral("finite_N", 1.0, EnsembleParams(6, 3, 1.5, 0.7))


class TestIntegralPathPass:
    """The integral paths integrate numerator and normalization in one pass."""

    @pytest.mark.parametrize("call", [
        lambda beta: rho_finite(2.0, EnsembleParams(beta, 5, 1.4, 0.3), "integral"),
        lambda beta: rho_limit(1.5, EnsembleParams(beta, 4, 1.8, -0.5), "integral"),
        lambda beta: i_integral("weighted", 1.0, EnsembleParams(beta, 4, 1.6, 0.2), "inv1p")])
    def test_one_pass_on_shared_contours(self, monkeypatch, call):
        # numerator and normalization (or moment) read each level's contour
        # once, in one pass, at beta = 2 and 4 alike; each level's contour is
        # built once per process, and both betas read the same arrays
        density._contour.cache_clear()
        built, read = [], []
        unit, contour = density._unit_nodes, density._contour

        def counted_unit(level):
            built.append(level)
            return unit(level)

        def counted(level):
            read.append(contour(level))
            return read[-1]

        monkeypatch.setattr(density, "_unit_nodes", counted_unit)
        monkeypatch.setattr(density, "_contour", counted)
        call(2)
        call(4)
        assert built == [6, 7]
        assert len(read) == 4 and all(arrays is contour(level)
                                      for arrays, level in zip(read, (6, 7, 6, 7)))
        assert not any(arr.flags.writeable for arrays in read for arr in arrays)

    @pytest.mark.parametrize("call", [
        lambda: rho_finite(2.0, EnsembleParams(4, 3, 1.4, 0.3), "integral"),
        lambda: rho_limit(1.5, EnsembleParams(4, 4, 1.8, -0.5), "integral"),
        lambda: i_integral("weighted", 1.0, EnsembleParams(4, 4, 1.6, 0.2), "exp1")])
    def test_beta4_one_sinc_product_per_level(self, monkeypatch, call):
        # each level fetches S once, for the one product of all stacked rows
        sizes = []
        real = density._sinc_matrix

        def counted(n):
            sizes.append(n)
            return real(n)

        monkeypatch.setattr(density, "_sinc_matrix", counted)
        call()
        coarse, fine = (density._unit_nodes(level)[0].size for level in (6, 7))
        assert sizes == [coarse, fine]

    def test_seeded_grid_matches_jack(self):
        # the contour moments (beta = 2) and the Pfaffian entries (beta = 4):
        # over 300 and 60 draws from these ranges the worst relative errors
        # were, by N = 3..8, 1.9e-14, 3.1e-14, 1.1e-13, 1.8e-13, 5.4e-13,
        # 2.8e-13 at beta = 2 and, by N = 3..6, 1.3e-11, 2.8e-11, 6.7e-11,
        # 8.4e-10 at beta = 4, where the entries cancel more as N grows
        rng = random.Random(19)
        for beta, n_hi, count in ((2, 8, 24), (4, 6, 10)):
            for _ in range(count):
                N = rng.randint(3, n_hi)
                pr = EnsembleParams(beta, N, rng.uniform(0.9, 2.5), rng.uniform(-0.8, 0.8))
                theta = rng.uniform(0.2, 3.0)
                rj = rho_finite(theta, pr, "jack")
                ri = rho_finite(theta, pr, "integral")
                tol = 1e-11 if beta == 2 else 1e-10 if N <= 5 else 3e-9
                assert abs(ri - rj) < tol * rj, (pr, theta)

    def test_beta2_large_N_matches_jack(self):
        # on the contour (1 + (1 - e^{-i theta}) e^{it})^(N-1) cancels far
        # less than on the real axis, where this case was 4.2e-7 off without
        # raising (measured 2.3e-12)
        pr = EnsembleParams(2, 14, 1.95, 0.4)
        rj = rho_finite(2.0, pr, "jack")
        assert abs(rho_finite(2.0, pr, "integral") - rj) < 1e-9 * rj

    def test_beta2_seeded_grid_matches_jack_or_raises(self):
        # N = 10..16, theta up to 5.8: each value is within 1e-9 of the Jack
        # series, or a typed error is raised (measured: none raise, worst
        # 1.1e-11; on the real axis 19 of these 24 raised and 4 returned
        # values up to 3.2e-8 off)
        rng = random.Random(21)
        for _ in range(24):
            N = rng.randint(10, 16)
            pr = EnsembleParams(2, N, rng.uniform(0.9, 2.5), rng.uniform(-0.8, 0.8))
            theta = rng.uniform(0.3, 5.8)
            try:
                ri = rho_finite(theta, pr, "integral")
            except (ArithmeticError, NonConvergenceError):
                continue
            rj = rho_finite(theta, pr, "jack")
            assert abs(ri - rj) < 1e-9 * rj, (pr, theta)

    @pytest.mark.parametrize("beta", [2, 4])
    def test_normalized_takes_no_moment(self, beta):
        # the normalized pass integrates g and g power_factor; a moment would
        # drop the normalization's rows
        with pytest.raises(ValueError, match="one if normalized"):
            density._b_integral(EnsembleParams(beta, 4, 1.6, 0.2), lambda z: 1 + 0 * z,
                                "exp1", normalized=True)


class TestRhoFinite:
    def test_normalization(self):
        pr = EnsembleParams(2, 4, 1.5, 0.7)
        val, _ = quad(lambda t: rho_finite(t, pr), 1e-9, 2 * math.pi - 1e-9,
                      limit=100)
        assert abs(val - 4) < 1e-4

    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.5, 0.3)])
    def test_determinantal_equivalence(self, pq):
        pr = EnsembleParams(2, 5, *pq)
        for theta in (0.8, 2.0, 4.5):
            rj = rho_finite(theta, pr, "jack")
            rd = rho_determinantal(theta, pr)
            assert abs(rj - rd) < 1e-6 * rd

    def test_dual_path(self):
        pr = EnsembleParams(2, 3, 1.5, 0.7)
        for theta in (0.8, 2.0):
            rj = rho_finite(theta, pr, "jack")
            ri = rho_finite(theta, pr, "integral")
            assert abs(rj - ri) < 1e-6 * rj

    def test_dual_path_beta4(self):
        # measured 1.5e-13
        pr = EnsembleParams(4, 2, 1.0, 0.4)
        rj = rho_finite(0.9, pr, "jack")
        ri = rho_finite(0.9, pr, "integral")
        assert abs(rj - ri) < 1e-10 * rj

    def test_integral_path_beta4_over_N(self):
        # the integral path either agrees with the Jack series or raises
        agreed = 0
        for N in (2, 3, 4, 6, 8, 10, 12, 16):
            for p in (0.8, 1.3, 2.0):
                pr = EnsembleParams(4, N, p, 0.4)
                for theta in (0.5, 1.5, 3.0, 5.0):
                    try:
                        ri = rho_finite(theta, pr, "integral")
                    except (ArithmeticError, NonConvergenceError):
                        continue
                    rj = rho_finite(theta, pr, "jack")
                    assert abs(ri - rj) < 1e-8 * rj, (N, p, theta)
                    agreed += 1
        assert agreed >= 40

    @pytest.mark.parametrize("beta,N,p,q,thetas", [(2, 16, 2.5, 0.5, (0.3, 0.5)),
                                                   (4, 8, 1.3, 0.4, (0.5, 1.5, 3.0)),
                                                   (2, 200, 1.3, 0.4, (0.01,)),
                                                   (4, 60, 1.3, 0.4, (0.05,))])
    def test_integral_path_closed_form_normalization(self, beta, N, p, q, thetas):
        # the unit-argument Jack series F_den was 2.9e-6 (beta = 2, N = 16)
        # and 1.4e-5 (beta = 4, N = 8) off, and at N = 60 and 200 the density
        # failed its reality check; the closed form leaves the quadrature's
        # error (measured <= 3.8e-12)
        pr = EnsembleParams(beta, N, p, q)
        for theta in thetas:
            rj = rho_finite(theta, pr, "jack")
            assert abs(rho_finite(theta, pr, "integral") - rj) < 1e-9 * rj, theta

    def test_integral_path_beta4_N12_matches_jack_or_raises(self):
        # each value is within 1e-9 of the Jack series (measured 1.7e-13 and
        # 1.7e-10 at theta = 0.5, 1) or the Pfaffian level test raises, as
        # at theta = 1.5 and 3, where (1 + (1 - e^{-i theta}) e^{it})^11 cancels
        pr = EnsembleParams(4, 12, 1.5, 0.4)
        for theta in (0.5, 1.0, 1.5, 3.0):
            try:
                ri = rho_finite(theta, pr, "integral")
            except (ArithmeticError, NonConvergenceError):
                assert theta > 1, theta
                continue
            rj = rho_finite(theta, pr, "jack")
            assert abs(ri - rj) < 1e-9 * rj, theta

    @pytest.mark.parametrize("beta,N", [(2, 64), (4, 28)])
    def test_normalization_large_N(self, beta, N):
        # both raised NonConvergenceError while the Jack terms were built from
        # scratch (inf/inf shells); measured 3e-14 and 1e-12
        pr = EnsembleParams(beta, N, 1.3, 0.4)
        rule = tanh_sinh_rule(0, 2 * math.pi, 8)
        val = sum(w * rho_finite(float(t), pr)
                  for t, w in zip(rule.nodes, rule.weights))
        assert abs(val - N) < 1e-10 * N

    @pytest.mark.parametrize("beta,N,ref", [(2, 64, 10.499363034951399),
                                            (4, 40, 6.459495742570329)])
    def test_large_N_reference(self, beta, N, ref):
        # 30-digit kernel-diagonal values at theta = 1, (p, q) = (1.3, 0.4)
        val = rho_finite(1.0, EnsembleParams(beta, N, 1.3, 0.4))
        assert abs(val - ref) < 1e-9 * ref

    def test_morris_ratio_does_not_overflow(self):
        # each Morris integral overflows alone at N = 200; their ratio does not
        val = rho_finite(0.3, EnsembleParams(2, 200, 1.3, 0.4))
        assert abs(val - 32.44943873430255) < 1e-10 * 32.44943873430255

    @pytest.mark.parametrize("beta,N,ref", [
        (2, 1, 0.335974429752262493951282494732),
        (2, 2, 0.132056616138736508039184647235 + 0.0671948859504524987902564989464j),
        (2, 45, -0.000616085043173681518746935752121 + 0.000176205519152473556848510523826j),
        (4, 1, 0.07749846780601627038991655816),
        (4, 2, 0.0086933466455279183117195527427 + 0.00588414292601234645553070163807j),
        (4, 45, -1.23499290159048739019486082457e-7 + 6.6700643964389283697844472882e-9j),
        (6, 1, 0.0156405121650629805920185837914),
        (6, 2, 0.000497383604937261399042962421788 + 0.000381120298402218778691512402279j),
        (6, 45, -2.02086717962399762622426166003e-11 - 8.22568733652489394137338392604e-13j)])
    def test_morris_ratio_reference(self, beta, N, ref):
        # 30-digit mpmath M_n / M_{n+1} summed over the Morris products, (p, q) = (1.3, 0.4)
        val = _morris_ratio(EnsembleParams(beta, N, 1.3, 0.4))
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_cue_uniform(self):
        pr = EnsembleParams(2, 8, 0.0, 0.0)
        assert rho_finite(1.0, pr) == pytest.approx(8 / (2 * math.pi))

    def test_domain(self):
        # at p = 0 the uniform density was returned before path was checked
        for pr in (EnsembleParams(2, 4, 1.5, 0.7), EnsembleParams(2, 5, 0, 0)):
            for theta, path in ((0.0, "jack"), (math.nan, "jack"), (1.0, "bogus")):
                with pytest.raises(ValueError):
                    rho_finite(theta, pr, path)

    def test_shells_match_series_at_theta(self):
        # Horner over the shells at x = 1 against the series summed at
        # x = e^{-i theta}.  At (p, q) = (1.3, 0.4) they agree to 1e-10
        # (measured 4.6e-12).  At other (p, q) the shells can cancel by 1e8
        # near theta = pi, where each sum is only within a few eps sum_w
        # |shell_w| of F (measured: the two differ by 1.8 times that here,
        # and by up to 5 times on other seeds)
        rng = random.Random(32)
        eps = np.finfo(float).eps
        for beta, top in ((2, 45), (4, 20), (6, 8)):
            for _ in range(8):
                N = rng.randint(1, top)
                for p, q in ((1.3, 0.4), (rng.uniform(0.5, 2.5), rng.uniform(-1, 1))):
                    pr, n = EnsembleParams(beta, N, p, q), N - 1
                    shells = density._finite_shells(pr)
                    for _ in range(3):
                        theta = rng.uniform(0.01, 2 * math.pi - 0.01)
                        F = hyper_pfq_alpha([complex(-n), complex(p + 1, -2 * q / beta)],
                                            [complex(-n - p - 2 / beta + 2, -2 * q / beta)],
                                            beta / 2, beta, np.exp(-1j * theta), beta * n)
                        pref = density._rho_prefactor(theta, pr)
                        ref = (pref * F).real
                        err = abs(rho_finite(theta, pr) - ref)
                        if (p, q) == (1.3, 0.4):
                            assert err < 1e-10 * ref, (beta, N, theta)
                        bound = 32 * eps * abs(pref) * np.sum(np.abs(shells))
                        assert err < 1e-10 * ref + bound, (beta, N, p, q, theta)

    def test_theta_sweep_sums_series_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return shells(*args)

        shells = density._pfq_shells
        monkeypatch.setattr(density, "_pfq_shells", counted)
        density._finite_shells.cache_clear()
        pr = EnsembleParams(4, 12, 1.3, 0.4)
        vals = [rho_finite(float(t), pr) for t in np.linspace(0.1, 6.1, 20)]
        assert len(calls) == 1 and all(v > 0 for v in vals)
        assert not density._finite_shells(pr).flags.writeable

    def test_expansion_check_sums_each_finite_series_once(self, monkeypatch):
        # theta / N and theta / (N + p) share the parameter set at each N
        calls = []

        def counted(*args):
            calls.append(args[4])
            return shells(*args)

        shells = density._pfq_shells
        monkeypatch.setattr(density, "_pfq_shells", counted)
        density._finite_shells.cache_clear()
        density_expansion_check(1.0, EnsembleParams(2, 8, 1.5, 0.7), [8, 16, 32])
        assert calls.count(1.0) == 3 and len(calls) == 4  # and one limit series

    def test_past_node_budget_raises_at_every_theta(self):
        # the budget does not depend on theta, and lru_cache keeps no exception
        pr = EnsembleParams(6, 64, 1.3, 0.4)
        for theta in (0.5, 2.0):
            with pytest.raises(NonConvergenceError):
                rho_finite(theta, pr)

    def test_reality_and_positivity_grid(self):
        pr = EnsembleParams(2, 5, 1.5, 0.7)
        for theta in np.linspace(0.2, 6.0, 9):
            assert rho_finite(float(theta), pr) >= 0


class TestRhoLimit:
    def test_cue_value(self):
        pr = EnsembleParams(2, 8, 0.0, 0.0)
        assert rho_limit(1.0, pr) == pytest.approx(1 / (2 * math.pi))
        assert rho_limit(2.5, pr) == pytest.approx(1 / (2 * math.pi))

    @pytest.mark.parametrize("pq", [(0.0, 0.0), (1.5, 0.7)])
    @pytest.mark.parametrize("theta,kw,match", [
        (1.0, {"path": "bogus"}, "path"), (1.0, {"max_weight": -3}, "max_weight"),
        (math.nan, {}, "theta"), (math.inf, {}, "theta"), (0.0, {}, "theta")])
    def test_domain_checked_before_uniform_shortcut(self, pq, theta, kw, match):
        # p = 0 returned 1 / (2 pi) before path and max_weight were checked,
        # and a NaN theta raised naming the series argument x
        with pytest.raises(ValueError, match=match):
            rho_limit(theta, EnsembleParams(2, 5, *pq), **kw)

    def test_small_theta_power(self):
        # leading behaviour theta^(p beta) (1 - q theta/(p+1)): the sum rule
        # gives 1F1 ~ 1 + beta (p+1-2iq/beta)(-i theta)/(2p+2), and e^{i beta
        # theta/2} cancels its imaginary part
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        p, q = pr.p, pr.q
        t1, t2 = 1e-3, 1e-2
        slope = (math.log(rho_limit(t2, pr)) - math.log(rho_limit(t1, pr))) \
            / (math.log(t2) - math.log(t1))
        expected = p * pr.beta + math.log((1 - q * t2 / (p + 1)) / (1 - q * t1 / (p + 1))) \
            / math.log(t2 / t1)
        assert abs(slope - expected) < 1e-5

    def test_scaled_limit_of_finite_N(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        theta = 1.0
        target = rho_limit(theta, pr)
        vals = {}
        for N in (8, 16, 32):
            pn = EnsembleParams(2, N, 1.5, 0.7)
            vals[N] = rho_finite(theta / N, pn) / N
        # two-point Richardson removes the 1/N term; the residual is O(1/N^2)
        # (about -16 target / N^2), so it falls by about 4 per doubling
        resid = {N: 2 * vals[2 * N] - vals[N] - target for N in (8, 16)}
        assert 0.2 < resid[16] / resid[8] < 0.3

    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.8, -0.4), (2.3, 1.0),
                                    (1.1, 0.0)])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 3.5])
    def test_q_sign_matches_kernel_diagonal(self, pq, theta):
        # the density and kernel conventions carry opposite phases:
        # rho_inf(theta; q) = K_inf(theta/2, theta/2; -q)/2 (worst measured
        # 2.6e-14; with +q the two sides differ by up to a factor 10); the
        # beta = 4 kernel limit loses digits from X ~ 5 on
        p, q = pq
        for beta in (2, 4) if theta <= 2 else (2,):
            rho = rho_limit(theta, EnsembleParams(beta, 8, p, q))
            K = k_limit(beta, theta / 2, theta / 2, EnsembleParams(beta, 8, p, -q))
            assert abs(rho - 0.5 * K) < 1e-12 * abs(rho)

    @pytest.mark.parametrize("beta", [2, 4])
    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.8, -0.4), (2.3, 1.0)])
    def test_l1_matches_kernel_diagonal(self, beta, pq):
        # the 1/N terms of the density and of the kernel diagonal:
        # p d/dtheta [theta rho_inf](theta; q) = L1(theta/2, theta/2; -q)/2
        # (measured worst 1.1e-14; a five-point stencil of rho_inf, 2.4e-8)
        p, q = pq
        for theta in (0.3, 1.0, 2.0):
            rec = density_expansion_check(theta, EnsembleParams(beta, 4, p, q), [4, 8])
            L1 = l1(beta, theta / 2, theta / 2, EnsembleParams(beta, 8, p, -q))
            assert abs(rec["l1_predicted"] - 0.5 * L1) < 1e-12 * abs(L1)

    @pytest.mark.parametrize("pq", [(1.5, 0.7), (0.0, 0.0)])
    def test_expansion_check_sums_limit_series_once(self, monkeypatch, pq):
        # rho_inf and theta F'/F read the same shells; at p = 0 the uniform
        # limit sums none, so the check sums them itself
        calls = []

        def counted(*args):
            calls.append(args)
            return shells(*args)

        shells = density._limit_shells
        monkeypatch.setattr(density, "_limit_shells", counted)
        rec = density_expansion_check(1.0, EnsembleParams(2, 4, *pq), [4, 8])
        assert len(calls) == 1
        assert (rec["l1_predicted"] == 0) == (pq[0] == 0)

    def test_integral_path(self):
        pr = EnsembleParams(2, 8, 1.5, 0.7)
        rj = rho_limit(1.0, pr, "jack")
        ri = rho_limit(1.0, pr, "integral")
        assert abs(rj - ri) < 1e-6 * rj

    def test_integral_path_beta4_near_half_matches_jack(self):
        # endpoint exponent p - 3/2 = -0.7 (measured 2.7e-14)
        pr = EnsembleParams(4, 4, 0.8, 0.4)
        rj = rho_limit(2.0, pr, "jack")
        assert abs(rho_limit(2.0, pr, "integral") - rj) < 1e-12 * rj

    def test_integral_path_beta4_grid(self):
        # within 1e-9 of the Jack series (measured worst 1.0e-11) or
        # NonConvergenceError, or the normalization check's ZeroDivisionError
        # where the normalization vanishes.  Measured: 4 of 96 raise, all at
        # q = 0 and p = 2.5 (2p an integer), where b~ = -7/2 puts Gamma poles
        # in the Morris product, so the integrals of the numerator and of the
        # normalization both vanish, and all 4 from the normalization check
        raised = 0
        for p in np.linspace(0.6, 2.5, 8):
            for q in (-0.8, 0.0, 0.7):
                pr = EnsembleParams(4, 4, float(p), q)
                for theta in (0.3, 1.0, 2.0, 3.0):
                    try:
                        ri = rho_limit(theta, pr, "integral")
                    except ZeroDivisionError:
                        assert q == 0 and p == 2.5, (p, q, theta)
                        raised += 1
                        continue
                    except NonConvergenceError:
                        raised += 1
                        continue
                    # weight 40 leaves the series unconverged at theta = 3
                    rj = rho_limit(theta, pr, "jack", max_weight=80)
                    assert abs(ri - rj) < 1e-9 * rj, (p, q, theta)
        assert raised <= 6

    @pytest.mark.parametrize("beta,p", [(2, 1.0), (2, 2.0), (4, 1.0)])
    def test_integral_path_vanishing_normalization_raises(self, beta, p):
        # q = 0 and b~ = -p - 1: Gamma poles make the normalization integral
        # 0 (measured 1.3e-32, 2.3e-34 and 8.9e-33 of the integral of its
        # modulus; 8.3e-14 at beta = 2, p = 1, q = 1e-6), so both paths
        # raise from the normalization check
        pr = EnsembleParams(beta, 4, p, 0.0)
        with pytest.raises(ZeroDivisionError, match="normalization integral"):
            rho_limit(1.0, pr, "integral")
        with pytest.raises(ZeroDivisionError, match="normalization integral"):
            rho_finite(1.0, pr, "integral")
        # nearby the path still matches the Jack series
        near = EnsembleParams(beta, 4, p, 0.1)
        rj = rho_limit(1.0, near, "jack")
        assert abs(rho_limit(1.0, near, "integral") - rj) < 1e-8 * rj

    @pytest.mark.parametrize("q", [1e-2, 1e-3, 1e-4])
    def test_integral_path_beta2_near_pole_matches_jack(self, q):
        # p = 4 with q near 0 is near a Gamma pole of the normalization
        # (measured 1.6e-12, 7.0e-12 and 7.1e-11; on the real axis 3.5e-10,
        # 4.2e-9, and at q = 1e-4 the reality check raised)
        pr = EnsembleParams(2, 4, 4.0, q)
        rj = rho_limit(1.0, pr, "jack")
        assert abs(rho_limit(1.0, pr, "integral") - rj) < 1e-9 * rj

    def test_integral_path_near_pole_normalization_raises(self):
        # q = 1e-10 leaves the normalization at 1.9e-27 of the integral of its
        # modulus (the closed-form Morris share), below _NORM_TOL
        pr = EnsembleParams(2, 4, 4.0, 1e-10)
        with pytest.raises(ZeroDivisionError, match="normalization integral"):
            rho_limit(1.0, pr, "integral")
        with pytest.raises(ZeroDivisionError, match="normalization integral"):
            rho_finite(1.0, pr, "integral")

    def test_cbeta_constant(self):
        # beta = 2, p = 1, q = 0: e^{q pi} C = (1/(2pi)) G(2)G(2)G(2)/(G(4)G(3))
        pr = EnsembleParams(2, 8, 1.0, 0.0)
        ref = 1 / (2 * math.pi) / (6 * 2)
        assert c_beta_limit(pr) == pytest.approx(ref, rel=1e-12)


class TestDensityTilde:
    def test_fields(self):
        td = DensityTilde.from_ensemble(EnsembleParams(2, 4, 1.5, 0.7))
        assert td.a_tilde == pytest.approx(2 * 1.5 + 1 - 1)
        assert td.b_tilde == pytest.approx(complex(-2.5, 0.7))
