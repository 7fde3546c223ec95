"""Residual scans, tuned scaling, slope fitting, and the intermediate
expansion oracles."""
import math

import numpy as np
import pytest

from specsing import (EnsembleParams, ResidualReport, fit_loglog,
                      intermediate_expansion_check, k_limit,
                      kernel_residual_scan, tuned_scaling_residual)

PR2 = EnsembleParams(2, 100, 1.5, 0.7)


class TestFitLoglog:
    def test_clean_power_law(self):
        Ns = [50, 100, 200, 400]
        slope, r2 = fit_loglog(Ns, [3.0 / n ** 2 for n in Ns])
        assert slope == pytest.approx(-2.0, abs=1e-10)
        assert r2 > 0.999999

    def test_degenerate_input(self):
        # one distinct N has no slope; kernel_residual_scan takes orders 0..2
        with pytest.raises(ValueError):
            fit_loglog([100, 100, 100], [1e-4, 2e-4, 3e-4])
        with pytest.raises(ValueError):
            kernel_residual_scan(2, 2.0, 0.9, PR2, [100, 200], order=3)

    def test_outlier_dropped(self):
        Ns = [50, 100, 200, 400, 800]
        res = [3.0 / n ** 2 for n in Ns]
        res[0] *= 40.0  # pre-asymptotic contamination at the smallest N
        slope, _ = fit_loglog(Ns, res)
        assert abs(slope + 2.0) < 0.05


class TestResidualReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualReport((10,), (0.1,), -1.0, 1.0, 0j)
        with pytest.raises(ValueError):
            ResidualReport((10, 20), (0.1, -0.2), -1.0, 1.0, 0j)


class TestKernelResidualScan:
    def test_orders_beta2(self):
        Ns = [100, 200, 400]
        slopes = {}
        for order in (0, 1, 2):
            rep = kernel_residual_scan(2, 2.0, 0.9, PR2, Ns, order)
            slopes[order] = rep.fitted_slope
            assert rep.fit_r2 > 0.98
        assert -1.3 < slopes[0] < -0.7
        assert -2.3 < slopes[1] < -1.7
        assert slopes[2] < -2.7

    def test_order_monotonicity(self):
        Ns = [100, 200, 400]
        last = math.inf
        for order in (0, 1, 2):
            rep = kernel_residual_scan(2, 2.0, 0.9, PR2, Ns, order)
            assert rep.residuals[-1] <= last
            last = rep.residuals[-1]

    def test_extrapolated_limit(self):
        rep = kernel_residual_scan(2, 2.0, 0.9, PR2, [200, 400], 1)
        K = k_limit(2, 2.0, 0.9, PR2)
        assert abs(rep.extrapolated_limit - K) <= 10 * rep.residuals[-1]

    def test_order2_requires_beta24(self):
        with pytest.raises(ValueError):
            kernel_residual_scan(1, 2.0, 0.9, EnsembleParams(1, 50, 1.5, 0.7),
                                 [50, 100], 2)


class TestTunedScaling:
    def test_beta2_rate(self):
        rep = tuned_scaling_residual(2, 2.0, 0.9, PR2, [100, 200, 400])
        assert -2.4 < rep.fitted_slope < -1.6

    def test_p_zero_identical(self):
        pr = EnsembleParams(2, 100, 0.0, 0.0)
        tuned = tuned_scaling_residual(2, 2.0, 0.9, pr, [100, 200])
        raw = kernel_residual_scan(2, 2.0, 0.9, pr, [100, 200], 0)
        assert tuned.residuals == raw.residuals


class TestIntermediateChecks:
    KINDS = ("poc", "weight", "polynomial", "norm", "sine_ratio", "icc",
             "tail_b1", "icc4", "gamma2N")

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounded_at_two_N(self, kind):
        pr = EnsembleParams(2, 200, 1.5, 0.7)
        v1 = intermediate_expansion_check(kind, 100, 1.3, pr)
        v2 = intermediate_expansion_check(kind, 200, 1.3, pr)
        if kind == "weight":
            assert v1 < 1e-12 and v2 < 1e-12  # exact identity
        else:
            assert np.isfinite(v1) and np.isfinite(v2)
            assert 0.5 < v2 / v1 < 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            intermediate_expansion_check("bogus", 100, 1.0, PR2)
