"""Quadrature utilities: tanh-sinh rules and the level-escalating
tanh-sinh integrator, the sinc indefinite-integration matrix, and the
ordered-sector multidimensional scheme."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import sici

from specsing import QuadratureRule, tanh_sinh_rule
from specsing.quadrature import (_CHUNK_POINTS, _T_CUT, _sinc_matrix, _unit_nodes,
                                 sector_integrate,
                                 sector_integrate_adaptive, tanh_sinh_adaptive)
from specsing.series import NonConvergenceError


def weighted(f):
    """The terms of f for tanh_sinh_adaptive."""
    return lambda rule: f(rule.nodes) * rule.weights


class TestTanhSinh:
    def test_rule_invariants(self):
        rule = tanh_sinh_rule(0.0, 1.0, 6)
        assert np.all(rule.weights > 0)
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))

    def test_smooth(self):
        val = tanh_sinh_adaptive(weighted(np.sin), 0.0, math.pi)
        assert abs(val - 2.0) < 1e-13

    def test_endpoint_singularity(self):
        # int_0^1 x^(-1/2) dx = 2
        val = tanh_sinh_adaptive(weighted(lambda x: x ** -0.5), 0.0, 1.0)
        assert abs(val - 2.0) < 1e-12

    def test_both_endpoints(self):
        # int_-1^1 (1-x^2)^(-1/2) = pi.  An integrand that sees only x cannot
        # be sampled closer to +-1 than the float spacing there (<= eps), and
        # the mass within delta of an end is sqrt(2 delta): with delta = eps
        # the error cannot go below 2 sqrt(2 eps) = 4.2e-8 in double precision,
        # so one fixed level is summed instead of asking for 1e-13
        rule = tanh_sinh_rule(-1.0, 1.0, 7)
        val = np.sum((1 - rule.nodes ** 2) ** -0.5 * rule.weights)
        assert abs(val - math.pi) < 2 * math.sqrt(2 * np.finfo(float).eps)

    def test_several_integrals_at_once(self):
        # rows converge together: int_0^pi sin = 2, int_0^pi cos^2 = pi/2
        vals = tanh_sinh_adaptive(
            lambda r: np.array([np.sin(r.nodes), np.cos(r.nodes) ** 2]) * r.weights,
            0.0, math.pi)
        assert vals.shape == (2,)
        assert np.all(np.abs(vals - [2.0, math.pi / 2]) < 1e-13)

    def test_unresolved_raises(self):
        # ~1.6e5 periods on (0, 1): no level up to 12 resolves them
        with pytest.raises(NonConvergenceError):
            tanh_sinh_adaptive(weighted(lambda x: np.sin(1e6 * x)), 0.0, 1.0)

    def test_noise_bound_decides_last_level(self):
        # rounding-sized jitter keeps the levels apart at 1e-13 of sum |terms|,
        # so the last level is not returned, however close to the integral
        def noisy(rule):
            jitter = 1e-9 * np.cos(1e4 * rule.nodes * rule.nodes.size)
            return (np.sin(rule.nodes) + jitter) * rule.weights

        with pytest.raises(NonConvergenceError):
            tanh_sinh_adaptive(noisy, 0.0, math.pi)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: np.cos(3 * x) * x ** -0.3, 0.0, 2.0),
        (lambda x: np.array([np.exp(1j * x), np.sqrt(x * (math.pi - x))]), 0.0, math.pi),
        (lambda x: 1 / (1 + x * x), -1.0, 4.0)])
    def test_nested_levels(self, f, a, b):
        # terms sees each node of the returned level once, and the sum built
        # level by level is the direct sum of that level's rule; the first
        # call covers levels 4 and 5, each later one a level
        seen = []

        def terms(rule):
            seen.append(rule.nodes)
            return f(rule.nodes) * rule.weights

        val = tanh_sinh_adaptive(terms, a, b)
        rule = tanh_sinh_rule(a, b, 4 + len(seen))
        nodes = np.concatenate(seen)
        assert nodes.size == rule.nodes.size
        assert np.array_equal(np.sort(nodes), np.sort(rule.nodes))
        direct = f(rule.nodes) * rule.weights
        assert np.all(np.abs(val - direct.sum(axis=-1))
                      <= 1e-15 * np.abs(direct).sum(axis=-1))

    def test_cached_rules_read_only(self):
        for arr in _unit_nodes(6) + _unit_nodes(6, odd=True) + _unit_nodes(6, tmax=2.5):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("level", range(3, 13))
    def test_default_window_ends_at_1e290(self, level):
        # the default rule is the one that kept every node of |t| <= 6.8 with
        # 1 - |tanh(pi/2 sinh t)| > 1e-290: bit for bit, each node's distance
        # to its nearer end taken stably, and its last node is the last such one
        h = 2.0 ** (1 - level)

        def dist(t):
            small = math.exp(-math.pi * math.sinh(abs(t)))
            return 2.0 * small / (1.0 + small)

        k = np.arange(-int(6.8 / h), int(6.8 / h) + 1)
        t = k * h
        u = 0.5 * math.pi * np.sinh(t)
        with np.errstate(over="ignore"):
            w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
            near = 1.0 / (np.exp(2 * np.abs(u)) + 1.0)
        keep = 2 * near > 1e-290
        left = t[keep] < 0
        x, rest, weights = _unit_nodes(level)
        assert np.array_equal(np.where(left, x, rest), near[keep])
        assert np.array_equal(np.where(left, rest, x), 1.0 - near[keep])
        assert np.array_equal(weights, 0.5 * w[keep])
        last = (x.size // 2) * h
        assert dist(last) > 1e-290 >= dist(last + h)

    @pytest.mark.parametrize("tmax", [0.25, 1.75, 2.6, 5.75])
    def test_window_keeps_nodes_within_tmax(self, tmax):
        # a window keeps the nodes |t| <= tmax of the default rule, the same
        # arrays; each level's odd nodes are those the level below lacks, and
        # the others are the level below's, at half its weights
        for level in (3, 4, 5, 8):
            h = 2.0 ** (1 - level)
            n = int(tmax / h)
            full, part = _unit_nodes(level), _unit_nodes(level, tmax=tmax)
            mid = full[0].size // 2
            assert n * h <= tmax < (n + 1) * h
            for got, want in zip(part, full):
                assert np.array_equal(got, want[mid - n:mid + n + 1])
            odd = _unit_nodes(level, True, tmax)
            below = _unit_nodes(level - 1, tmax=tmax)
            for got, every, old, scale in zip(odd, part, below, (1, 1, 2)):
                assert np.array_equal(got, every[1 - n % 2::2])  # every[0] is k = -n
                assert np.array_equal(old, scale * every[n % 2::2])

    @staticmethod
    def _new_nodes(a, b, level):
        # the nodes and weights of tanh_sinh_rule(a, b, level) that level - 1
        # lacks: a node of level - 1 comes back with half its weight
        full, below = tanh_sinh_rule(a, b, level), tanh_sinh_rule(a, b, level - 1)
        old = set(zip(below.nodes.tolist(), below.weights.tolist()))
        new = np.array([(x, 2 * w) not in old
                        for x, w in zip(full.nodes.tolist(), full.weights.tolist())])
        assert np.count_nonzero(~new) == below.nodes.size
        return full.nodes[new], full.weights[new]

    @pytest.mark.parametrize("a,b", [(0.25, 1.75), (0.0, 7.3)])
    def test_rules_are_those_of_tanh_sinh_rule(self, a, b):
        # bit for bit tanh_sinh_rule's nodes and weights, read-only: terms
        # gets level 5 (level 4 and the nodes it lacks), then the new nodes
        # of each level.  On (0.25, 1.75) an odd number of level 5's nodes
        # round onto 0.25 and are dropped, so level 4's are those of odd
        # index; on (0, 7.3) none are dropped at 0, and distinct nodes next
        # to 7.3 round to one value.  The jitter keeps every level apart at
        # 1e-13, so that terms is asked for every level up to 12
        calls = []

        def terms(rule):
            calls.append(rule)
            jitter = 1e-9 * np.cos(1e4 * rule.nodes * rule.nodes.size)
            return (np.cos(10 * rule.nodes) + jitter) * rule.weights

        with pytest.raises(NonConvergenceError):
            tanh_sinh_adaptive(terms, a, b)
        assert len(calls) == 8
        first = tanh_sinh_rule(a, b, 5)
        new = [self._new_nodes(a, b, level) for level in range(6, 13)]
        for rule, want in zip(calls, [(first.nodes, first.weights)] + new):
            assert np.array_equal(rule.nodes, want[0])
            assert np.array_equal(rule.weights, want[1])
            for arr in (rule.nodes, rule.weights):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.5]), weights=np.array([-1.0]),
                           domain=(0, 1))
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([1.5]), weights=np.array([1.0]),
                           domain=(0, 1))


class TestSincMatrix:
    def test_si_row_matches_scipy(self):
        # row 0 is 2 Si(pi k)/pi, at the size of level 7 (measured 2.0e-15)
        n = _unit_nodes(7)[0].size
        si = 0.5 * math.pi * _sinc_matrix(n)[0]
        assert np.max(np.abs(si - sici(math.pi * np.arange(n))[0])) < 1e-14

    def test_antisymmetric_read_only(self):
        S = _sinc_matrix(50)
        assert np.array_equal(S, -S.T)
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[0, 1] = 0.0

    def test_ordered_double_integral(self):
        # int int_{0<x<y<1} (u(x) v(y) - v(x) u(y)) = 1/3 - 1/6 for u = 1,
        # v = x, on the tanh-sinh nodes mapped onto (0, 1)
        t, _, w = _unit_nodes(6)
        assert abs(w @ _sinc_matrix(t.size) @ (w * t) - 1 / 6) < 1e-14

    def test_import_builds_none(self):
        code = ("import specsing, specsing.cli; "
                "print(specsing.quadrature._sinc_matrix.cache_info().currsize)")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "0"


class TestSector:
    def test_one_dim(self):
        val = sector_integrate(lambda ts: np.sin(ts[0]) + 0j, 1, 0.0, math.pi,
                               level=6)
        assert abs(val - 2.0) < 1e-12

    def test_two_dim_symmetric(self):
        # int (x+y) over (0,1)^2 = 1
        val = sector_integrate(lambda ts: ts[0] + ts[1] + 0j, 2, 0.0, 1.0,
                               level=6)
        assert abs(val - 1.0) < 1e-11

    def test_three_dim_kink(self):
        # int |x-y||y-z||x-z| over (0,1)^3 = 1/30 (gap-variable beta integrals)
        def f(ts):
            x, y, z = ts
            return abs(x - y) * abs(y - z) * abs(x - z) + 0j

        val = sector_integrate(f, 3, 0.0, 1.0, level=5)
        assert abs(val - 1.0 / 30) < 1e-9

    def test_adaptive_escalation(self):
        val, err = sector_integrate_adaptive(
            lambda ts: np.exp(ts[0] + ts[1]) + 0j, 2, 0.0, 1.0,
            start_level=3, max_level=6)
        exact = (math.e - 1) ** 2
        assert abs(val - exact) < 1e-9
        assert err < 1e-8

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("max_level", [4, 5])
    def test_nested_levels_match_fresh(self, ndim, max_level):
        # the nested levels give the fresh level's value up to rounding, and
        # the error estimate compares it with the fresh level below, in the
        # default node window and in a narrower one
        def f(ts):
            val = np.exp(sum(ts)) + 0j
            for i in range(ndim):
                for j in range(i + 1, ndim):
                    val = val * np.abs(ts[j] - ts[i]) ** 1.3
            return val

        for tmax in (_T_CUT, 2.25):
            val, err = sector_integrate_adaptive(f, ndim, 0.0, 1.0, start_level=3,
                                                 max_level=max_level, rtol=0.0, tmax=tmax)
            fresh, below = (sector_integrate(f, ndim, 0.0, 1.0, level, tmax)
                            for level in (max_level, max_level - 1))
            assert abs(val - fresh) <= 1e-13 * abs(fresh)
            assert abs(err - abs(fresh - below) / abs(fresh)) <= 1e-13

    def test_each_point_evaluated_once(self):
        # a level-5 run from level 3 calls fvec on the points of the level-5
        # grid, each once: the two multisets of points are equal, in the
        # default node window and in a narrower one.  Points are told apart
        # by their distances, since near the ends distinct points round to
        # one t
        def collect(store):
            def f(ts):
                keys = np.broadcast_arrays(ts.to_a[0], ts.to_b[0], ts.gaps[0], ts.to_b[1])
                store.append(np.stack([k.ravel() for k in keys], axis=1))
                return np.ones(keys[0].shape, complex)
            return f

        for tmax in (_T_CUT, 2.25):
            seen, grid = [], []
            sector_integrate_adaptive(collect(seen), 2, -0.5, 0.5, start_level=3,
                                      max_level=5, rtol=0.0, tmax=tmax)
            sector_integrate(collect(grid), 2, -0.5, 0.5, level=5, tmax=tmax)
            seen, grid = np.concatenate(seen), np.concatenate(grid)
            n = _unit_nodes(5, tmax=tmax)[0].size
            assert len(seen) == len(grid) == n * n
            for got, want in zip(np.unique(seen, axis=0, return_counts=True),
                                 np.unique(grid, axis=0, return_counts=True)):
                assert np.array_equal(got, want)

    def test_blocks_within_chunk_bound(self):
        sizes = []

        def f(ts):
            sizes.append(np.broadcast(*ts).size)
            return np.ones(np.broadcast(*ts).shape, complex)

        val, _ = sector_integrate_adaptive(f, 3, 0.0, 1.0, start_level=3, max_level=5,
                                           rtol=0.0)
        assert abs(val - 1.0) < 1e-12
        n = _unit_nodes(5)[0].size
        assert sum(sizes) == n ** 3
        assert max(sizes) <= _CHUNK_POINTS

    def test_distances_without_cancellation(self):
        # to_a, to_b and the gaps are t - a, b - t and t_{j+1} - t_j to a few
        # rounding steps of t, and keep their relative precision next to the
        # ends, where those differences round to 0
        got = []

        def f(ts):
            got.append(ts)
            return np.ones(np.broadcast(*ts).shape, complex)

        a, b = -0.5, 0.5
        tol = 4 * np.finfo(float).eps
        sector_integrate(f, 3, a, b, level=4)
        for ts in got:
            for j in range(3):
                assert np.all(ts.to_a[j] > 0) and np.all(ts.to_b[j] >= 0)
                assert np.max(np.abs(ts[j] - a - ts.to_a[j])) <= tol
                assert np.max(np.abs(b - ts[j] - ts.to_b[j])) <= tol
            for j in range(2):
                assert np.max(np.abs(ts[j + 1] - ts[j] - ts.gaps[j])) <= tol
        # the outer axis reaches within 1e-100 of both ends
        assert min(ts.to_a[0].min() for ts in got) < 1e-100
        assert min(ts.to_b[0].min() for ts in got) < 1e-100
