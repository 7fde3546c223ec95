"""Jack-polynomial machinery: partitions, generalized Pochhammer symbols,
principal specialization, pFq^(alpha) series, duality ratio."""
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsing import (EnsembleParams, NonConvergenceError, Partition,
                      duality_ratio_2f1, gen_pochhammer, hyp2f1_terminating,
                      hyper_pfq_alpha, jack_principal, partitions_up_to,
                      pochhammer, rho_finite)
from specsing import jack
from specsing.density import _finite_shells
from specsing.jack import (_MAX_NODES, _box_width, _hyp2f1_unit, _jack_tree,
                           _partition_tree, _pfq_shells, _sweep, _tree_size)


class TestPartitions:
    def test_small_enumeration(self):
        parts = {p.parts for p in partitions_up_to(2, 2)}
        assert parts == {(), (1,), (2,), (1, 1)}

    def test_count(self):
        # partitions of weight <= 4 into <= 3 parts, brute-force count:
        # w=0:1, w=1:1, w=2:2, w=3:3, w=4:4 (4, 31, 22, 211) => 11 with empty
        brute = sum(1 for k in itertools.product(range(5), repeat=3)
                    if sum(k) <= 4 and k[0] >= k[1] >= k[2])
        assert brute == 11
        assert len(partitions_up_to(3, 4)) == brute

    def test_single_row(self):
        parts = [p.parts for p in partitions_up_to(1, 3)]
        assert parts == [(), (1,), (2,), (3,)]

    @given(st.integers(1, 4), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_properties(self, m, w):
        ps = partitions_up_to(m, w)
        assert len({p.parts for p in ps}) == len(ps)
        for p in ps:
            assert len(p) <= m and p.weight <= w
            assert all(p.parts[i] >= p.parts[i + 1]
                       for i in range(len(p.parts) - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == (2, 1, 1)


def _brute_tree(m, max_weight, max_part):
    """(parts, parent, row, col, starts) of _partition_tree, from itertools."""
    top = min(max_part, max_weight)
    parts = sorted((k for k in itertools.product(range(top + 1), repeat=m)
                    if sum(k) <= max_weight
                    and all(k[i] >= k[i + 1] for i in range(m - 1))),
                   key=lambda k: (sum(k), [-x for x in k]))
    index = {k: i for i, k in enumerate(parts)}
    parent, row, col = [0], [0], [0]
    for k in parts[1:]:
        r = sum(1 for x in k if x) - 1
        parent.append(index[k[:r] + (k[r] - 1,) + k[r + 1:]])
        row.append(r)
        col.append(k[r] - 1)
    weights = [sum(k) for k in parts]
    starts = tuple(weights.index(w) for w in range(weights[-1] + 1)) + (len(parts),)
    return parts, parent, row, col, starts


# max_weight W and max_part P: P < W, W < m P and the whole box m P <= W
# all occur, and W = 40000 takes int64 parts
_SHAPES = [(0, 0), (0, 3), (1, 1), (4, 0), (5, 2), (7, 3), (9, 12), (12, 1),
           (12, 4), (12, 12), (12, 20), (40000, 3)]


class TestPartitionTree:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_weight,max_part", _SHAPES)
    def test_matches_brute_force(self, m, max_weight, max_part):
        # graded, reverse-lexicographic within a shell, each parent the
        # partition less its last box (row, col); the node count the budget
        # reads before anything is built
        tree = _partition_tree(m, max_weight, max_part)
        parts, parent, row, col, starts = _brute_tree(m, max_weight, max_part)
        assert [tuple(k) for k in tree.parts.tolist()] == parts
        assert tree.parent.tolist() == parent
        assert tree.row.tolist() == row
        assert tree.col.tolist() == col
        assert tree.starts == starts
        assert _tree_size(m, max_weight, max_part) == len(parts)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_weight,max_part", _SHAPES)
    def test_sweeps_form_path_products(self, m, max_weight, max_part):
        # powers of two multiply exactly, so after the sweeps each node holds
        # exactly 2^(the exponents summed along its path), as a walk from the
        # root finds them; on booleans, the and along the path
        tree = _partition_tree(m, max_weight, max_part)
        n = len(tree.row)
        rng = np.random.default_rng(1000 * m + max_weight)
        exps, alive = rng.integers(-3, 4, n), rng.random(n) > 0.1
        exps[0], alive[0] = 0, True
        walk, walk_alive = exps.copy(), alive.copy()
        for k in range(1, n):
            walk[k] += walk[tree.parent[k]]
            walk_alive[k] &= walk_alive[tree.parent[k]]
        vals, flags = np.ldexp(1.0, exps)[tree.scan], alive[tree.scan]
        _sweep(vals, tree)
        _sweep(flags, tree)
        assert np.array_equal(vals, np.ldexp(1.0, walk)[tree.scan])
        assert np.array_equal(flags, walk_alive[tree.scan])
        # the scan order lists every node once, shell by shell, root first
        assert tree.scan[0] == 0
        assert np.array_equal(np.sort(tree.scan), np.arange(n))
        for b, w in zip(tree.blocks, tree.block_weights):
            shell = tree.scan[b:b + tree.starts[w + 1] - tree.starts[w]]
            assert np.array_equal(shell, np.arange(tree.starts[w], tree.starts[w + 1]))

    def test_sweep_count(self):
        # 2 ceil(log2(depth + 1)) - 1 passes: depth 84 takes 13, not 84
        assert len(_partition_tree(4, 84, 21).sweeps) == 13
        assert len(_partition_tree(4, 0, 3).sweeps) == 0

    def test_read_only(self):
        tree = _partition_tree(3, 6, 4)
        arrays = [tree.parts, tree.parent, tree.row, tree.col, tree.scan,
                  tree.blocks, tree.block_weights] + [src for _, _, src in tree.sweeps]
        _, ratio, content = _jack_tree(3, 6, 0.7, 4)
        for a in arrays + [ratio, content]:
            assert not a.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            _partition_tree.__wrapped__(0, 3, 3)
        with pytest.raises(ValueError):
            _partition_tree.__wrapped__(2, -1, 3)


class TestNodeBudget:
    def test_counts_at_the_budget(self):
        # beta = 6 density boxes: N = 32 (6 x 31) builds, N = 64 does not;
        # rho_limit's beta = 6 tree is capped by weight 40, not by its box:
        # C(46, 6) = 9,366,819 tuples would bound it past the budget
        assert _tree_size(6, 186, 31) == 2324784 <= _MAX_NODES
        assert _tree_size(6, 378, 63) == 119877472 > _MAX_NODES
        assert _tree_size(4, 396, 99) == 4421275 > _MAX_NODES
        assert len(_partition_tree(6, 40, 40).row) == _tree_size(6, 40, 40) == 32459

    def test_refused_before_building(self):
        # without the budget this call takes more memory than the machine
        # has, so the child runs under a 2 GiB address-space limit and the
        # missing budget shows as a MemoryError, not a killed machine
        code = ("import resource, time\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from specsing import EnsembleParams, NonConvergenceError, rho_finite\n"
                "start = time.process_time()\n"
                "try:\n"
                "    rho_finite(1.0, EnsembleParams(6, 64, 1.3, 0.4))\n"
                "except NonConvergenceError:\n"
                "    print('refused', time.process_time() - start)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, env=env)
        verdict, seconds = (out.stdout.split() + ["", ""])[:2]
        assert verdict == "refused", out.stderr[-500:]
        assert float(seconds) < 1.0


class TestGenPochhammer:
    def test_empty(self):
        assert gen_pochhammer(2.5, Partition(()), 1.0) == 1

    def test_single_row_classical(self):
        a = 1.3 - 0.4j
        assert gen_pochhammer(a, Partition((4,)), 0.7) == pochhammer(a, 4)

    def test_two_rows(self):
        # alpha = 1, a = 3, k = (2,1): (3)_2 (2)_1 = 24
        assert gen_pochhammer(3.0, Partition((2, 1)), 1.0) == pytest.approx(24.0)


class TestJackPrincipal:
    def test_empty(self):
        assert jack_principal(Partition(()), 1.0, 3, 0.7 + 0.1j) == 1

    def test_single_variable(self):
        for n in range(1, 5):
            val = jack_principal(Partition((n,)), 1.7, 1, 0.5 + 0.5j)
            assert abs(val - (0.5 + 0.5j) ** n) < 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sum_rule(self, alpha, m):
        # sum over |k| = n of C_k(x 1_m) = (m x)^n
        x = 0.8 - 0.3j
        for n in range(1, 6):
            tot = sum(jack_principal(k, alpha, m, x)
                      for k in partitions_up_to(m, n) if k.weight == n)
            assert abs(tot - (m * x) ** n) < 1e-10 * abs((m * x) ** n)

    def test_explicit_cube(self):
        # (m, alpha) = (2, 2), weight three: sum is m^3 = 8
        tot = sum(jack_principal(k, 2.0, 2, 1.0)
                  for k in partitions_up_to(2, 3) if k.weight == 3)
        assert tot == pytest.approx(8.0)


class TestHyperPfq:
    def test_at_zero(self):
        assert hyper_pfq_alpha([1.5], [2.5], 1.0, 3, 0.0) == 1

    def test_m1_reduces_to_classical(self):
        a, b, c, z = -3.0, 2.0, 4.0, 0.3
        for alpha in (0.5, 1.0, 2.0):
            val = hyper_pfq_alpha([a, b], [c], alpha, 1, z, max_weight=10)
            ref = hyp2f1_terminating(3, b, c, z)
            assert abs(val - ref) < 1e-13

    def test_kummer_m1(self):
        val = hyper_pfq_alpha([1.5 - 0.7j], [3.0], 2.0, 1, 0.4j, max_weight=40)
        ref = 1.0
        # compare against the classical series oracle
        from specsing import hyp1f1
        assert abs(val - hyp1f1(1.5 - 0.7j, 3.0, 0.4j)) < 1e-12

    def test_truncation_error_raised(self):
        with pytest.raises(NonConvergenceError):
            hyper_pfq_alpha([1.5], [2.5], 1.0, 2, 30.0, max_weight=8)

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_terminating_box_is_exact(self, w):
        # 1F1(-1; 2; 1/2) = 1 - 1/4: every term lies in the tree from weight 1
        # on, so no tail test applies
        assert hyper_pfq_alpha([-1.0], [2.0], 1.0, 1, 0.5, max_weight=w) == 0.75

    @pytest.mark.parametrize("m", [2, 3])
    def test_terminating_box_at_its_weight(self, m):
        # the whole m x 2 box is summed at max_weight = 2 m, where the last
        # shells are not small
        a_list, b_list, x = [-2.0, 1.3 - 0.4j], [0.7 + 0.2j], 0.9 - 0.3j
        val = hyper_pfq_alpha(a_list, b_list, 0.8, m, x, max_weight=2 * m)
        ref, mass = _reference_pfq(a_list, b_list, 0.8, m, x, 2 * m)
        assert abs(val - ref) < 1e-14 * mass

    def test_truncated_terminating_series_is_tested(self):
        # max_weight 0 < m n: the box is cut, so the tail test still raises
        with pytest.raises(NonConvergenceError):
            hyper_pfq_alpha([-1.0], [2.0], 1.0, 1, 0.5, max_weight=0)
        with pytest.raises(NonConvergenceError):
            hyper_pfq_alpha([-5.0], [2.0], 1.0, 1, 3.0, max_weight=3)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            hyper_pfq_alpha([1.5], [2.5], alpha, 2, 0.3)

    @pytest.mark.parametrize("x", [math.inf, complex(math.nan, 0), complex(0.1, -math.inf)])
    def test_nonfinite_argument(self, x):
        with pytest.raises(ValueError, match="finite"):
            hyper_pfq_alpha([1.5], [2.5], 1.0, 2, x)

    def test_denominator_pole(self):
        with pytest.raises(ZeroDivisionError):
            hyper_pfq_alpha([1.5], [-1.0], 1.0, 2, 0.3, max_weight=6)

    @pytest.mark.parametrize("a_list,b_list,alpha,m", [
        ([-1.0], [-2.0], 1.0, 1), ([-1.0, 0.5], [-2.0], 2.0, 2)])
    def test_zero_numerator_shields_pole(self, a_list, b_list, alpha, m):
        # [-2]_k vanishes from k_1 = 3 on, where [-1]_k already does (from
        # k_1 = 2 on); [0.5]_(1,1) = 0 at alpha = 2, so only k = (1) is left:
        # 1 + (prod a / prod b) m x = 1.15
        val = hyper_pfq_alpha(a_list, b_list, alpha, m, 0.3, max_weight=6)
        assert abs(val - 1.15) < 1e-15

    @pytest.mark.parametrize("a_list", [[0.0, 0.5], [-1.0, 0.0]])
    def test_zero_denominator_at_the_root(self, a_list):
        # c = 0 vanishes at the root's content as well as at the box (1), and
        # [0]_k vanishes from k = (1) on: only the root's term 1 is left; the
        # root's step is not divided by c (a RuntimeWarning, an error here)
        assert hyper_pfq_alpha(a_list, [0.0], 1.0, 2, 0.3, max_weight=4) == 1

    @pytest.mark.parametrize("n", [30, 80])
    def test_m1_long_terminating(self, n):
        # k_1 > 64 takes pochhammer's log-gamma branch in the reference; at
        # z < 0 the terms barely cancel, so both sides keep full precision
        b, c, z = 1.3 - 0.1j, 2.6 + 0.2j, -0.3 + 0.05j
        val = hyper_pfq_alpha([complex(-n), b], [c], 0.7, 1, z, max_weight=n + 3)
        ref = hyp2f1_terminating(n, b, c, z)
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_nonfinite_shell_raises(self):
        # the terms grow like x^w: shell 2 overflows
        with pytest.raises(NonConvergenceError, match="not finite"):
            hyper_pfq_alpha([1.5], [2.5], 1.0, 2, 1e300, max_weight=8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equal_argument_closed_forms(self, alpha, m):
        # 0F0(x 1_m) = e^{m x} and 1F0(a; x 1_m) = (1 - x)^{-m a}
        x, a = 0.3 - 0.2j, 0.7 + 0.4j
        val0 = hyper_pfq_alpha([], [], alpha, m, x, max_weight=60)
        assert abs(val0 - np.exp(m * x)) < 1e-14 * abs(np.exp(m * x))
        val1 = hyper_pfq_alpha([a], [], alpha, m, x, max_weight=60)
        ref1 = (1 - x) ** (-m * a)
        assert abs(val1 - ref1) < 1e-13 * abs(ref1)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_unit_argument_terminating_closed_form(self, alpha, m):
        # Kaneko's sum [c - b]_(n^m) / [c]_(n^m), which the integral-path
        # density and duality_ratio_2f1 use in place of the series at 1^m
        for b, c in ((0.6 - 0.3j, 4.2 + 0.7j), (-1.7 + 0.5j, 3.1 - 0.4j)):
            for n in range(5):
                closed = _hyp2f1_unit(n, b, c, alpha, m)
                val = hyper_pfq_alpha([complex(-n), b], [c], alpha, m, 1.0, max_weight=m * n)
                assert abs(val - closed) < 1e-13 * abs(closed), (b, c, n)

    @given(st.integers(1, 4), st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0]),
           st.integers(0, 8), st.complex_numbers(max_magnitude=0.5),
           st.sampled_from(["terminating", "confluent"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_term_by_term_reference(self, m, alpha, n, x, kind):
        # the series from scratch, one term per partition (measured worst
        # 6.4e-16 of sum |t_k|)
        if kind == "terminating":
            a_list, b_list, w = [complex(-n), 1.3 - 0.4j], [-0.7 + 0.3j], m * n + 3
        else:
            a_list, b_list, w = [1.3 - 0.4j], [2.2], 30
        val = hyper_pfq_alpha(a_list, b_list, alpha, m, x, max_weight=w)
        ref, mass = _reference_pfq(a_list, b_list, alpha, m, x, w)
        assert abs(val - ref) < 1e-14 * mass


def _product_order_cases():
    """(a_list, b_list, alpha, m, x, max_weight, max_part): a seeded grid of
    terminating boxes and confluent trees, the beta = 4 density box at
    N = 28 (m = 4, n = 27: 31,465 nodes) and rho_inf's beta = 4 tree."""
    rng = np.random.default_rng(2022)
    for _ in range(60):
        m, alpha = int(rng.integers(1, 5)), float(rng.choice([0.3, 0.5, 1.0, 1.7, 2.0, 3.0]))
        x, b = complex(*rng.uniform(-1, 1, 2)), complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        a = complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
        if rng.random() < 0.5:
            n = int(rng.integers(1, 12))
            yield [complex(-n), a], [b], alpha, m, x, m * n, n
        else:
            yield [a], [b], alpha, m, x, 40, 40
    p, q, n = 1.3, 0.4, 27
    for theta in (0.5, 1.0, 3.0):
        yield ([complex(-n), complex(p + 1, -q / 2)], [complex(-n - p + 1.5, -q / 2)],
               2.0, 4, complex(np.exp(-1j * theta)), 4 * n, n)
    for theta in (0.5, 1.0, 2.0):   # weight 40 no longer converges at 3
        yield [complex(p + 1, -q / 2)], [complex(2 * p + 2)], 2.0, 4, -1j * theta, 40, 40


def _sequential_shells(a_list, b_list, alpha, m, x, max_weight, max_part):
    """(shells, sum |terms|) of the series on _pfq_shells' tree in
    np.clongdouble, each term its parent's times its step, shell by shell;
    only the Jack ratios are the library's (float64)."""
    tree, ratio, _ = _jack_tree(m, max_weight, alpha, max_part)
    step = np.empty(len(ratio), dtype=np.clongdouble)
    step[tree.scan] = ratio
    step *= np.clongdouble(x)
    content = tree.col.astype(np.longdouble) - tree.row / np.longdouble(alpha)
    for a in a_list:
        step *= content + np.clongdouble(a)
    for b in b_list:
        step /= content + np.clongdouble(b)
    terms = np.empty_like(step)
    terms[0] = 1
    for s, e in zip(tree.starts[1:-1], tree.starts[2:]):
        terms[s:e] = terms[tree.parent[s:e]] * step[s:e]
    return np.add.reduceat(terms, tree.starts[:-1]), float(np.abs(terms).sum())


class TestProductOrder:
    def test_matches_sequential_extended_precision(self):
        # the sweeps form each term in another order than a walk from the
        # root does; every shell stays within 4 eps sum |terms| of the walk
        # in extended precision (measured worst 1.2 eps sum |terms|)
        eps = np.finfo(float).eps
        for a_list, b_list, alpha, m, x, w, top in _product_order_cases():
            shells = _pfq_shells(a_list, b_list, alpha, m, x, w)
            ref, mass = _sequential_shells(a_list, b_list, alpha, m, x, w, top)
            err = np.abs(shells[:len(ref)] - ref).max()
            assert err <= 4 * eps * mass, (m, alpha, w, x, err / (eps * mass))


def _shared_tree_cases():
    """(a_list, b_list, alpha, m, x, max_weight, n) of whole-box series: a
    seeded grid over m 1-6 and n 0-18, alpha random or m/2, max_weight past
    the box, |x| off 1, and now and then a pole in c (shielded or not by a
    zero numerator factor, or just outside the box) or an x whose terms
    overflow."""
    rng = np.random.default_rng(33)
    for case in range(240):
        m, n = int(rng.integers(1, 7)), int(rng.integers(0, 19))
        if case < 12:
            n = case % 2                       # n = 0 and 1 at every m
            m = case // 2 + 1
        alpha = m / 2 if rng.random() < 0.3 else float(rng.uniform(0.2, 3.0))
        x = complex(*rng.uniform(-1, 1, 2))
        x *= rng.choice([0.3, 0.8, 1.25, 2.5]) / abs(x)
        a = complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
        c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        kind = rng.random()
        if n and kind < 0.2:
            # [c]_k vanishes at the box (i, j) of content j - i/alpha
            shield = kind < 0.1 and m > 1
            i, j = int(rng.integers(shield, m)), int(rng.integers(0, n))
            c = complex(i / alpha - j)
            if shield:   # [a]_k vanishes at (i, 0), inside every k holding (i, j)
                a = complex(i / alpha)
        elif kind < 0.25:
            c = complex(-n)    # a pole at (0, n), outside the box
        elif kind > 0.95:
            x *= 1e150
        yield [complex(-n), a], [c], alpha, m, x, m * n + int(rng.integers(0, 5)), n


def _shell_masses(a_list, b_list, alpha, m, x, n):
    """sum |terms| per shell of the whole m x n box, walked from the root on
    the box's own tree (a step at a shielded pole is 0, as in _pfq_shells)."""
    tree, ratio, content = _jack_tree(m, m * n, alpha, n)
    num = np.ones(len(ratio), dtype=complex)
    den = np.ones(len(ratio), dtype=complex)
    for a in a_list:
        num *= content + a
    for b in b_list:
        den *= content + b
    step = np.empty(len(ratio), dtype=complex)
    step[tree.scan] = np.where(den == 0, 0, ratio * x * num / np.where(den == 0, 1, den))
    terms = np.empty_like(step)
    terms[0] = 1
    for s, e in zip(tree.starts[1:-1], tree.starts[2:]):
        terms[s:e] = terms[tree.parent[s:e]] * step[s:e]
    return np.add.reduceat(np.abs(terms), tree.starts[:-1])


def _outcome(*args):
    try:
        return _pfq_shells(*args)
    except (ZeroDivisionError, NonConvergenceError) as exc:
        return type(exc)


class TestSharedTrees:
    def test_width_rule(self):
        # the least power of two while C(w + m, m) <= 2^12; read off the
        # binomials, no tree built
        _partition_tree.cache_clear()
        cases = {(2, 33): 64, (2, 64): 64, (2, 65): 65, (4, 5): 8, (4, 9): 9,
                 (6, 5): 8, (1, 0): 0, (4, 0): 0, (3, 1): 1, (3, 3): 4}
        for (m, n), width in cases.items():
            assert _box_width(m, n) == width, (m, n)
        assert _partition_tree.cache_info().misses == 0

    def test_shared_tree_matches_exact_tree(self, monkeypatch):
        # each shell of the wider tree within 4 eps of that shell's sum
        # |terms| of the box's own tree (the cap at 0 shares nothing), or the
        # same raise on both sides (measured: 190 of the 201 sums equal bit
        # for bit, the rest within 1.1 eps)
        eps, raised = np.finfo(float).eps, set()
        cases = list(_shared_tree_cases())
        got = [_outcome(a, b, alpha, m, x, w) for a, b, alpha, m, x, w, _ in cases]
        assert sum(_box_width(case[3], case[6]) > case[6] for case in cases) >= 80
        monkeypatch.setattr(jack, "_SHARED_NODES", 0)
        for case, val in zip(cases, got):
            a_list, b_list, alpha, m, x, w, n = case
            ref = _outcome(a_list, b_list, alpha, m, x, w)
            if isinstance(ref, type):
                assert val is ref, case
                raised.add(ref)
                continue
            assert len(val) == len(ref) == w + 1
            mass = _shell_masses(a_list, b_list, alpha, m, x, n)
            assert np.all(ref[len(mass):] == 0) and np.all(val[len(mass):] == 0)
            err = np.abs(val[:len(mass)] - ref[:len(mass)])
            assert np.all(err <= 4 * eps * mass), (case, (err / (eps * mass)).max())
        assert raised == {ZeroDivisionError, NonConvergenceError}

    def test_density_sweep_shares_trees(self, monkeypatch):
        # beta = 2, N = 3..40: boxes 2 x 2..39 on widths 2, 4, ..., 64
        _partition_tree.cache_clear()
        _jack_tree.cache_clear()
        vals = [rho_finite(1.0, EnsembleParams(2, N, 1.3, 0.4)) for N in range(3, 41)]
        assert _partition_tree.cache_info().misses <= 6
        monkeypatch.setattr(jack, "_SHARED_NODES", 0)
        _finite_shells.cache_clear()
        for N, val in zip(range(3, 41), vals):
            ref = rho_finite(1.0, EnsembleParams(2, N, 1.3, 0.4))
            assert abs(val - ref) <= 1e-13 * abs(ref), N


def _reference_pfq(a_list, b_list, alpha, m, x, max_weight):
    """(sum, sum of |terms|) of pFq^(alpha), each term built from scratch."""
    total, mass = 0j, 0.0
    for k in partitions_up_to(m, max_weight):
        t = jack_principal(k, alpha, m, x) / math.factorial(k.weight)
        for a in a_list:
            t *= gen_pochhammer(a, k, alpha)
        for b in b_list:
            t /= gen_pochhammer(b, k, alpha)
        total, mass = total + t, mass + abs(t)
    return total, mass


class TestDualityRatio:
    def test_t_one(self):
        # 2F1^(1)(-3, 1.2; 2.2; 1_2) = 0 by the generalized Gauss sum
        # G_2(c) G_2(c-a-b) / (G_2(c-a) G_2(c-b)): G_2(c-b) = G_2(1) holds G(0).
        # c' = -2 is a pole of the transformed series, so the direct series runs
        assert abs(duality_ratio_2f1(3, 1.2, 2.2, 1.0, 2, 1.0)) < 1e-12

    def test_n_zero(self):
        assert duality_ratio_2f1(0, 1.2, 2.2, 0.5, 3, 0.4) == pytest.approx(1.0)

    def test_m1_classical(self):
        # m = 1 reduces to the classical transformation of 2F1
        n, b, c, t = 2, 1.3, 2.6, 0.35
        val = duality_ratio_2f1(n, b, c, 1.0, 1, t)
        ref = hyp2f1_terminating(n, b, c, t)
        assert abs(val - ref) < 1e-12

    def test_beta2_against_direct(self):
        # the ratio form equals the direct 2F1^(1) at two equal arguments
        # (density-style lower parameter, nonterminating rows allowed)
        n, b, alpha, m, t = 2, complex(2.5, -0.7), 1.0, 2, 0.9 + 0.05j
        c = complex(-0.5, -0.2)
        val = duality_ratio_2f1(n, b, c, alpha, m, t)
        ref = hyper_pfq_alpha([complex(-n), b], [c], 1 / alpha, m, t,
                              max_weight=2 * (n + 2))
        assert abs(val - ref) < 1e-10 * abs(ref)
