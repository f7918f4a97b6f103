import math

import numpy as np
import pytest

from icflow import curvature as cf
from icflow.errors import InadmissibleState

ALL_KINDS = ["mean", "sigma2root", "quotient2"]


def sample_positive(rng, n, size):
    return rng.uniform(0.1, 10.0, size=(size, n))


def reference_elementary_symmetric(kappa):
    """sigma_j by the recurrence with every step in the loop, as it stood
    before its first step was written in place."""
    n = kappa.shape[-1]
    e = np.empty(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    e[..., 1] = kappa[..., 0]
    for i in range(1, n):
        ki = kappa[..., i]
        e[..., i + 1] = ki * e[..., i]
        for j in range(i, 1, -1):
            e[..., j] += ki * e[..., j - 1]
        e[..., 1] += ki
    return e


def brute_sigma(kappa, k):
    """Elementary symmetric polynomial by explicit subset enumeration."""
    from itertools import combinations

    return sum(math.prod(kappa[list(c)]) for c in combinations(range(len(kappa)), k))


class TestEval:
    def test_elementary_against_enumeration(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            kappa = rng.normal(size=n)
            e = cf.elementary_symmetric(kappa)
            for k in range(n + 1):
                assert abs(e[k] - brute_sigma(kappa, k)) < 1e-12 * max(1, abs(e[k]))

    def test_elementary_n2_closed_form(self):
        # the general loop forms exactly (1, k0 + k1, k1 k0) at n = 2
        kappa = np.random.default_rng(1).normal(size=(64, 2))
        k0, k1 = kappa[:, 0], kappa[:, 1]
        want = np.stack([np.ones(64), k0 + k1, k1 * k0], axis=-1)
        assert np.array_equal(cf.elementary_symmetric(kappa), want)

    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("lead", [(), (7,), (5, 6), (3, 4, 2)])
    def test_elementary_matches_the_recurrence_bit_for_bit(self, n, lead):
        rng = np.random.default_rng(10 * n + len(lead))
        kappa = rng.normal(size=lead + (n,)) * 10.0 ** rng.integers(-5, 6, size=lead + (n,))
        got = cf.elementary_symmetric(kappa)
        assert np.array_equal(got.view(np.uint64),
                              reference_elementary_symmetric(kappa).view(np.uint64))

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_value_positive_on_the_cone(self, name):
        # at n = 2 the cone test implies F > 0, so the flow does not test
        # F again: seeded pairs of either sign with magnitudes from 1e-325
        # to 1e308 (subnormals, and the zeros 1e-325 rounds to, included),
        # plus a grid of edge values, kept where they lie in the cone. F
        # is not finite only where sigma_2 overflows, or, for the
        # quotient, 4 sigma_2 does
        rng = np.random.default_rng(30)
        kappa = 10.0 ** rng.uniform(-325.0, 308.0, size=(200_000, 2))
        kappa *= rng.choice([-1.0, 1.0], size=kappa.shape)
        edge = np.array([0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1e-154, 0.5, 1.0,
                         1e154, 1e308, 1.7976931348623157e308])
        kappa = np.concatenate([kappa, np.stack(np.meshgrid(edge, edge), -1).reshape(-1, 2)])
        F = cf.from_name(name, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            e = cf.elementary_symmetric(kappa)
            inside = cf._margin(F, e) > 0.0
            value = cf._value(F, e[inside])
        assert int(inside.sum()) > 40_000
        finite = np.isfinite(value)
        assert (value[finite] > 0.0).all()
        assert (e[inside][~finite, 2] > 0.25 * np.finfo(float).max).all()

    @pytest.mark.parametrize("name", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_normalization(self, name, n):
        F = cf.from_name(name, n)
        assert abs(cf.f_eval(F, np.ones(n)) - n) <= 1e-12

    def test_mean_values(self):
        F = cf.from_name("mean", 2)
        assert cf.f_eval(F, np.array([1.0, 3.0])) == 4.0
        assert cf.f_eval(F, np.array([2.0, 6.0])) == 8.0

    def test_quotient_value(self):
        F = cf.from_name("quotient2", 2)
        got = cf.f_eval(F, np.array([1.0, 4.0]))
        assert abs(got - 3.2) < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for name in ALL_KINDS:
            F = cf.from_name(name, 3)
            k = rng.uniform(0.5, 2.0, size=3)
            a = cf.f_eval(F, k)
            b = cf.f_eval(F, k[::-1].copy())
            assert abs(a - b) < 1e-13

    def test_inadmissible_raises(self):
        F = cf.from_name("sigma2root", 2)
        with pytest.raises(InadmissibleState):
            cf.f_eval(F, np.array([-1.0, 3.0]))

    @pytest.mark.parametrize("func", [cf.f_eval, cf.f_grad])
    def test_inadmissible_names_least_margin_point(self, func):
        # margins sigma_1 = 3, -1, 2, -4: the first offender is point 1,
        # the least margin point 3
        F = cf.from_name("mean", 2)
        kappa = np.array([[1.0, 2.0], [-2.0, 1.0], [1.0, 1.0], [-5.0, 1.0]])
        with pytest.raises(InadmissibleState) as info:
            func(F, kappa)
        assert info.value.node == (3,)
        assert np.array_equal(info.value.kappa, [-5.0, 1.0])
        assert info.value.t is None


class TestCone:
    def test_mean_cone(self):
        F = cf.from_name("mean", 2)
        assert cf.cone_contains(F, np.array([-1.0, 3.0]))
        assert not cf.cone_contains(F, np.array([-3.0, 1.0]))

    def test_sigma2_cone(self):
        F = cf.from_name("sigma2root", 2)
        assert not cf.cone_contains(F, np.array([-1.0, 3.0]))

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_positive_cone_included(self, name):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            F = cf.from_name(name, n)
            ok = cf.cone_contains(F, sample_positive(rng, n, 200))
            assert np.all(ok)


class TestGrad:
    def test_mean(self):
        F = cf.from_name("mean", 3)
        g = cf.f_grad(F, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(g, 1.0)

    def test_sigma2root_at_ones(self):
        F = cf.from_name("sigma2root", 2)
        g = cf.f_grad(F, np.array([1.0, 1.0]))
        assert np.max(np.abs(g - 1.0)) < 1e-12

    @pytest.mark.parametrize("name", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_central_differences(self, name, n):
        rng = np.random.default_rng(4)
        F = cf.from_name(name, n)
        kap = sample_positive(rng, n, 100)
        grad = cf.f_grad(F, kap)
        eps = 1e-5
        for i in range(n):
            dk = np.zeros(n)
            dk[i] = eps
            fd = (cf.f_eval(F, kap + dk) - cf.f_eval(F, kap - dk)) / (2 * eps)
            rel = np.abs(fd - grad[:, i]) / np.maximum(np.abs(grad[:, i]), 1e-12)
            assert np.max(rel) <= 1e-6

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_positivity_on_cone(self, name):
        rng = np.random.default_rng(5)
        F = cf.from_name(name, 3)
        g = cf.f_grad(F, sample_positive(rng, 3, 500))
        assert np.all(g > 0)


class TestStructure:
    @pytest.mark.parametrize("name", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneity(self, name, n):
        rng = np.random.default_rng(6)
        F = cf.from_name(name, n)
        kap = sample_positive(rng, n, 200)
        base = cf.f_eval(F, kap)
        for c in (0.1, 0.37, 2.0, 10.0):
            scaled = cf.f_eval(F, c * kap)
            assert np.max(np.abs(scaled - c * base)) <= 1e-12 * np.max(np.abs(c * base))

    @pytest.mark.parametrize("name", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_euler_identity(self, name, n):
        rng = np.random.default_rng(7)
        F = cf.from_name(name, n)
        kap = sample_positive(rng, n, 500)
        val = cf.f_eval(F, kap)
        grad = cf.f_grad(F, kap)
        rel = np.abs(np.sum(kap * grad, axis=1) - val) / np.abs(val)
        assert np.max(rel) <= 1e-10

    @pytest.mark.parametrize("name", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_concavity_midpoint(self, name, n):
        rng = np.random.default_rng(8)
        F = cf.from_name(name, n)
        a = sample_positive(rng, n, 1000)
        b = sample_positive(rng, n, 1000)
        lhs = cf.f_eval(F, 0.5 * (a + b))
        rhs = 0.5 * (cf.f_eval(F, a) + cf.f_eval(F, b))
        assert np.all(lhs >= rhs - 1e-12)

    @pytest.mark.parametrize("name", ALL_KINDS)
    def test_monotonicity_sampled(self, name):
        rng = np.random.default_rng(9)
        F = cf.from_name(name, 2)
        kap = sample_positive(rng, 2, 200)
        bumped = kap.copy()
        bumped[:, 0] += 0.05
        assert np.all(cf.f_eval(F, bumped) > cf.f_eval(F, kap))
