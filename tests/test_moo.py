"""Minimum-norm solver tests: closed form, the exact three-objective solve
against a Frank-Wolfe reference, lattice oracle, descent condition, and the
scale/minimality properties."""

import numpy as np
import pytest

from edgecloud.moo import solve_min_norm
from edgecloud.nncore import UsageError

from conftest import check_descent, grid_oracle, on_simplex


def frank_wolfe_reference(grads, tol=1e-10, max_iter=10_000):
    """Away-step Frank-Wolfe over the simplex with exact line search: the
    solver the package used for p >= 3 before the exact Gram-matrix solve,
    kept as a reference."""
    p = grads.shape[0]
    norms2 = np.einsum("ij,ij->i", grads, grads)
    start = int(np.argmin(norms2))
    alpha = np.zeros(p)
    alpha[start] = 1.0
    combined = grads[start].copy()
    for _ in range(max_iter):
        scores = grads @ combined
        cc = float(combined @ combined)
        vertex = int(np.argmin(scores))
        gap = 2.0 * (cc - float(scores[vertex]))
        if gap < tol:
            break
        active = np.flatnonzero(alpha > 0.0)
        away = int(active[np.argmax(scores[active])])
        away_gap = 2.0 * (float(scores[away]) - cc)
        if gap >= away_gap:
            direction = grads[vertex] - combined
            eta_max = 1.0
        else:
            direction = combined - grads[away]
            denom = 1.0 - alpha[away]
            eta_max = alpha[away] / denom if denom > 0.0 else 0.0
        dd = float(direction @ direction)
        if dd == 0.0 or eta_max == 0.0:
            break
        eta = float(np.clip(-(combined @ direction) / dd, 0.0, eta_max))
        if eta == 0.0:
            break
        if gap >= away_gap:
            alpha *= 1.0 - eta
            alpha[vertex] += eta
        else:
            alpha *= 1.0 + eta
            alpha[away] -= eta
            alpha[alpha < 0.0] = 0.0
        combined = combined + eta * direction
    return alpha


def random_bundle(rng, p, max_dim=32):
    d = int(rng.integers(2, max_dim + 1))
    scale = 10.0 ** rng.uniform(-2, 2)
    return scale * rng.standard_normal((p, d))


class TestSolveMinNorm:
    def test_orthonormal_pair(self):
        alpha, combined = solve_min_norm([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(alpha, [0.5, 0.5])
        assert np.allclose(combined, [0.5, 0.5])
        assert combined @ combined == pytest.approx(0.5)
        _, oracle_min = grid_oracle([[1.0, 0.0], [0.0, 1.0]], 1e-3)
        assert oracle_min == pytest.approx(0.5, abs=1e-3)

    def test_identical_gradients_return_them_exactly(self):
        g = np.array([0.3, -1.2, 4.5])
        _, combined = solve_min_norm([g, g])
        assert np.array_equal(combined, g)

    def test_nested_pair_picks_shorter_vertex(self):
        alpha, combined = solve_min_norm([[2.0, 0.0], [1.0, 0.0]])
        assert np.allclose(alpha, [0.0, 1.0])
        assert np.allclose(combined, [1.0, 0.0])
        ok, inner = check_descent([[2.0, 0.0], [1.0, 0.0]], combined)
        assert ok and inner[0] == pytest.approx(2.0)
        # fine alpha lattice agrees
        alphas = np.linspace(0.0, 1.0, 10_001)
        norms = (alphas * 2.0 + (1 - alphas) * 1.0) ** 2
        assert norms.min() >= combined @ combined - 1e-12

    def test_opposing_pair_is_stationary(self):
        _, combined = solve_min_norm([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(combined, [0.0, 0.0])

    def test_all_zero_bundle(self):
        alpha, combined = solve_min_norm(np.zeros((3, 4)))
        assert np.allclose(alpha, 1.0 / 3.0)
        assert np.array_equal(combined, np.zeros(4))

    def test_single_gradient_rejected(self):
        with pytest.raises(UsageError):
            solve_min_norm([[1.0, 0.0]])

    def test_three_basis_vectors(self):
        alpha, combined = solve_min_norm(np.eye(3))
        assert np.allclose(alpha, 1.0 / 3.0, atol=1e-15)
        assert combined @ combined == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_four_objectives_rejected(self):
        with pytest.raises(UsageError, match="p=4"):
            solve_min_norm(np.eye(4))

    @pytest.mark.parametrize("grads", [[1.0, 0.0], np.ones((2, 2, 1))], ids=["1-D", "3-D"])
    def test_non_matrix_rejected(self, grads):
        with pytest.raises(UsageError, match="2-D"):
            solve_min_norm(grads)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(UsageError, match="non-finite"):
            solve_min_norm([[1.0, 0.0], [0.0, bad]])


def max_norm2(grads):
    return float(np.max(np.einsum("ij,ij->i", grads, grads)))


class TestExactThreeObjectives:
    """The p = 3 solve is exact: never above the Frank-Wolfe reference's
    norm by more than rounding, on random and on degenerate bundles."""

    def assert_not_above_reference(self, grads):
        alpha, combined = solve_min_norm(grads)
        assert on_simplex(alpha, 3)
        ref = frank_wolfe_reference(grads) @ grads
        assert combined @ combined <= ref @ ref + 1e-12 * max_norm2(grads)
        ok, _ = check_descent(grads, combined)
        assert ok

    def test_random_bundles_against_frank_wolfe(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            self.assert_not_above_reference(random_bundle(rng, 3))

    @pytest.mark.parametrize("name, grads", [
        # d = 2 with the origin inside the hull: the minimum is exactly 0
        ("planar-zero-inside", np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.9]])),
        ("identical-rows", np.tile([0.3, -1.2, 4.5], (3, 1))),
        ("collinear-rows", np.outer([1.0, -2.0, 0.5], [0.6, -0.8, 0.0])),
        ("collinear-same-side", np.outer([1.0, 2.0, 3.0], [0.6, -0.8])),
        ("zero-row", np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-3.0, 1.0, 2.0]])),
        ("two-equal-rows", np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 2.0]])),
        ("rank-1-gram", np.outer([2.0, 2.0, 2.0], [1e-3, 5.0, -2.0])),
    ])
    def test_degenerate_bundles(self, name, grads):
        self.assert_not_above_reference(grads)
        _, combined = solve_min_norm(grads)
        if name in ("planar-zero-inside", "collinear-rows", "zero-row"):
            assert combined @ combined <= 1e-30
        if name in ("identical-rows", "rank-1-gram"):
            assert np.allclose(combined, grads[0], rtol=1e-15, atol=0.0)

    def test_random_planar_bundles_with_the_origin_inside(self):
        # rank-deficient G (d = 2) with a zero in the hull: the exact minimum is 0;
        # the Frank-Wolfe reference stops at up to 6.5e-13 * max ||g_i||^2
        rng = np.random.default_rng(6)
        for _ in range(500):
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 3))
            if np.max(np.diff(np.concatenate([angles, angles[:1] + 2.0 * np.pi]))) >= np.pi:
                continue  # origin not strictly inside
            grads = rng.uniform(0.1, 10.0, (3, 1)) * np.stack([np.cos(angles), np.sin(angles)], 1)
            alpha, combined = solve_min_norm(grads)
            assert on_simplex(alpha, 3)
            assert combined @ combined <= 1e-20 * max_norm2(grads)


class TestGridOracle:
    def test_orthonormal_pair_step_1e3(self):
        _, best = grid_oracle([[1.0, 0.0], [0.0, 1.0]], 1e-3)
        assert best == pytest.approx(0.5, abs=1e-3)

    def test_three_basis_vectors(self):
        alpha, best = grid_oracle(np.eye(3), 1e-2)
        assert best == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert np.allclose(alpha, 1.0 / 3.0, atol=1e-2)

    def test_repeated_direction(self):
        g = np.array([1.5, -0.5])
        _, best = grid_oracle([g, g, g], 1e-2)
        assert best == pytest.approx(float(g @ g), rel=1e-9)

    def test_unsupported_p_rejected(self):
        with pytest.raises(UsageError):
            grid_oracle(np.eye(4), 1e-2)

    def test_coarse_step_rejected(self):
        with pytest.raises(UsageError):
            grid_oracle(np.eye(2), 0.1)


class TestCheckDescent:
    def test_orthonormal_combination(self):
        ok, inner = check_descent([[1.0, 0.0], [0.0, 1.0]], np.array([0.5, 0.5]))
        assert ok
        assert np.allclose(inner, [0.5, 0.5])

    def test_stationary_point(self):
        ok, inner = check_descent([[1.0, 0.0], [-1.0, 0.0]], np.zeros(2))
        assert ok and np.allclose(inner, 0.0)

    def test_negative_control(self):
        ok, inner = check_descent([[1.0, 0.0], [-1.0, 0.0]], np.array([1.0, 0.0]))
        assert not ok
        assert inner[1] == pytest.approx(-1.0)


class TestProperties:
    def test_oracle_equivalence_p2(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            grads = random_bundle(rng, 2)
            alpha, combined = solve_min_norm(grads)
            assert on_simplex(alpha, 2)
            _, oracle_min = grid_oracle(grads, 1e-3)
            assert abs(float(combined @ combined) - oracle_min) <= 3e-3 * max_norm2(grads)

    def test_descent_holds_everywhere(self):
        rng = np.random.default_rng(1)
        for p in (2, 3):
            for _ in range(200):
                grads = random_bundle(rng, p)
                alpha, combined = solve_min_norm(grads)
                assert on_simplex(alpha, p)
                ok, _ = check_descent(grads, combined)
                assert ok

    def test_scale_covariance_p2(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            grads = random_bundle(rng, 2)
            c = float(10.0 ** rng.uniform(-3, 3))
            a1, comb1 = solve_min_norm(grads)
            a2, comb2 = solve_min_norm(c * grads)
            assert on_simplex(a1, 2) and on_simplex(a2, 2)
            assert np.allclose(a1, a2, atol=1e-12)
            assert np.allclose(comb2, c * comb1, rtol=1e-9, atol=1e-12)

    def test_scale_covariance_p3(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            grads = random_bundle(rng, 3)
            c = float(10.0 ** rng.uniform(-2, 2))
            a1, comb1 = solve_min_norm(grads)
            a2, comb2 = solve_min_norm(c * grads)
            assert on_simplex(a1, 3) and on_simplex(a2, 3)
            assert np.allclose(a1, a2, atol=1e-12)
            norm1 = float(comb1 @ comb1)
            norm2 = float(comb2 @ comb2)
            assert norm2 == pytest.approx(c * c * norm1, rel=1e-6, abs=1e-12)

    def test_minimality_against_vertices_and_random_points(self):
        rng = np.random.default_rng(4)
        for p in (2, 3):
            for _ in range(50):
                grads = random_bundle(rng, p)
                alpha, combined = solve_min_norm(grads)
                assert on_simplex(alpha, p)
                best = float(combined @ combined)
                slack = 1e-9 * max(1.0, float(np.abs(grads).max()) ** 2)
                for g in grads:
                    assert best <= float(g @ g) + slack
                simplex = rng.dirichlet(np.ones(p), size=100)
                combos = simplex @ grads
                norms = np.einsum("ij,ij->i", combos, combos)
                assert best <= norms.min() + slack
