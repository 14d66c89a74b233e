"""The barrier subsolver's entry points on closed-form families."""

import numpy as np
import pytest

from ramanasdp import subsolver
from ramanasdp.subsolver import (
    IterationLimitError,
    interior_point,
    maximize_lambda_min,
    minimize_linear_over_face,
)

# S(w) = diag(1, w - 2, 3 - w): lambda_min peaks at 0.5 for w = 2.5, and
# S(w) ≻ 0 exactly for 2 < w < 3.
S0 = np.diag([1.0, -2.0, 3.0])
FAMILY = [np.diag([0.0, 1.0, -1.0])]


class TestMaximizeLambdaMin:
    def test_diagonal_optimum(self):
        res = maximize_lambda_min(S0, FAMILY)
        assert res.value == pytest.approx(0.5, abs=1e-8)
        assert res.w == pytest.approx([2.5], abs=1e-6)
        assert res.newton_steps > 0

    def test_two_parameter_diagonal_optimum(self):
        # diag(w1, w2, 1 - w1 - w2): optimum 1/3 at w1 = w2 = 1/3.
        mats = [np.diag([1.0, 0.0, -1.0]), np.diag([0.0, 1.0, -1.0])]
        res = maximize_lambda_min(np.diag([0.0, 0.0, 1.0]), mats)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert res.w == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-6)

    def test_stop_above_returns_early(self):
        full = maximize_lambda_min(S0, FAMILY)
        early = maximize_lambda_min(S0, FAMILY, stop_above=0.1)
        assert early.value > 0.1
        assert 0 < early.newton_steps < full.newton_steps

    @pytest.mark.parametrize("d", [4, 8])
    def test_simplex_diagonal_optimum(self, d, monkeypatch):
        # diag(w_1, ..., w_d, 1 - Σ w_i): optimum 1/(d + 1) at w_i = 1/(d + 1).
        # With the t column the Hessian has d + 1 = 5 or 9 columns, so its
        # column blocks end short.  One column per block is the reference.
        mats = [np.zeros((d + 1, d + 1)) for _ in range(d)]
        for i, m in enumerate(mats):
            m[i, i], m[d, d] = 1.0, -1.0
        s0 = np.zeros((d + 1, d + 1))
        s0[d, d] = 1.0
        res = maximize_lambda_min(s0, mats)
        assert res.value == pytest.approx(1.0 / (d + 1), abs=1e-8)
        assert res.w == pytest.approx(np.full(d, 1.0 / (d + 1)), abs=1e-6)
        monkeypatch.setattr(subsolver, "_HESS_BLOCK", 1)
        ref = maximize_lambda_min(s0, mats)
        assert res.newton_steps == ref.newton_steps
        assert res.w == pytest.approx(ref.w, abs=1e-12)

    @pytest.mark.parametrize(
        "s0, mats, optimum",
        [
            (S0, FAMILY, 0.5),
            (np.diag([0.0, 0.0, 1.0]), [np.diag([1.0, 0, -1]), np.diag([0, 1.0, -1])], 1.0 / 3),
        ],
    )
    def test_upper_bounds_the_ridged_optimum(self, s0, mats, optimum):
        # stop_below = -inf asks for the bound but never exits.
        full = maximize_lambda_min(s0, mats, reg=1e-10)
        res = maximize_lambda_min(s0, mats, reg=1e-10, stop_below=-np.inf)
        assert full.upper == np.inf and not res.below
        assert res.upper >= full.value
        assert res.upper == pytest.approx(optimum, abs=1e-8)
        # No ridge, no bound.
        assert maximize_lambda_min(s0, mats, stop_below=-np.inf).upper == np.inf

    def test_stop_below_exits_early(self):
        # S(w) - 3I: lambda_min peaks at 0.5 - 3 = -2.5 for w = 2.5.
        s0 = S0 - 3.0 * np.eye(3)
        full = maximize_lambda_min(s0, FAMILY, reg=1e-10)
        early = maximize_lambda_min(s0, FAMILY, reg=1e-10, stop_below=-0.1)
        assert full.value == pytest.approx(-2.5, abs=1e-8)
        assert early.below and not full.below
        assert full.value <= early.upper < 0.0
        assert early.value <= full.value
        assert 0 < early.newton_steps < full.newton_steps

    def test_stop_below_keeps_a_far_optimum(self):
        # diag(w/50 - 1, 1 - w/50, w/50): lambda_min peaks at 0 for w = 50,
        # where the ridge costs (1e-8/2)·50² = 1.25e-5.  The ridged optimum
        # is below the level, lambda_min there is not, so the run goes on.
        s0 = np.diag([-1.0, 1.0, 0.0])
        mats = [np.diag([1.0, -1.0, 1.0]) / 50.0]
        res = maximize_lambda_min(s0, mats, reg=1e-8, stop_below=-1e-6)
        assert not res.below
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.w == pytest.approx([50.0], abs=1e-6)
        assert res.upper >= res.value

    @pytest.mark.parametrize("seed", range(12))
    def test_stop_below_agrees_with_a_full_run(self, seed):
        # Random families with optima on both sides of the level: an exit
        # happens only where the full run ends below the level at its own
        # scale, and the bound holds at the full run's end.
        rng = np.random.default_rng(seed)
        n, d, level = 4, 2, -1e-2
        sym = [(m + m.T) / 2 for m in rng.standard_normal((d + 1, n, n))]
        s0 = sym[0] + rng.uniform(-1.5, 1.5) * np.eye(n)
        full = maximize_lambda_min(s0, sym[1:], reg=1e-8)
        early = maximize_lambda_min(s0, sym[1:], reg=1e-8, stop_below=level)
        s_full = s0 + np.tensordot(full.w, np.array(sym[1:]), 1)
        assert early.upper >= full.value - 1e-9
        if early.below:
            assert full.value < level * max(1.0, float(np.linalg.norm(s_full)))
            assert early.newton_steps < full.newton_steps
        else:
            assert early.newton_steps == full.newton_steps

    def test_iteration_budget(self):
        with pytest.raises(IterationLimitError):
            maximize_lambda_min(S0, FAMILY, max_iter=2)


class TestInteriorPoint:
    def test_empty_interior(self):
        # diag(w - 1, -w) ≻ 0 needs w > 1 and w < 0.
        assert interior_point(np.diag([-1.0, 0.0]), [np.diag([1.0, -1.0])]) is None

    def test_strictly_pd_point(self):
        w = interior_point(S0, FAMILY)
        assert np.linalg.eigvalsh(S0 + w[0] * FAMILY[0])[0] > 0.0
        # The analytic center of diag(1, w - 2, 3 - w) is w = 2.5.
        assert w == pytest.approx([2.5], abs=1e-6)

    def test_empty_family(self):
        assert interior_point(np.eye(2), []).shape == (0,)
        assert interior_point(-np.eye(2), []) is None


class TestMinimizeLinearOverFace:
    def test_hand_solved_minimum(self):
        # <diag(1, 2), diag(1 + w, 1 - w)> = 3 - w over -1 <= w <= 1.
        w, value = minimize_linear_over_face(
            np.diag([1.0, 2.0]), np.eye(2), [np.diag([1.0, -1.0])], np.zeros(1)
        )
        assert value == pytest.approx(2.0, abs=1e-6)
        assert w == pytest.approx([1.0], abs=1e-6)

    def test_empty_family(self):
        w, value = minimize_linear_over_face(
            np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), [], np.zeros(0)
        )
        assert w.shape == (0,) and value == 11.0

    def test_non_pd_start_rejected(self):
        with pytest.raises(ValueError):
            minimize_linear_over_face(
                np.eye(2), np.eye(2), [np.diag([1.0, -1.0])], np.array([2.0])
            )
