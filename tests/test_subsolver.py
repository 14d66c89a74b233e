"""The barrier subsolver's entry points on closed-form families."""

import numpy as np
import pytest

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
