"""The barrier subsolver's entry points on closed-form families."""

import hashlib

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


def _family(seed, n, d, shift, traceless):
    """s0 + shift·I and d random symmetric matrices (traceless on request)."""
    rng = np.random.default_rng(seed)
    sym = [(m + m.T) / 2 for m in rng.standard_normal((d + 1, n, n))]
    if traceless:
        sym[1:] = [m - np.trace(m) / n * np.eye(n) for m in sym[1:]]
    return sym[0] + shift * np.eye(n), sym[1:]


# id: (entry point, _family arguments, keyword arguments).  The "big" cases
# have n = 10 and k = 53 Hessian columns on the λ_min path.
BARRIER_CASES = {
    "lmin-below-exits": ("lmin", (2, 4, 2, -1.0, False), {"reg": 1e-8, "stop_below": -1e-2}),
    "lmin-below-exits-9": ("lmin", (9, 4, 2, -1.0, False), {"reg": 1e-8, "stop_below": -1e-2}),
    "lmin-below-full": ("lmin", (0, 4, 2, 1.0, False), {"reg": 1e-8, "stop_below": -1e-2}),
    "lmin-below-full-5": ("lmin", (5, 5, 3, 2.0, False), {"reg": 1e-8, "stop_below": -1e-2}),
    "lmin-above-exits": ("lmin", (0, 5, 3, 2.0, False), {"reg": 1e-10, "stop_above": 0.1}),
    "lmin-above-full": ("lmin", (1, 5, 3, 2.0, False), {"reg": 1e-10, "stop_above": 0.1}),
    "interior": ("interior", (0, 6, 4, 3.0, True), {}),
    "interior-2": ("interior", (2, 6, 4, 3.0, True), {}),
    "face": ("face", (0, 5, 3, 4.0, True), {}),
    "face-2": ("face", (2, 5, 3, 4.0, True), {}),
    "big-lmin-below-exits": ("lmin", (0, 10, 52, -1.0, True), {"reg": 1e-8, "stop_below": -1e-2}),
    "big-lmin-below-full": ("lmin", (0, 10, 52, 3.0, True), {"reg": 1e-8, "stop_below": -1e-2}),
    "big-interior": ("interior", (1, 10, 52, 3.0, True), {}),
}

# SHA-256 of every barrier path's (w, steps) and of the entry point's
# outputs (w, value, newton_steps, below), and LambdaMinResult.upper.
BARRIER_GOLDEN = {
    "big-interior": (
        "559723165594d2074d14fb254ec25c31d212b9948bbbf42f793b42513f013199",
        None,
    ),
    "big-lmin-below-exits": (
        "49f37313faebbdfafbbfcd19e77221b8ed358e0d45c49bfab10653510330d873",
        -0.5443757979462114,
    ),
    "big-lmin-below-full": (
        "e77926c73cce848c0e196d74b820b0558295c8abb1bb7ce2b2fc50e16bdc4929",
        3.0547431027654186,
    ),
    "face": (
        "cdd0909cbfdb1f1306967b2694f93dec051842e33e2932d25cdf5aed8fabdaa5",
        None,
    ),
    "face-2": (
        "2110e3ae9e27422079e9a06d7e2c8f1799476118cb6bef12265b8dee4831cf3b",
        None,
    ),
    "interior": (
        "ebec1fd352332fecef3d251f72308a6fc674ba02cdcef163464f808bce388478",
        None,
    ),
    "interior-2": (
        "d6ee606b4ceb0bfcb1a9ad76807aac70269a460d798463322a4a6bc950c96646",
        None,
    ),
    "lmin-above-exits": (
        "1dae66d94a688d5fad6cfbcf5d32d3417b9ea8d434da8cd3bf6dd67a2350fa29",
        np.inf,
    ),
    "lmin-above-full": (
        "120cc6d2444ab58742023e37d8071b25841c3182d84849e0c44736ce36ff5a91",
        np.inf,
    ),
    "lmin-below-exits": (
        "a929dc2a6c7a094c08c5f5cc03b09459252c2dba606fd76ce576aac81201f8f0",
        -1.2304401435690904,
    ),
    "lmin-below-exits-9": (
        "16c352f7cf4d0e33b0397aa5e63bfc64c20212840404ba4eae769a04320909ba",
        -2.6775826770106077,
    ),
    "lmin-below-full": (
        "610fb18b350c1ba3fe29b2f84af472d12b4bfdc545929045a44f067c040d3e78",
        0.2930010301084823,
    ),
    "lmin-below-full-5": (
        "0adc3804331bc263fd899322f061b4bd7168f5be3bc5fb9d528adf484bb7ebff",
        0.6534013460466802,
    ),
}


def _barrier_outputs(monkeypatch, entry, family, kwargs):
    h = hashlib.sha256()
    path = subsolver._barrier_path

    def recorded(*args, **kw):
        w, steps = path(*args, **kw)
        h.update(w.tobytes() + repr(steps).encode())
        return w, steps

    monkeypatch.setattr(subsolver, "_barrier_path", recorded)
    s0, mats = _family(*family)
    upper = None
    if entry == "lmin":
        res = maximize_lambda_min(s0, mats, **kwargs)
        out, upper = (res.w, res.value, res.newton_steps, res.below), res.upper
    elif entry == "interior":
        out = (interior_point(s0, mats),)
    else:
        obj = np.diag(np.arange(1.0, s0.shape[0] + 1))
        out = minimize_linear_over_face(obj, s0, mats, np.zeros(len(mats)))
    for x in out:
        h.update(x.tobytes() if isinstance(x, np.ndarray) else repr(x).encode())
    return h.hexdigest(), upper


@pytest.mark.parametrize("case", sorted(BARRIER_CASES))
def test_barrier_outputs_golden(case, monkeypatch):
    # Pins the iterates bit for bit: a change to how a step is computed
    # must leave every w, value, step count and exit decision unchanged.
    digest, upper = _barrier_outputs(monkeypatch, *BARRIER_CASES[case])
    want_digest, want_upper = BARRIER_GOLDEN[case]
    assert digest == want_digest
    assert upper == pytest.approx(want_upper, rel=1e-12)


def test_one_inverse_and_stop_test_per_iterate(monkeypatch):
    # min w - mu·log det diag(1, w - 2, 3 - w) for mu = 1, 0.2, ..., 1e-4:
    # seven mu rounds, each starting at the point where the last one
    # stopped.  G⁻¹ and the stop test are computed once per iterate.
    inv, seen = np.linalg.inv, []

    def counted_inv(a):
        seen.append("inv")
        return inv(a)

    def stop(w, g, ginv, trs):
        seen.append(w.tobytes())
        assert trs == pytest.approx([float(np.sum(FAMILY[0] * ginv))], rel=1e-12)
        return False

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    w, steps = subsolver._barrier_path(
        S0, subsolver._stack(FAMILY, 3), np.ones(1), 0.0, np.array([2.5]),
        mu=1.0, mu_final=1e-4, shrink=0.2, inner=50, tol=1e-12, max_iter=500, stop=stop,
    )
    iterates = [x for x in seen if x != "inv"]
    assert w == pytest.approx([2.0], abs=1e-3)
    assert seen.count("inv") == len(iterates) == len(set(iterates)) < steps
