"""The barrier subsolver's entry points on closed-form families."""

import hashlib

import numpy as np
import pytest

from ramanasdp import subsolver
from ramanasdp.model import svec
from ramanasdp.subsolver import (
    IterationLimitError,
    interior_point,
    maximize_lambda_min,
    minimize_linear_over_face,
    null_basis,
)
from ramanasdp.symmat import SymMat

# S(w) = diag(1, w - 2, 3 - w): lambda_min peaks at 0.5 for w = 2.5, and
# S(w) ≻ 0 exactly for 2 < w < 3.
S0 = np.diag([1.0, -2.0, 3.0])
FAMILY = [np.diag([0.0, 1.0, -1.0])]
# The face through S0 spanned by FAMILY: X₁₁, X₂₂ + X₃₃ and the
# off-diagonal entries are fixed (svec order: diagonal, then (0, 1),
# (0, 2), (1, 2)).
ROWS = np.array([
    [1.0, 0, 0, 0, 0, 0], [0, 1.0, 1.0, 0, 0, 0],
    [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0],
])
# diag(w, -w) at order 2: X₁₁ + X₂₂ and X₁₂ are fixed.
ROWS_2 = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _rows(mats, n):
    """svec rows whose face through any point X is X + span(mats)."""
    vecs = np.array([svec(SymMat(m)) for m in mats]).reshape(len(mats), n * (n + 1) // 2)
    return null_basis(vecs).T


def _on_face(x, s0, rows):
    """x is strictly PD and rows·svec(x - s0) = 0 to rounding."""
    gap = rows @ svec(SymMat(x - s0))
    return np.linalg.eigvalsh(x)[0] > 0.0 and np.abs(gap).max(initial=0.0) <= 1e-12 * (
        1.0 + np.abs(x).max())


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

    def test_stop_above_exit_solves_no_step(self):
        # The level is tested before the iterate's step is solved: this
        # family reaches it after 8 steps, and the exit iterate solves no
        # ninth.
        s0, mats = _family(0, 5, 3, 2.0, False)
        res = maximize_lambda_min(s0, mats, reg=1e-10, stop_above=0.1)
        assert res.newton_steps == 8 and res.value > 0.1

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

    def test_a_step_lost_to_rounding_certifies_nothing(self, monkeypatch):
        # On an ill-conditioned Hessian the computed decrement -grad·step
        # can come out negative; such a step gives no certificate.
        path = subsolver._barrier_path

        def lossy(*args, stop, **kw):
            def negated(w, g, ginv, trs, mu, newton):
                def lossy_newton():
                    solved = newton()
                    return solved and (solved[0], -abs(solved[1]))
                return stop(w, g, ginv, trs, mu, lossy_newton)
            return path(*args, stop=negated, **kw)

        monkeypatch.setattr(subsolver, "_barrier_path", lossy)
        res = maximize_lambda_min(S0 - 3.0 * np.eye(3), FAMILY, reg=1e-10, stop_below=-0.1)
        assert not res.below and res.upper == np.inf

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
    def test_newton_dual_point_is_a_unit_trace_psd_certificate(self, seed, monkeypatch):
        # The families of test_stop_below_agrees_with_a_full_run.  At every
        # iterate where the certificate is used, X_N = mu(G⁻¹ - G⁻¹ ΔG G⁻¹),
        # recomputed here through the Cholesky factor, is PSD and of unit
        # trace, and no bound falls below the full run's value.  Seed 3 is
        # unbounded: its ridged optimum has ‖w‖ ~ 1e7, no iterate there is
        # centered enough to certify, and the run claims no bound.
        rng = np.random.default_rng(seed)
        n, d = 4, 2
        sym = [(m + m.T) / 2 for m in rng.standard_normal((d + 1, n, n))]
        s0 = sym[0] + rng.uniform(-1.5, 1.5) * np.eye(n)
        fam = np.array(sym[1:] + [-np.eye(n)])
        full = maximize_lambda_min(s0, sym[1:], reg=1e-8)
        path, used = subsolver._barrier_path, []

        def observed(*args, stop, **kw):
            def checked(w, g, ginv, trs, mu, newton):
                solved = newton()
                if solved is not None and 0.0 <= solved[1] / mu < 0.25:
                    l = np.linalg.cholesky(g)
                    dg = np.tensordot(solved[0], fam, 1)
                    m = np.linalg.solve(l, np.linalg.solve(l, dg).T)
                    if np.linalg.norm(m) <= 0.5:
                        x = mu * (ginv - ginv @ dg @ ginv)
                        used.append((np.linalg.eigvalsh((x + x.T) / 2)[0], np.trace(x)))
                return stop(w, g, ginv, trs, mu, newton)
            return path(*args, stop=checked, **kw)

        monkeypatch.setattr(subsolver, "_barrier_path", observed)
        res = maximize_lambda_min(s0, sym[1:], reg=1e-8, stop_below=-np.inf)
        assert not res.below and (used or res.upper == np.inf)
        for lam_min, tr in used:
            assert lam_min >= -1e-12 and abs(tr - 1.0) <= 1e-12
        # upper is the least bound over all of them.
        assert res.upper >= full.value - 1e-9

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

    def test_unbounded_family_ends_within_its_rounds(self):
        # Seed 3 of test_stop_below_agrees_with_a_full_run: the ridged
        # optimum has ‖w‖ ~ 1e7 and most steps fail their line search, yet
        # the run ends on its own, within 10 mu rounds × 60 steps.
        rng = np.random.default_rng(3)
        n, d = 4, 2
        sym = [(m + m.T) / 2 for m in rng.standard_normal((d + 1, n, n))]
        s0 = sym[0] + rng.uniform(-1.5, 1.5) * np.eye(n)
        res = maximize_lambda_min(s0, sym[1:], reg=1e-8)
        assert 0 < res.newton_steps <= 600
        assert np.linalg.norm(res.w) > 1e5


class TestInteriorPoint:
    def test_empty_interior(self):
        # diag(w - 1, -w) ≻ 0 needs w > 1 and w < 0.
        assert interior_point(np.diag([-1.0, 0.0]), ROWS_2) is None

    def test_strictly_pd_point(self):
        x = interior_point(S0, ROWS)
        assert _on_face(x, S0, ROWS)
        # The analytic center of diag(1, w - 2, 3 - w) is w = 2.5.
        assert x == pytest.approx(np.diag([1.0, 0.5, 0.5]), abs=1e-6)

    def test_empty_family(self):
        # Rows of full rank leave the face one point.
        assert np.array_equal(interior_point(np.eye(2), np.eye(3)), np.eye(2))
        assert interior_point(-np.eye(2), np.eye(3)) is None


class TestMinimizeLinearOverFace:
    def test_hand_solved_minimum(self):
        # <diag(1, 2), diag(1 + w, 1 - w)> = 3 - w over -1 <= w <= 1.
        x, value = minimize_linear_over_face(np.diag([1.0, 2.0]), np.eye(2), ROWS_2)
        assert value == pytest.approx(2.0, abs=1e-6)
        assert x == pytest.approx(np.diag([2.0, 0.0]), abs=1e-6)
        assert _on_face(x, np.eye(2), ROWS_2)

    def test_empty_family(self):
        x, value = minimize_linear_over_face(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.eye(3))
        assert np.array_equal(x, np.diag([3.0, 4.0])) and value == 11.0

    def test_non_pd_start_rejected(self):
        with pytest.raises(ValueError):
            minimize_linear_over_face(np.eye(2), np.diag([3.0, -1.0]), ROWS_2)


@pytest.mark.parametrize("seed", range(3))
def test_face_points_stay_on_the_face(seed):
    # A random face of order 5 with 6 fixed svec directions: both entry
    # points return strictly PD matrices X with rows·svec(X - s0) = 0.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((6, 15))
    s0 = np.eye(5) + 0.1 * (lambda a: a + a.T)(rng.standard_normal((5, 5)))
    assert _on_face(interior_point(s0, rows), s0, rows)
    x, value = minimize_linear_over_face(np.diag(np.arange(1.0, 6.0)), s0, rows)
    assert _on_face(x, s0, rows)
    assert value == pytest.approx(float(np.sum(np.diag(np.arange(1.0, 6.0)) * x)), rel=1e-9)


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
# outputs (w, value, newton_steps, below), and LambdaMinResult.upper, with
# inexact centering: each mu round above the last ends at a Newton
# decrement of _ROUND_DECREMENT·mu, and the λ_min path shrinks mu by 0.05.
# Between rounds the path moves to its predicted next center (Newton step,
# then the tangent carried to the stepped point), and the certificate's
# lower bound is lambda_min(S(w)) itself.  A stop_above exit solves no
# step at its iterate.  The interior and face cases give their family as
# the rows of its face (_rows) and hash the matrix X they return.
BARRIER_GOLDEN = {
    "big-interior": (
        "a918ff9e553c391ad4b2b83b4bfc6a4568cd8c65d3847946217ce6a2bdd02885",
        None,
    ),
    "big-lmin-below-exits": (
        "7fc58d5c2b6649f1f69a8eb6eba1f78fad220b4cd2b92209558c191b9b4c5cfa",
        -0.7790658084340188,
    ),
    "big-lmin-below-full": (
        "8ea63f29236b091c9b71654e34321954b15fb5c57af54dc0d870e75515470c77",
        3.0547426525928936,
    ),
    "face": (
        "305136b598c6ba228d2a324a09fe10c6fbd93534da5982847a5d8a6b181e1336",
        None,
    ),
    "face-2": (
        "29111a512fe869da6727e702b68a061f400db66188e1947a9f17886874451fc3",
        None,
    ),
    "interior": (
        "4fa3dcf6d0c651de4bd13f812da6c5e4e80a9d1c72c145bed96afeb0a53a4952",
        None,
    ),
    "interior-2": (
        "6c559d360d30bd348ec4587b94c8e7c61b7d754c9c87875f338a21bc46e8e792",
        None,
    ),
    "lmin-above-exits": (
        "6126ec3c1e8676d6448a36810fa1a0e2c8c6c411cab0f02a723cc9839c7dd40c",
        np.inf,
    ),
    "lmin-above-full": (
        "27647d1689a08b6d55f9b011b5e6b654c781f2a95a27f9adeae15f77d5fbf038",
        np.inf,
    ),
    "lmin-below-exits": (
        "dea459bea94d44a7a0c1d79dc6f13faa1fe522e8f5f18ed62b7f3ab1343c2b40",
        -1.424452312213677,
    ),
    "lmin-below-exits-9": (
        "b515821d46ca68abf8872c523d2bd333c195e4e292e17c9ba782f42fce1725a0",
        -3.716145248011147,
    ),
    "lmin-below-full": (
        "61255b5a95b7de6f81d0f01126196635b3ec8c546edda6870ab12cc2af6d6348",
        0.29300103050754045,
    ),
    "lmin-below-full-5": (
        "95acb81f6cde0bf6f6919a7161acd47e03257b5cdf7fd98879f440887e1de24c",
        0.6534013114393146,
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
        out = (interior_point(s0, _rows(mats, s0.shape[0])),)
    else:
        obj = np.diag(np.arange(1.0, s0.shape[0] + 1))
        out = minimize_linear_over_face(obj, s0, _rows(mats, s0.shape[0]))
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
    # seven mu rounds, each after the first starting at the center the
    # last one predicted.  G⁻¹ and the stop test are computed once per
    # distinct iterate, and each iterate solves at least one step.
    inv, seen = np.linalg.inv, []

    def counted_inv(a):
        seen.append("inv")
        return inv(a)

    def stop(w, g, ginv, trs, mu, newton):
        seen.append(w.tobytes())
        assert trs == pytest.approx([float(np.sum(FAMILY[0] * ginv))], rel=1e-12)
        return False

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    w, steps = subsolver._barrier_path(
        S0, subsolver._stack(FAMILY, 3), np.ones(1), 0.0, np.array([2.5]),
        mu=1.0, mu_final=1e-4, shrink=0.2, inner=50, tol=1e-12, stop=stop,
    )
    iterates = [x for x in seen if x != "inv"]
    assert w == pytest.approx([2.0], abs=1e-3)
    assert seen.count("inv") == len(iterates) == len(set(iterates)) <= steps


@pytest.mark.parametrize("inner", [2, 50])
def test_path_that_cannot_center_ends_within_its_rounds(inner):
    # tol = 0 is never met, so the last of the seven mu rounds (1, 0.2,
    # ..., 1e-4) ends on its inner cap or on a step that makes no
    # progress: the path returns within rounds × inner steps.
    last = []

    def stop(w, g, ginv, trs, mu, newton):
        last.append(mu == 1e-4)
        return False

    w, steps = subsolver._barrier_path(
        S0, subsolver._stack(FAMILY, 3), np.ones(1), 0.0, np.array([2.5]),
        mu=1.0, mu_final=1e-4, shrink=0.2, inner=inner, tol=0.0, stop=stop,
    )
    assert 0 < steps <= 7 * inner and 0 < sum(last) <= inner
    assert w == pytest.approx([2.0], abs=1e-3)


def test_start_outside_the_cone_is_refused():
    # diag(1, w - 2, 3 - w) at w = 1 is not positive definite.
    with pytest.raises(IterationLimitError, match="left the PSD cone"):
        subsolver._barrier_path(
            S0, subsolver._stack(FAMILY, 3), np.ones(1), 0.0, np.array([1.0]),
            mu=1.0, mu_final=1.0, shrink=1.0, inner=5, tol=1e-12,
        )


@pytest.mark.parametrize("s0, match", [
    (np.diag([np.inf, 1.0]), "diverged"),
    (np.diag([1e309, 1e309]), "diverged"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), "left the PSD cone"),
])
def test_non_finite_start_is_refused(s0, match):
    # Cholesky gives diag(inf, 1) an infinite diagonal and fails on an
    # infinite off-diagonal pair.
    with pytest.raises(IterationLimitError, match=match):
        subsolver._barrier_path(
            s0, np.eye(2)[None], np.ones(1), 0.0, np.zeros(1),
            mu=1.0, mu_final=1.0, shrink=1.0, inner=5, tol=1e-12,
        )


# The same families by value, recorded with full centering at every mu:
# lmin cases (value, below, upper, value of the run without a stop level),
# face cases the minimum, interior cases None.
BARRIER_VALUES = {
    "big-interior": None,
    "big-lmin-below-exits": (-1.0135138981083667, True, -0.5443757979462114, -0.9452573510872844),
    "big-lmin-below-full": (3.054742648912715, False, 3.0547431027654186, 3.054742648912715),
    "face": 56.79660423514087,
    "face-2": 48.337302351725675,
    "interior": None,
    "interior-2": None,
    "lmin-above-exits": (1.8275572369251913, False, np.inf, 1.9597434199261252),
    "lmin-above-full": (-0.5112598757049011, False, np.inf, -0.5112598757049011),
    "lmin-below-exits": (-1.4585937801522988, True, -1.2304401435690904, -1.425028116210471),
    "lmin-below-exits-9": (-4.01324242057408, True, -2.6775826770106077, -4.011105321380441),
    "lmin-below-full": (0.29300102946432344, False, 0.2930010301084823, 0.29300102946432344),
    "lmin-below-full-5": (0.6534013100878788, False, 0.6534013460466812, 0.6534013100878788),
}


@pytest.mark.parametrize("case", sorted(BARRIER_CASES))
def test_barrier_outputs_within_tolerance(case):
    # The golden digests above pin one way of stepping; these bounds hold
    # for any path to the same optima: the exit decisions, the values of
    # runs that do not exit, a certified upper no looser than before, and
    # strictly feasible interior points.
    entry, family, kwargs = BARRIER_CASES[case]
    s0, mats = _family(*family)
    want = BARRIER_VALUES[case]
    if entry == "interior":
        rows = _rows(mats, s0.shape[0])
        assert _on_face(interior_point(s0, rows), s0, rows)
    elif entry == "face":
        obj = np.diag(np.arange(1.0, s0.shape[0] + 1))
        _, value = minimize_linear_over_face(obj, s0, _rows(mats, s0.shape[0]))
        assert value == pytest.approx(want, rel=1e-8)
    else:
        value, below, upper, full_value = want
        res = maximize_lambda_min(s0, mats, **kwargs)
        assert res.below == below
        if "stop_above" in kwargs and value > kwargs["stop_above"]:
            assert res.value > kwargs["stop_above"]
        elif not below:
            assert res.value == pytest.approx(value, abs=1e-9)
        if "stop_below" in kwargs:
            assert full_value <= res.upper <= upper + 1e-9


@pytest.mark.parametrize("case", sorted(c for c in BARRIER_CASES if "lmin-" in c and "-full" in c))
def test_full_lambda_min_runs_take_few_steps(case):
    # Inexact centering and the predictor: a full λ_min path takes at most
    # 32 Newton steps on these families (18 to 21).
    _, family, kwargs = BARRIER_CASES[case]
    s0, mats = _family(*family)
    assert maximize_lambda_min(s0, mats, reg=kwargs["reg"]).newton_steps <= 32
