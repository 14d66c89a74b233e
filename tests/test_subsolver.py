"""The barrier subsolver's entry points on closed-form families."""

import hashlib

import numpy as np
import pytest

from ramanasdp import subsolver
from ramanasdp.facial import null_basis
from ramanasdp.model import svec
from ramanasdp.subsolver import IterationLimitError, face_center, face_solve, maximize_lambda_min
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


def _rhs(rows, x):
    """The right-hand side of the face through x: rows·svec(x)."""
    return rows @ svec(SymMat(x))


def _random_family(seed):
    """S0 and two random symmetric matrices of order 4, S0 shifted by a
    random multiple of I in [-1.5, 1.5]: optima on both sides of 0, and
    for seed 3 no finite one."""
    rng = np.random.default_rng(seed)
    sym = [(m + m.T) / 2 for m in rng.standard_normal((3, 4, 4))]
    return sym[0] + rng.uniform(-1.5, 1.5) * np.eye(4), sym[1:]


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

    @pytest.mark.parametrize("lost", ["decrement", "step"])
    def test_a_step_lost_to_rounding_certifies_nothing(self, lost, monkeypatch):
        # On an ill-conditioned Hessian the computed decrement -grad·step
        # can come out negative, or the step far longer than its decrement
        # says (‖M‖_F > 1/2 at lam < 1/2); such a step gives no certificate.
        cert = subsolver._certificate

        def lossy(s0, flat, reg, wt, g, ginv, step, decrement, mu):
            if lost == "decrement":
                decrement = -abs(decrement)
            else:
                step = step + 1e3
            return cert(s0, flat, reg, wt, g, ginv, step, decrement, mu)

        monkeypatch.setattr(subsolver, "_certificate", lossy)
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
        # iterate where the certificate gives a bound, M = L⁻¹ ΔG L⁻ᵀ,
        # recomputed here through the Cholesky factor L of G, has
        # ‖M‖_F ≤ 1/2, and X_N = mu(G⁻¹ - G⁻¹ ΔG G⁻¹) is PSD and of unit
        # trace; no bound falls below the full run's value.  Seed 3 is
        # unbounded: its ridged optimum has ‖w‖ ~ 1e7, no iterate there is
        # centered enough to certify, and the run claims no bound.
        s0, mats = _random_family(seed)
        full = maximize_lambda_min(s0, mats, reg=1e-8)
        cert, used = subsolver._certificate, []

        def checked(s0, flat, reg, wt, g, ginv, step, decrement, mu):
            out = cert(s0, flat, reg, wt, g, ginv, step, decrement, mu)
            if out is not None:
                l = np.linalg.cholesky(g)
                dg = (step @ flat).reshape(4, 4)
                m = np.linalg.solve(l, np.linalg.solve(l, dg).T)
                x = mu * (ginv - ginv @ dg @ ginv)
                used.append((np.linalg.norm(m), np.linalg.eigvalsh((x + x.T) / 2)[0], np.trace(x)))
            return out

        monkeypatch.setattr(subsolver, "_certificate", checked)
        res = maximize_lambda_min(s0, mats, reg=1e-8, stop_below=-np.inf)
        assert not res.below and (used or res.upper == np.inf)
        for m_norm, lam_min, tr in used:
            assert m_norm <= 0.5 + 1e-12
            assert lam_min >= -1e-12 and abs(tr - 1.0) <= 1e-12
        # upper is the least bound over all of them.
        assert res.upper >= full.value - 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_stop_below_agrees_with_a_full_run(self, seed):
        # Random families with optima on both sides of the level: an exit
        # happens only where the full run ends below the level at its own
        # scale, and the bound holds at the full run's end.
        s0, mats = _random_family(seed)
        level = -1e-2
        full = maximize_lambda_min(s0, mats, reg=1e-8)
        early = maximize_lambda_min(s0, mats, reg=1e-8, stop_below=level)
        s_full = s0 + np.tensordot(full.w, np.array(mats), 1)
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
        res = maximize_lambda_min(*_random_family(3), reg=1e-8)
        assert 0 < res.newton_steps <= 600
        assert np.linalg.norm(res.w) > 1e5


class TestFaceCenter:
    def test_empty_interior(self):
        # diag(w - 1, -w) ≻ 0 needs w > 1 and w < 0.
        assert face_center(ROWS_2, _rhs(ROWS_2, np.diag([-1.0, 0.0])), 2) is None

    def test_strictly_pd_point(self):
        x = face_center(ROWS, _rhs(ROWS, S0), 3)
        assert _on_face(x, S0, ROWS)
        # tr X is constant on diag(1, w - 2, 3 - w), whose analytic center
        # is w = 2.5.
        assert x == pytest.approx(np.diag([1.0, 0.5, 0.5]), abs=1e-9)

    def test_empty_family(self):
        # Rows of full rank leave the face one point.
        assert face_center(np.eye(3), _rhs(np.eye(3), np.eye(2)), 2) == pytest.approx(
            np.eye(2), abs=1e-15)
        assert face_center(np.eye(3), _rhs(np.eye(3), -np.eye(2)), 2) is None

    @pytest.mark.parametrize("failing", ["cone", "hessian"])
    def test_failed_factor_is_no_center(self, failing, monkeypatch):
        # I - 𝒜*λ found outside the cone, or a singular Hessian, ends the
        # run without a center.
        def fails(*args):
            raise np.linalg.LinAlgError("planted")

        if failing == "cone":
            monkeypatch.setattr(subsolver, "_chol_or_none", lambda g: None)
        else:
            monkeypatch.setattr(np.linalg, "solve", fails)
        assert face_center(ROWS, _rhs(ROWS, S0), 3) is None

    def test_trace_sets_the_scale(self):
        # On the face X₁₂ = 0 the center of tr X - log det X is I: the
        # trace term bounds the otherwise unbounded face.
        x = face_center(np.array([[0.0, 0.0, 1.0]]), np.zeros(1), 2)
        assert x == pytest.approx(np.eye(2), abs=1e-12)

    @pytest.mark.parametrize("b", [1e7, 1e8, 1e12])
    @pytest.mark.parametrize("n", [1, 2])
    def test_face_of_large_scale(self, n, b):
        # X₁₁ = b: the center is diag(b, 1).  I - 𝒜*λ = diag(1/b, 1) holds
        # λ only to about ε·b relative, so the decrement stalls near ε·b,
        # far above an absolute tolerance, and the run ends on the stall.
        rows = np.eye(1, n * (n + 1) // 2)
        x = face_center(rows, np.array([b]), n)
        assert x is not None and np.linalg.eigvalsh(x)[0] > 0.0
        assert x == pytest.approx(np.diag([b, 1.0][:n]), rel=1e-12)


class TestFaceSolve:
    def test_hand_solved_minimum(self):
        # <diag(1, 2), diag(1 + w, 1 - w)> = 3 - w over -1 <= w <= 1, and
        # the dual max <rhs, y> s.t. diag(1, 2) - 𝒜*y ⪰ 0 is 2.
        sol = face_solve(np.diag([1.0, 2.0]), ROWS_2, _rhs(ROWS_2, np.eye(2)), np.eye(2))
        assert sol.value == pytest.approx(2.0, abs=1e-8)
        assert sol.x == pytest.approx(np.diag([2.0, 0.0]), abs=1e-8)
        assert _on_face(sol.x, np.eye(2), ROWS_2)
        assert _rhs(ROWS_2, np.eye(2)) @ sol.y == pytest.approx(2.0, abs=1e-8)
        slack = np.diag([1.0, 2.0]) - sum(yi * a_i for yi, a_i in zip(
            sol.y, [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)]))
        assert np.linalg.eigvalsh(slack)[0] >= -1e-9
        assert 0 < sol.iterations <= 30 and sol.error <= subsolver.FACE_TOL

    def test_empty_family(self):
        sol = face_solve(np.diag([1.0, 2.0]), np.eye(3), _rhs(np.eye(3), np.diag([3.0, 4.0])),
                         np.diag([3.0, 4.0]))
        assert sol.x == pytest.approx(np.diag([3.0, 4.0]), abs=1e-12)
        assert sol.value == pytest.approx(11.0, abs=1e-12)

    def test_non_pd_start_rejected(self):
        with pytest.raises(ValueError):
            face_solve(np.eye(2), ROWS_2, np.zeros(2), np.diag([3.0, -1.0]))

    @pytest.mark.parametrize("failing", [2, 3, 4], ids=["X", "S", "M"])
    def test_failed_factor_ends_the_run(self, failing, monkeypatch):
        # The factors are taken in the order start check, X, S, M: a failed
        # one ends the run at its best iterate so far, here the start, whose
        # error says it is not the minimum 2.
        chol, calls = subsolver._chol_or_none, []

        def fails_once(g):
            calls.append(g)
            return None if len(calls) == failing else chol(g)

        monkeypatch.setattr(subsolver, "_chol_or_none", fails_once)
        sol = face_solve(np.diag([1.0, 2.0]), ROWS_2, _rhs(ROWS_2, np.eye(2)), np.eye(2))
        assert sol.iterations == 0 and np.array_equal(sol.y, np.zeros(2))
        assert sol.x == pytest.approx(np.eye(2), abs=1e-15) and sol.value == pytest.approx(3.0)
        assert sol.error > subsolver.FACE_TOL

    def test_unbounded_face_does_not_converge(self):
        # min <diag(-1, 1), X> s.t. X₁₂ = 0 is unbounded below along
        # diag(1, 0): the iterates diverge and the error stays open.
        with np.errstate(all="ignore"):
            sol = face_solve(np.diag([-1.0, 1.0]), np.array([[0.0, 0.0, 1.0]]), np.zeros(1),
                             np.eye(2))
        assert sol.error > 1e-3

    @pytest.mark.parametrize("b", [1e7, 1e8, 1e12])
    def test_face_of_large_scale(self, b):
        # min tr X s.t. X₁₁ = b from face_center's point diag(b, 1): the
        # minimum diag(b, 0), with dual y = 1.
        rows = np.eye(1, 3)
        sol = face_solve(np.eye(2), rows, np.array([b]), face_center(rows, np.array([b]), 2))
        assert sol.error <= subsolver.FACE_TOL
        assert sol.value == pytest.approx(b, rel=1e-12) and sol.y == pytest.approx([1.0])


@pytest.mark.parametrize("seed", range(3))
def test_face_points_stay_on_the_face(seed):
    # A random face of order 5 with 6 fixed svec directions: both entry
    # points return strictly PD matrices X with rows·svec(X - s0) = 0.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((6, 15))
    s0 = np.eye(5) + 0.1 * (lambda a: a + a.T)(rng.standard_normal((5, 5)))
    assert _on_face(face_center(rows, _rhs(rows, s0), 5), s0, rows)
    sol = face_solve(np.diag(np.arange(1.0, 6.0)), rows, _rhs(rows, s0), s0)
    x, value = sol.x, sol.value
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
    "lmin-reg": ("lmin", (0, 5, 3, 2.0, False), {"reg": 1e-10}),
    "lmin-reg-1": ("lmin", (1, 5, 3, 2.0, False), {"reg": 1e-10}),
    "interior": ("interior", (0, 6, 4, 3.0, True), {}),
    "interior-2": ("interior", (2, 6, 4, 3.0, True), {}),
    "face": ("face", (0, 5, 3, 4.0, True), {}),
    "face-2": ("face", (2, 5, 3, 4.0, True), {}),
    "big-lmin-below-exits": ("lmin", (0, 10, 52, -1.0, True), {"reg": 1e-8, "stop_below": -1e-2}),
    "big-lmin-below-full": ("lmin", (0, 10, 52, 3.0, True), {"reg": 1e-8, "stop_below": -1e-2}),
    "big-interior": ("interior", (1, 10, 52, 3.0, True), {}),
}

# SHA-256 of the entry point's outputs, (w, value, newton_steps, below)
# for the λ_min cases, and LambdaMinResult.upper, with inexact centering:
# each mu round above the last ends at a Newton decrement of
# _ROUND_DECREMENT·mu, and the λ_min path shrinks mu by 0.05.  Between
# rounds the path moves to its predicted next center (Newton step, then
# the tangent carried to the stepped point), and the certificate's lower
# bound is lambda_min(S(w)) itself.  The interior and face cases give
# their family as the rows of its face (_rows): they hash what face_center
# and face_solve return.
BARRIER_GOLDEN = {
    "big-interior": (
        "e0f616eb8b810291f2a55f7cd03fee7cdfb5dc8ef050aaf954783fba2dfe67a9",
        None,
    ),
    "big-lmin-below-exits": (
        "e43db74bf41fa35819446a8d32a8b92a7746f5f405a27d9eca7fd4481d65d090",
        -0.7790658084340188,
    ),
    "big-lmin-below-full": (
        "5bb3e2cfc58993724cd513da6f07b1f044f0a1168312bb1e2aa219de0f4d1387",
        3.0547426525928936,
    ),
    "face": (
        "77cf4acbc4584811e3d858968136777dda7959092acf04106f542c9744accedf",
        None,
    ),
    "face-2": (
        "c3f9889f0e4535a8295ea2d528efdb2d2976c3d37125b8fcf013b565974ebdc2",
        None,
    ),
    "interior": (
        "b9cadb00fcc2103bcb962d9fc81a8696c1ddb271f9e8e177b1d181aec4cb1151",
        None,
    ),
    "interior-2": (
        "264278444a82ec405a0aa7528e48f424c76716e5bf5ce68d14cbc05dcf1fb4af",
        None,
    ),
    "lmin-below-exits": (
        "67071bb4c1a7d4430492e7fa919d1f75c42b64989e0e5d62ade162e04eafd35e",
        -1.424452312213677,
    ),
    "lmin-below-exits-9": (
        "d2530b1f2de59d543cda8191477a761c648ef3bc094446f84d0decf0f00da233",
        -3.716145248011147,
    ),
    "lmin-below-full": (
        "ce71db046910b1ab62dcc297e5e19076685172f8f0752506cfac874e9b81ed6d",
        0.29300103050754045,
    ),
    "lmin-below-full-5": (
        "26c4f5234d5a9146f5d8d1b5a0013f08a056d369fdf1594399a796cb0af1f17e",
        0.6534013114393146,
    ),
    "lmin-reg": (
        "bc598eed4c98fa87a39b6230f80b1b46be8157f7e383b8006d13b82842d3f459",
        np.inf,
    ),
    "lmin-reg-1": (
        "0059551ee6b482a4be36bc0c2fa2dd5ab5847ca3570f488e744e7d4901df7b41",
        np.inf,
    ),
}


def _barrier_outputs(entry, family, kwargs):
    h = hashlib.sha256()
    s0, mats = _family(*family)
    upper = None
    if entry == "lmin":
        res = maximize_lambda_min(s0, mats, **kwargs)
        out, upper = (res.w, res.value, res.newton_steps, res.below), res.upper
    elif entry == "interior":
        rows = _rows(mats, s0.shape[0])
        out = (face_center(rows, _rhs(rows, s0), s0.shape[0]),)
    else:
        obj = np.diag(np.arange(1.0, s0.shape[0] + 1))
        rows = _rows(mats, s0.shape[0])
        sol = face_solve(obj, rows, _rhs(rows, s0), s0)
        out = (sol.x, sol.y, sol.value, sol.iterations)
    for x in out:
        h.update(x.tobytes() if isinstance(x, np.ndarray) else repr(x).encode())
    return h.hexdigest(), upper


@pytest.mark.parametrize("case", sorted(BARRIER_CASES))
def test_barrier_outputs_golden(case):
    # Pins the outputs bit for bit: a change to how a step is computed
    # must leave every w, value, step count and exit decision unchanged.
    digest, upper = _barrier_outputs(*BARRIER_CASES[case])
    want_digest, want_upper = BARRIER_GOLDEN[case]
    assert digest == want_digest
    assert upper == pytest.approx(want_upper, rel=1e-12)


@pytest.mark.parametrize("family", ["diagonal", "unbounded"])
def test_one_inverse_and_certificate_test_per_iterate(family, monkeypatch):
    # max lambda_min diag(1, w - 2, 3 - w): ten mu rounds (1, 0.05, ...,
    # 1e-11), each after the first starting at the center the last one
    # predicted.  G⁻¹ is computed once per distinct iterate, the
    # certificate test at most once (never where the step solve fails),
    # and each iterate solves at least one step.  On the unbounded family
    # of seed 3 most line searches fail, and the next round solves again at
    # the same iterate, with no second inverse or test.
    inv, cert, seen = np.linalg.inv, subsolver._certificate, []

    def counted_inv(a):
        seen.append("inv")
        return inv(a)

    def recorded(s0, flat, reg, wt, g, ginv, step, decrement, mu):
        seen.append(wt.tobytes())
        return cert(s0, flat, reg, wt, g, ginv, step, decrement, mu)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(subsolver, "_certificate", recorded)
    s0, mats = (S0, FAMILY) if family == "diagonal" else _random_family(3)
    res = maximize_lambda_min(s0, mats, reg=1e-8, stop_below=-np.inf)
    iterates = [x for x in seen if x != "inv"]
    assert len(set(iterates)) == len(iterates) <= seen.count("inv") <= res.newton_steps
    if family == "diagonal":
        assert res.w == pytest.approx([2.5], abs=1e-6) and seen.count("inv") == len(iterates)
    else:
        assert seen.count("inv") < res.newton_steps


@pytest.mark.parametrize("inner", [2, 60])
def test_path_that_cannot_center_ends_within_its_rounds(inner, monkeypatch):
    # A last-round tolerance of 0 is never met, so the last of the ten mu
    # rounds (1, 0.05, ..., 1e-11) ends on its step cap or on a step that
    # makes no progress: the path returns within rounds × inner steps.
    cert, last = subsolver._certificate, []

    def recorded(s0, flat, reg, wt, g, ginv, step, decrement, mu):
        last.append(mu == subsolver._LAMBDA_MIN_MU_FINAL)
        return cert(s0, flat, reg, wt, g, ginv, step, decrement, mu)

    monkeypatch.setattr(subsolver, "_LAMBDA_MIN_TOL", 0.0)
    monkeypatch.setattr(subsolver, "_LAMBDA_MIN_INNER", inner)
    monkeypatch.setattr(subsolver, "_certificate", recorded)
    res = maximize_lambda_min(S0, FAMILY, reg=1e-10, stop_below=-np.inf)
    assert 0 < res.newton_steps <= 10 * inner and 0 < sum(last) <= inner
    assert res.w == pytest.approx([2.5], abs=1e-6)


@pytest.mark.parametrize("s0", [
    np.diag([np.inf, 1.0]), np.diag([1e309, 1e309]), np.array([[1.0, np.inf], [np.inf, 1.0]]),
])
@pytest.mark.parametrize("mats", [[], [np.eye(2)]], ids=["empty", "identity"])
def test_non_finite_start_is_refused(s0, mats):
    # A non-finite S0 gives the start a non-finite or NaN half log det,
    # whether its Cholesky factor fails or not: the run is refused, never
    # answered.
    with pytest.raises(IterationLimitError, match="diverged"):
        maximize_lambda_min(s0, mats)


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
    "lmin-below-exits": (-1.4585937801522988, True, -1.2304401435690904, -1.425028116210471),
    "lmin-below-exits-9": (-4.01324242057408, True, -2.6775826770106077, -4.011105321380441),
    "lmin-below-full": (0.29300102946432344, False, 0.2930010301084823, 0.29300102946432344),
    "lmin-below-full-5": (0.6534013100878788, False, 0.6534013460466812, 0.6534013100878788),
    "lmin-reg": (1.9597434199261252, False, np.inf, 1.9597434199261252),
    "lmin-reg-1": (-0.5112598757049011, False, np.inf, -0.5112598757049011),
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
        assert _on_face(face_center(rows, _rhs(rows, s0), s0.shape[0]), s0, rows)
    elif entry == "face":
        obj = np.diag(np.arange(1.0, s0.shape[0] + 1))
        rows = _rows(mats, s0.shape[0])
        value = face_solve(obj, rows, _rhs(rows, s0), s0).value
        assert value == pytest.approx(want, rel=1e-8)
    else:
        value, below, upper, full_value = want
        res = maximize_lambda_min(s0, mats, **kwargs)
        assert res.below == below
        if not below:
            assert res.value == pytest.approx(value, abs=1e-9)
        if "stop_below" in kwargs:
            assert full_value <= res.upper <= upper + 1e-9


@pytest.mark.parametrize("case", sorted(c for c in BARRIER_CASES if "lmin-" in c and "-exits" not in c))
def test_full_lambda_min_runs_take_few_steps(case):
    # Inexact centering and the predictor: a full λ_min path takes at most
    # 32 Newton steps on these families (18 to 23).
    _, family, kwargs = BARRIER_CASES[case]
    s0, mats = _family(*family)
    assert maximize_lambda_min(s0, mats, reg=kwargs["reg"]).newton_steps <= 32
