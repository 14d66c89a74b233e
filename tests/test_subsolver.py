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

    def test_stop_above_exit_solves_no_step(self):
        # The level is tested before the iterate's step is solved: this
        # family reaches it after 8 steps, so a budget of 8 still exits.
        s0, mats = _family(0, 5, 3, 2.0, False)
        res = maximize_lambda_min(s0, mats, reg=1e-10, stop_above=0.1, max_iter=8)
        assert res.newton_steps == 8 and res.value > 0.1
        with pytest.raises(IterationLimitError):
            maximize_lambda_min(s0, mats, reg=1e-10, stop_above=0.1, max_iter=7)

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
# outputs (w, value, newton_steps, below), and LambdaMinResult.upper, with
# inexact centering: each mu round above the last ends at a Newton
# decrement of _ROUND_DECREMENT·mu, and the λ_min path shrinks mu by 0.05.
# A stop_above exit solves no step at its iterate.
BARRIER_GOLDEN = {
    "big-interior": (
        "1909e4cde69da25f97ac0c64700e0bb7c37fa5d6051abb63a661cbe80931ddc7",
        None,
    ),
    "big-lmin-below-exits": (
        "1d9c5513070b6874f9e9885dc727c72f36aeab9569b8a701ad2cf853267bdde5",
        -0.9213814446567994,
    ),
    "big-lmin-below-full": (
        "3cfb48a6c87fe2d8c6e9f6b7e2b26333bc1f91e9cc17ff36c063ee0be82acd4d",
        3.0547426536518527,
    ),
    "face": (
        "f694d71d09f64de2cec4904be2c51fd11f15b23ed8b9e00d5594b64bd1eb0783",
        None,
    ),
    "face-2": (
        "3072335c834d4b5f6f4f28ea45ab2b4a705cdc281c04be31a71792eeca82a07c",
        None,
    ),
    "interior": (
        "98ca00c72538b3a4f7c7a49fb4b1bfcae0f17f7d2002e8e14392204e8f921948",
        None,
    ),
    "interior-2": (
        "14605b91027f9c253058ce8b02947bda24a6b332e3ca0f43786665feb0c09a7d",
        None,
    ),
    "lmin-above-exits": (
        "b10843662e42b234eabc4dd86f1e5695cb137471443a69e3bfada04d6a139b15",
        np.inf,
    ),
    "lmin-above-full": (
        "31a26f53eabf6b5b178fa92f497801ba92f817551ed4d44a8401913ffe543b3b",
        np.inf,
    ),
    "lmin-below-exits": (
        "63f6908593b97635fa60c91c92e8bfe7fb60c2fcdf17d9aba5191074a4a37e00",
        -1.424418997611973,
    ),
    "lmin-below-exits-9": (
        "49885ce543145be0d6e7186e7e0c27aa374c20619a8a553003b32d34cdac19b1",
        -3.9961110942162756,
    ),
    "lmin-below-full": (
        "0dfe752abc7a3eca3e43915b8b9d0e8477c7406c0dc4b49a6abb38a0728d67fd",
        0.2930010305075382,
    ),
    "lmin-below-full-5": (
        "dbe78445abf4daa0f4b064a1d2ea95f07c61a9767c696c7d26d9e903e2fd3898",
        0.6534013114836241,
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

    def stop(w, g, ginv, trs, mu, newton):
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
        w = interior_point(s0, mats)
        assert np.linalg.eigvalsh(s0 + np.tensordot(w, np.array(mats), 1))[0] > 0.0
    elif entry == "face":
        obj = np.diag(np.arange(1.0, s0.shape[0] + 1))
        _, value = minimize_linear_over_face(obj, s0, mats, np.zeros(len(mats)))
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
    # Inexact centering: a full λ_min path takes at most 50 Newton steps on
    # these families (110 to 113 with every mu centered to tol).
    _, family, kwargs = BARRIER_CASES[case]
    s0, mats = _family(*family)
    assert maximize_lambda_min(s0, mats, reg=kwargs["reg"]).newton_steps <= 50
