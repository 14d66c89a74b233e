"""Small dense barrier kernel used by the facial-reduction loop.

Everything here optimizes over an affine family of symmetric matrices

    S(w) = S0 + w_1 S_1 + ... + w_d S_d,   w in R^d,

at desk scale (matrix order and d both small).  One damped-Newton path
minimizes lin·w + (1/2)Σ reg_i w_i² - mu·log det S(w) for a decreasing
sequence of mu; the entry points differ only in the linear term, ridge,
mu schedule and stopping tolerance they give it:

  * maximize_lambda_min       — max lambda_min(S(w)): the path over (w, t)
    with the extra matrix -I (so S(w) - tI ≻ 0) and lin = (0, ..., 0, -1).
    A tiny ridge on w keeps it bounded when the supremum is +infinity.
    On request, the dual point of each iterate's Newton step,
    X = mu(G⁻¹ - G⁻¹ ΔG G⁻¹), certifies bounds on lambda_min and on ‖S‖
    at the ridged optimum, also off the central path, so a caller that
    only needs to know the optimum is below a relative tolerance band can
    end the path as soon as the bounds say so.
  * interior_point            — phase 1 on the λ_min path, then one
    centering at mu = 1, lin = 0 toward the regularized analytic center.
  * minimize_linear_over_face — min <obj, S(w)>, with lin_i = <obj, S_i>.

The two face entry points take the face {X : rows·svec(X - S0) = 0} as a
point S0 and its svec constraint rows, and return matrices.  Each builds
the family once, as the smat of the rows' null basis (null_basis) in one
(k, n, n) stack (model.smat_stack), which interior_point gives a k + 1-th
slot, the λ_min path's -I, so its phase 1 and its centering share one
stack.

Every mu but the last is centered only inexactly, to a Newton decrement
of at most 0.25·mu; the last is centered to the caller's tolerance.
Between two mu the path predicts the next center (Nesterov & Nemirovski,
Interior-Point Polynomial Algorithms in Convex Programming, 1994; the
predictor–corrector idea of Mehrotra, SIAM J. Optim. 1992): on the path
lin + reg·w - mu·trs(w) = 0, so the tangent is dw/dmu = H⁻¹·trs, and the
solve that gives each Newton step gives it too.  The round's last, untaken
Newton step corrects w, and the tangent, carried to the corrected point
by one more solve with the same Hessian, moves it to the new mu.  The
correction matters: without it the directions in which S(w) is only weakly
curved stay off center by up to (mu/curvature)^½, which the 0.25·mu
decrement allows, and the Newton steps along them at small mu are too
long for the certificate's dual point to be computed accurately.  The
path does its per-iterate work once per accepted iterate, not once per
Newton step: the line search's Cholesky factor gives the merit value,
and one inverse gives G⁻¹ = S(w)⁻¹ and the traces <S_i, G⁻¹> that every
step at that iterate shares, also when a new mu round starts there; the
stop test runs once per iterate, before its first step, and has that
step solved only if it needs it.  The Hessian is assembled a few columns
per matrix product.  Each mu round takes at most ``inner`` Newton steps,
so a run is bounded by its mu rounds × ``inner`` (the λ_min path: 10
rounds × 60) and needs no separate step budget.  All iterations are
deterministic: fixed starting points, fixed step rules, no randomization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import smat_stack

# Singular values at or below NULL_RANK_CUT·max(σ_max, 1) count as zero
# when a null-space basis is taken.
NULL_RANK_CUT = 1e-12

# Fixed accuracies: the last mu of the λ_min path, the ridge and tolerance of
# interior_point's centering, the ridge and last mu of the face minimization.
_LAMBDA_MIN_MU_FINAL = 1e-11
_CENTER_REG, _CENTER_TOL = 1e-9, 1e-8
_FACE_REG, _FACE_MU_FINAL = 1e-10, 1e-9
# Inexact centering: every mu round but the last ends once the Newton
# decrement is at most _ROUND_DECREMENT·mu.
_ROUND_DECREMENT = 0.25
# Hessian columns per matrix product: a larger block means fewer products
# but a larger (block, n, n) temporary.
_HESS_BLOCK = 4


class IterationLimitError(RuntimeError):
    """No verdict: an iterate left the PSD cone, the iterates diverged, or
    an optimum lies inside the tolerance band (facial.solve_alternative).
    No step budget raises it: every run is bounded by its mu rounds ×
    ``inner`` steps."""


def _chol_or_none(g: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None


@dataclass
class LambdaMinResult:
    """Outcome of maximize_lambda_min.

    ``value`` is lambda_min(S(w)) at the returned w, the level the path
    reached: within ~n·mu of the optimum after a full run, lower after an
    early exit.  ``upper`` is a certified bound on lambda_min at the ridged
    optimum (see maximize_lambda_min); it is +inf unless ``stop_below``
    was given and reg > 0 (or the family is empty).  ``below`` is True
    when the run ended on ``stop_below``.
    """

    w: np.ndarray
    value: float
    upper: float
    newton_steps: int
    below: bool = False


def _stack(mats: Sequence[np.ndarray], n: int, extra: int = 0) -> np.ndarray:
    """The family as one (d + extra, n, n) array; trailing slots are zero."""
    fam = np.zeros((len(mats) + extra, n, n))
    for i, m in enumerate(mats):
        fam[i] = m
    return fam


def null_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the nullspace of rows.  It owns
    its memory: the SVD factor it is cut from is not kept alive."""
    if rows.shape[0] == 0:
        return np.eye(rows.shape[1])
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > max(s[0], 1.0) * NULL_RANK_CUT)) if s.size else 0
    return vt[rank:].copy().T


def _barrier_path(
    s0: np.ndarray, fam: np.ndarray, lin: np.ndarray, reg: float | np.ndarray,
    w: np.ndarray, *, mu: float, mu_final: float, shrink: float, inner: int,
    tol: float, c0: float = 0.0, stop: Optional[Callable[..., bool]] = None,
) -> tuple[np.ndarray, int]:
    """Damped Newton on lin·w + (1/2)Σ reg_i w_i² - mu·log det S(w), with
    S(w) = s0 + Σ w_i fam[i], for mu, mu·shrink, ... down to mu_final.

    Each mu gets at most ``inner`` steps and ends once the Newton decrement
    is at most tol·(1 + |c0 + lin·w|), or at most _ROUND_DECREMENT·mu while
    mu > mu_final, or when the line search fails or its step rounds to w.
    So only the last mu is centered to tol; an earlier one ends once
    (decrement/mu)^½ ≤ 1/2.  A round that ends so moves w to the
    predicted center at the next mu, w + Δw + (mu_new - mu)·(tau + Δtau):
    Δw the Newton step just solved, tau = H⁻¹·trs the tangent from the
    same solve and Δtau its first-order change along Δw.  The move is halved until S(w) ≻ 0;
    one that rounds to w leaves w, G⁻¹ and the stop test's verdict as they
    are, so the next round solves again at the same iterate.
    ``stop`` is called once per iterate, before its first step, as
    stop(w, G, G⁻¹, trs, mu, newton) with G = S(w), trs = (<fam[i], G⁻¹>)_i
    and newton() the (step, decrement) of that first step, or None when its
    solve fails; newton() solves on its first call only, so a stop test
    that needs no step costs none.  It ends the path when it returns True.
    A predicted point is an iterate like any other: stop sees it at the new
    mu, before the round's first step.  Returns (w, Newton steps taken),
    counting one per Hessian assembled.
    """
    k = fam.shape[0]
    flat = fam.reshape(k, s0.size)

    def factor(v: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray], float]:
        """S(v), its Cholesky factor (None outside the cone), log det S(v) / 2."""
        g = s0 + (v @ flat).reshape(s0.shape)
        l = _chol_or_none(g)
        return g, l, np.nan if l is None else float(np.log(l.diagonal()).sum())

    def merit(v: np.ndarray, half_logdet: float) -> float:
        return float(lin @ v + 0.5 * (reg * v) @ v) - 2.0 * mu * half_logdet

    g, l, half_logdet = factor(w)
    if l is None:
        raise IterationLimitError("barrier iterate left the PSD cone")
    steps, ginv, memo, tangent = 0, None, [], None

    def newton() -> Optional[tuple[np.ndarray, float]]:
        """The Newton step at w for this mu and its decrement, solved at
        most once per step; None when the solve fails.  The same solve
        leaves the path tangent H⁻¹·trs and the Hessian in ``tangent``."""
        nonlocal steps, tangent
        if not memo:
            steps += 1
            # Drop the last step's Hessian before assembling this one.
            tangent, hess = None, np.empty((k, k))
            # H_ij = mu·<S_i, G^{-1} S_j G^{-1}> is filled _HESS_BLOCK
            # columns at a time: a (_HESS_BLOCK, n, n) temporary, not a
            # (k, n, n) one.
            grad = lin + reg * w - mu * trs
            for j in range(0, k, _HESS_BLOCK):
                blk = ginv @ fam[j:j + _HESS_BLOCK] @ ginv
                hess[:, j:j + _HESS_BLOCK] = flat @ blk.reshape(len(blk), -1).T
            hess *= mu
            hess.flat[::k + 1] += reg + 1e-14
            try:
                sol = np.linalg.solve(hess, np.stack([-grad, trs], axis=1))
            except np.linalg.LinAlgError:
                memo.append(None)
            else:
                memo.append((sol[:, 0], float(-grad @ sol[:, 0])))
                tangent = sol[:, 1], hess
        return memo[0]

    def predicted(step: np.ndarray, mu_new: float) -> np.ndarray:
        """The center at mu_new predicted from w: w + step, then
        (mu_new - mu) along the tangent there, tau + Δtau to first order."""
        tau, hess = tangent
        # tau = H⁻¹·trs with trs = -∇F, H = mu·∇²F + reg, F = -log det S(w),
        # so Δtau = -H⁻¹(∇²F·step + mu·∇³F[step]·tau).  With ΔG = Σ step_i S_i,
        # U = G⁻¹ ΔG G⁻¹ and V = U·(Σ tau_i S_i)·G⁻¹, those two terms are
        # (<S_i, U>)_i and -(<S_i, V + Vᵀ>)_i.
        u = ginv @ (step @ flat).reshape(s0.shape) @ ginv
        v = u @ (tau @ flat).reshape(s0.shape) @ ginv
        dtau = np.linalg.solve(hess, flat @ (mu * (v + v.T) - u).ravel())
        return w + step + (mu_new - mu) * (tau + dtau)

    while True:
        # The merit of each accepted point is the next step's f0; only a
        # new mu needs it recomputed.
        f0 = merit(w, half_logdet)
        centered = None
        for _ in range(inner):
            memo.clear()
            # Once per iterate, however many mu rounds start at it: the
            # finite check, G^{-1} from the Cholesky factor, the traces
            # <fam[i], G^{-1}> and the stop test.
            if ginv is None:
                # For symmetric G, Cholesky fails on a non-finite entry or
                # leaves a non-finite diagonal.
                if not math.isfinite(half_logdet):
                    raise IterationLimitError("barrier iterate diverged (objective unbounded?)")
                # G^{-1} = L^{-T} L^{-1}, without holding L^{-1} after.
                ginv = np.linalg.inv(l)
                ginv = ginv.T @ ginv
                trs = flat @ ginv.ravel()
                if stop is not None and stop(w, g, ginv, trs, mu, newton):
                    return w, steps
            solved = newton()
            if solved is None:
                break
            step, decrement = solved
            if decrement <= tol * (1.0 + abs(c0 + float(lin @ w))) or (
                    mu > mu_final and decrement <= _ROUND_DECREMENT * mu):
                centered = step
                break
            # Backtracking line search keeping the iterate interior.
            alpha = 1.0
            for _ in range(50):
                w_new = w + alpha * step
                g_new, l_new, half_logdet_new = factor(w_new)
                if l_new is not None:
                    f_new = merit(w_new, half_logdet_new)
                    if f_new <= f0 - 0.25 * alpha * decrement:
                        break
                alpha *= 0.5
            else:
                break
            # A step that rounds to w makes no progress (and w keeps G⁻¹).
            if (w_new == w).all():
                break
            w, g, l, half_logdet, f0, ginv = w_new, g_new, l_new, half_logdet_new, f_new, None
        if mu <= mu_final:
            return w, steps
        mu_new = max(mu * shrink, mu_final)
        # Predictor: a round that ended centered moves to the predicted
        # center at mu_new, halving the move until S(w) ≻ 0.  A move that
        # rounds to w keeps w and G⁻¹.
        if centered is not None:
            w_new = predicted(centered, mu_new)
            for _ in range(50):
                if (w_new == w).all():
                    break
                g_new, l_new, half_logdet_new = factor(w_new)
                if l_new is not None:
                    w, g, l, half_logdet, ginv = w_new, g_new, l_new, half_logdet_new, None
                    break
                w_new = 0.5 * (w + w_new)
        mu = mu_new


def maximize_lambda_min(
    s0: np.ndarray,
    mats: Sequence[np.ndarray],
    *,
    reg: float = 0.0,
    stop_above: Optional[float] = None,
    stop_below: Optional[float] = None,
) -> LambdaMinResult:
    """Maximize lambda_min(S(w)) over w, to roughly n·_LAMBDA_MIN_MU_FINAL accuracy.

    ``reg`` adds (reg/2)·‖w‖² to the barrier objective; use a tiny value
    whenever the supremum may be unbounded.  ``stop_above`` ends the run
    early once lambda_min exceeds the given level (phase-1 use).
    ``stop_below`` is a relative level, the scale of a tolerance band: the
    run ends once lambda_min(S(w*)) < stop_below·max(1, ‖S(w*)‖_F) is
    certified at the ridged optimum w* = argmax f, with
    f(w) = lambda_min(S(w)) - (reg/2)‖w‖².  An exited run's ``value`` is
    then less accurate, and ``below`` is set.

    The certificate, at an iterate x = (w, t) with G = S(w) - tI ≻ 0 and
    the Newton step (Δw, Δt) of the path at mu, ΔG = Σ Δw_i S_i - Δt·I:
      * X = mu(G⁻¹ - G⁻¹ ΔG G⁻¹) is the step's dual point (Boyd &
        Vandenberghe, Convex Optimization, 2004, §11.2.2).  The Newton
        equations give tr X = 1 and <S_i, X> = reg·(w + Δw)_i, up to the
        Hessian's 1e-14 diagonal shift.  X = mu·G^{-½}(I - M)G^{-½} with
        M = G^{-½} ΔG G^{-½}, so X ⪰ 0 when ‖M‖_F < 1; the certificate is
        used only when ‖M‖_F² = tr((G⁻¹ΔG)²) ≤ 1/4, and tr X and
        a_i = <S_i, X>/tr X are read from X itself, so rounding cannot
        break weak duality.
      * X/tr X is PSD of unit trace, so lambda_min(S(w')) ≤ <S(w'), X>/tr X
        for every w', and f* ≤ f_up = <S0, X>/tr X + ‖a‖²/(2·reg).  Also
        f* ≥ f_lo = f(w) = t + lambda_min(G) - (reg/2)‖w‖², up to the
        rounding of eigvalsh (t + 1/tr(G⁻¹) is looser by up to (n - 1)·mu
        where G has several small eigenvalues, as at the well-centered
        iterates of a large mu).  Off the central path a stays near
        reg·(w + Δw), so the ‖a‖² term stays small, where G⁻¹/tr(G⁻¹)
        would inflate it to order 1/reg.
      * f is reg-strongly concave, so ‖w* - w‖ ≤ rho = (2(f_up - f_lo)/reg)^½
        and lambda_min(S(w*)) ≤ upper = f_up + (reg/2)(‖w‖ + rho)².
      * The radius (Nesterov, Introductory Lectures on Convex Optimization,
        2004, §4.1–4.2).  F = -log det G is an n-self-concordant barrier in
        x, and the path minimizes the self-concordant phi = q/mu + F, with
        q = -t + (reg/2)‖w‖².  Its Newton decrement at x is
        lam = (decrement/mu)^½.  For lam < 1 the mu-center x_mu lies within
        delta = lam/(1 - lam) of x in phi's local norm at x (§4.1), hence
        in F's, which is smaller.  The optimum y = (w*, t*), t* =
        lambda_min(S(w*)), has <F'(x_mu), y - x_mu> = -<q'(x_mu), y - x_mu>/mu
        ≥ (q(x_mu) - q(y))/mu ≥ 0, so ‖y - x_mu‖ ≤ n + 2√n in F's local norm
        at x_mu, the ν + 2√ν bound of §4.2 with ν = n.  For delta < 1,
        F''(x_mu) ⪰ (1 - delta)²F''(x) (§4.1), so y lies within
        r = (n + 2√n)/(1 - delta) + delta of x in F's local norm at x,
        which is ‖G^{-½}(G(y) - G)G^{-½}‖_F.
        Hence ‖G(y) - G‖_F ≤ r·‖G‖_F and ‖S(w*)‖_F ≤ (1 + r)‖G‖_F +
        √n·max(|f_lo|, |upper|).  delta < 1 needs lam < 1/2, which the
        certificate checks next to ‖M‖_F ≤ 1/2 (‖M‖_F² ≤ lam², up to the
        1e-14 shift and rounding).
    On the central path f_up - f_lo ≤ (n - 1)·mu or so, so the certificate
    closes as mu falls; a clearly negative optimum exits long before
    mu_final.  Only w* is certified: a run that has not exited ends near
    w*, not at it.
    """
    fam = _stack(mats, s0.shape[0], extra=1)
    np.fill_diagonal(fam[len(mats)], -1.0)
    return _lambda_min_path(s0, fam, reg, stop_above, stop_below)


def _lambda_min_path(
    s0: np.ndarray, fam: np.ndarray, reg: float,
    stop_above: Optional[float], stop_below: Optional[float],
) -> LambdaMinResult:
    """maximize_lambda_min on fam, the (d + 1, n, n) stack of the family
    whose last slot is -I."""
    d = fam.shape[0] - 1
    n = s0.shape[0]
    flat = fam.reshape(d + 1, n * n)
    certify = stop_below is not None and (reg > 0.0 or d == 0)
    upper, below = np.inf, False

    def stop(wt, g, ginv, trs, mu, newton) -> bool:
        nonlocal upper, below
        if stop_above is not None and wt[d] > stop_above:
            return True
        if not certify:
            return False
        solved = newton()
        if solved is None:
            return False
        step, decrement = solved
        # A negative decrement is a step solve lost to rounding.
        lam2 = decrement / mu
        if not 0.0 <= lam2 < 0.25:
            return False
        gdg = ginv @ (step @ flat).reshape(n, n)
        if float(np.vdot(gdg, gdg.T)) > 0.25:
            return False
        x = mu * (ginv - gdg @ ginv)
        x /= np.trace(x)
        a = flat[:d] @ x.ravel()
        w, t = wt[:d], float(wt[d])
        ww = float(w @ w)
        f_up = float(s0.ravel() @ x.ravel())
        # f(w) exactly: lambda_min(S(w)) = t + lambda_min(G).
        f_lo = t + float(np.linalg.eigvalsh(g)[0]) - 0.5 * reg * ww
        rho = 0.0
        if d:
            f_up += float(a @ a) / (2.0 * reg)
            rho = math.sqrt(2.0 * max(f_up - f_lo, 0.0) / reg)
        bound = f_up + 0.5 * reg * (math.sqrt(ww) + rho) ** 2
        lam = math.sqrt(lam2)
        delta = lam / (1.0 - lam)
        r = (n + 2.0 * math.sqrt(n)) / (1.0 - delta) + delta
        scale = (1.0 + r) * math.sqrt(np.vdot(g, g)) + math.sqrt(n) * max(abs(f_lo), abs(bound))
        upper = min(upper, bound)
        below = bound < stop_below * max(1.0, scale)
        return below

    t0 = float(np.linalg.eigvalsh(s0)[0]) - max(1.0, 0.1 * float(np.linalg.norm(s0)))
    wt, steps = _barrier_path(
        s0, fam, np.append(np.zeros(d), -1.0), np.append(np.full(d, reg), 0.0),
        np.append(np.zeros(d), t0),
        mu=1.0, mu_final=_LAMBDA_MIN_MU_FINAL, shrink=0.05, inner=60, tol=1e-13,
        stop=None if stop_above is None and not certify else stop,
    )
    w = wt[:d]
    value = float(np.linalg.eigvalsh(s0 + np.tensordot(w, fam[:d], 1))[0])
    return LambdaMinResult(w=w, value=value, upper=upper, newton_steps=steps, below=below)


def interior_point(s0: np.ndarray, rows: np.ndarray) -> Optional[np.ndarray]:
    """A strictly PD matrix of the face {X : rows·svec(X - s0) = 0}, or None
    if it has none to tolerance.

    The face is s0 plus the span of smat of the null basis of ``rows``,
    held once, as a (k + 1, n, n) stack whose last slot is the -I of the
    λ_min path.  Phase 1 maximizes lambda_min on it; on success the point
    is polished toward the regularized analytic center,
    min -log det S(w) + (_CENTER_REG/2)‖w‖², on the stack's first k slots.
    """
    fam = smat_stack(null_basis(rows), s0.shape[0], extra=1)
    k = fam.shape[0] - 1
    np.fill_diagonal(fam[k], -1.0)
    face = fam[:k]
    scale = 1.0 + float(np.linalg.norm(s0)) + sum(float(np.linalg.norm(m)) for m in face)
    phase1 = _lambda_min_path(s0, fam, 1e-10, 0.05 * scale, None)
    if phase1.value <= 1e-10 * scale:
        return None
    w, _ = _barrier_path(
        s0, face, np.zeros(k), _CENTER_REG, phase1.w,
        mu=1.0, mu_final=1.0, shrink=1.0, inner=120, tol=_CENTER_TOL * _CENTER_TOL,
    )
    return s0 + sum(wi * f for wi, f in zip(w, face))


def minimize_linear_over_face(
    obj: np.ndarray, x_start: np.ndarray, rows: np.ndarray,
) -> tuple[np.ndarray, float]:
    """min <obj, X> over the face {X ⪰ 0 : rows·svec(X - x_start) = 0} by a
    short barrier path.

    Requires x_start ≻ 0.  The face is held once, as the (k, n, n) stack
    of smat of the null basis of ``rows``.  The ridge term
    (_FACE_REG/2)‖w‖² bounds the path when the feasible set or objective
    is unbounded; accuracy is O(n·_FACE_MU_FINAL + _FACE_REG·‖w*‖²), enough
    for the 1e-6 value tolerances used by the golden checks.  Returns the
    last iterate X and its objective value.
    """
    obj = np.asarray(obj, dtype=float)
    if _chol_or_none(x_start) is None:
        raise ValueError("minimize_linear_over_face requires a strictly feasible start")
    fam = smat_stack(null_basis(rows), x_start.shape[0])
    k = fam.shape[0]
    const = float(np.sum(obj * x_start))
    lin = fam.reshape(k, x_start.size) @ obj.ravel()
    w, _ = _barrier_path(
        x_start, fam, lin, _FACE_REG, np.zeros(k),
        mu=max(1.0, float(np.abs(lin).sum())), mu_final=_FACE_MU_FINAL, shrink=0.15,
        inner=80, tol=1e-12, c0=const,
    )
    return x_start + np.tensordot(w, fam, 1), const + float(lin @ w)
