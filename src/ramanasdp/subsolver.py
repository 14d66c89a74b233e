"""Small dense interior-point kernels used by the facial-reduction loop.

The λ_min path.  maximize_lambda_min, the λ_min search of
facial.solve_alternative, optimizes over an affine family of symmetric
matrices

    S(w) = S0 + w_1 S_1 + ... + w_d S_d,   w in R^d,

at desk scale (matrix order and d both small) by one damped-Newton loop
over x = (w, t) with G = S(w) - tI ≻ 0: it minimizes
-t + (1/2)Σ reg·w_i² - mu·log det G for a decreasing sequence of mu.  A
tiny ridge on w keeps it bounded when the supremum is +infinity.  On
request, the dual point of each iterate's Newton step certifies bounds
on lambda_min and on ‖S‖ at the ridged optimum, also off the central path
(_certificate), so a caller that only needs to know the optimum is below
a relative tolerance band can end the path as soon as the bounds say so.

Every mu but the last is centered only inexactly, to a Newton decrement of
at most 0.25·mu; the last is centered to 1e-13.  Between two mu the path
predicts the next center (Nesterov & Nemirovski, Interior-Point Polynomial
Algorithms in Convex Programming, 1994; the predictor–corrector idea of
Mehrotra, SIAM J. Optim. 1992): the center at mu has lin +
reg·x = mu·trs(x), lin·x = -t and trs = (<S_i, G⁻¹>)_i with S_{d+1} = -I,
so the tangent dx/dmu = H⁻¹·trs comes from the solve that gives each Newton
step.  The round's last, untaken Newton step corrects x, and the tangent,
carried to the corrected point by one more solve with the same Hessian,
moves it to the new mu.  The correction matters: without it the directions
in which S(w) is only weakly curved stay off center by up to
(mu/curvature)^½, which the 0.25·mu decrement allows, and the Newton steps
along them at small mu are too long for the certificate's dual point to be
computed accurately.  The path does its per-iterate work once per accepted
iterate, not once per Newton step: the line search's Cholesky factor gives
the merit value, and one inverse gives G⁻¹ and the traces <S_i, G⁻¹> that
every step at that iterate shares, also when a new mu round starts there.
Each step is solved once, up front, and the certificate reads the first
step of each iterate.  The Hessian is assembled a few columns per matrix
product.  Each mu round takes at most 60 Newton steps, so a run is bounded
by its 10 mu rounds × 60 steps and needs no separate step budget.

The face kernels.  The reduced face of an RR form,
{X ⪰ 0 : rows·svec(X) = rhs}, is strictly feasible and has few rows, so
both face entry points work in the rows' range space, never in their null
space: they orthonormalize the rows once by a thin SVD (cut at
NULL_RANK_CUT), hold the face's operator as the (m', n, n) stack of the
smat of those rows, and solve m' × m' systems only.

  * face_center — argmin tr X - log det X on the face, by Newton's method
    on its m'-dimensional dual, max log det(I - 𝒜*λ) + <rhs, λ>, where
    X = (I - 𝒜*λ)⁻¹ and the Hessian is tr(A_k X A_l X).  Steps are damped
    to 1/(1 + √dec) while √dec ≥ 1/4 and full after that, the rule that a
    self-concordant function's Newton method needs no line search for
    (Nesterov, Introductory Lectures on Convex Optimization, 2004, §4.1.5).
  * face_solve — min <obj, X> on the face by an infeasible-start
    primal–dual path with the HKM direction (Helmberg, Rendl, Vanderbei &
    Wolkowicz, SIAM J. Optim. 1996): the Schur matrix
    M_kl = tr(A_k X A_l S⁻¹) is factored by Cholesky once per iteration;
    an affine predictor sets the centering σ = (mu_aff/mu)³ (Mehrotra
    1992), and the corrector takes 0.95 of the step to the boundary.

Both return their X projected back onto the face through the orthonormal
rows, so the face's equations hold to rounding.  All iterations are
deterministic: fixed starting points, fixed step rules, no randomization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import smat_stack

# Singular values at or below NULL_RANK_CUT·max(σ_max, 1) count as zero
# when a null-space basis or a row space is taken (svd_rank).
NULL_RANK_CUT = 1e-12

# The λ_min path: its first and last mu, the factor between two mu, the
# Newton steps a mu round may take and the last round's tolerance.
_LAMBDA_MIN_MU, _LAMBDA_MIN_MU_FINAL, _LAMBDA_MIN_SHRINK = 1.0, 1e-11, 0.05
_LAMBDA_MIN_INNER, _LAMBDA_MIN_TOL = 60, 1e-13
# face_center ends once the square root of its Newton decrement is at most
# _CENTER_ROOT_DEC, and fails after _CENTER_STEPS steps.
_CENTER_ROOT_DEC, _CENTER_STEPS = 1e-10, 200
# face_solve ends once its relative gap and residuals are at most FACE_TOL,
# or after _FACE_STEPS iterations; each iterate takes _FACE_STEP_FRACTION of
# its step to the boundary of the cone.
FACE_TOL, _FACE_STEPS, _FACE_STEP_FRACTION = 1e-9, 100, 0.95
# Inexact centering: every mu round but the last ends once the Newton
# decrement is at most _ROUND_DECREMENT·mu.
_ROUND_DECREMENT = 0.25
# Hessian columns per matrix product: a larger block means fewer products
# but a larger (block, n, n) temporary.
_HESS_BLOCK = 4


class IterationLimitError(RuntimeError):
    """No verdict: the λ_min iterates diverged, or an optimum lies inside
    the tolerance band (facial.solve_alternative).
    No step budget raises it: every run is bounded by its mu rounds ×
    _LAMBDA_MIN_INNER steps."""


def svd_rank(s: np.ndarray) -> int:
    """The numerical rank of a matrix with descending singular values s:
    the count above NULL_RANK_CUT·max(σ_max, 1)."""
    return int(np.sum(s > max(s[0], 1.0) * NULL_RANK_CUT)) if s.size else 0


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
    optimum (see _certificate); it is +inf unless ``stop_below``
    was given and reg > 0 (or the family is empty).  ``below`` is True
    when the run ended on ``stop_below``.
    """

    w: np.ndarray
    value: float
    upper: float
    newton_steps: int
    below: bool = False


def _certificate(
    s0: np.ndarray, flat: np.ndarray, reg: float, wt: np.ndarray, g: np.ndarray,
    ginv: np.ndarray, step: np.ndarray, decrement: float, mu: float,
) -> Optional[tuple[float, float]]:
    """(upper, scale): a bound on lambda_min(S(w*)) at the ridged optimum w*
    and the scale it is compared at, from the λ_min path's iterate
    wt = (w, t) at mu, G = S(w) - tI = g, G⁻¹ = ginv, the family and -I as
    the rows of flat, and the iterate's Newton step and decrement; None
    when the step cannot certify.

    With ΔG = Σ Δw_i S_i - Δt·I for the step (Δw, Δt):
      * X = mu(G⁻¹ - G⁻¹ ΔG G⁻¹) is the step's dual point (Boyd &
        Vandenberghe, Convex Optimization, 2004, §11.2.2).  The Newton
        equations give tr X = 1 and <S_i, X> = reg·(w + Δw)_i, up to the
        Hessian's 1e-14 diagonal shift.  X = mu·G^{-½}(I - M)G^{-½} with
        M = G^{-½} ΔG G^{-½}, so X ⪰ 0 when ‖M‖_F < 1; the certificate is
        used only when ‖M‖_F² = tr((G⁻¹ΔG)²) ≤ 1/4, and tr X and
        a_i = <S_i, X>/tr X are read from X itself, so rounding cannot
        break weak duality.
      * X/tr X is PSD of unit trace, so lambda_min(S(w')) ≤ <S(w'), X>/tr X
        for every w', and f* ≤ f_up = <S0, X>/tr X + ‖a‖²/(2·reg), with
        f(w) = lambda_min(S(w)) - (reg/2)‖w‖² and f* = f(w*).  Also
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
        x = (w, t), and the path minimizes the self-concordant phi = q/mu + F,
        with q = -t + (reg/2)‖w‖².  Its Newton decrement at x is
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
        √n·max(|f_lo|, |upper|) = scale.  delta < 1 needs lam < 1/2, which
        is checked next to ‖M‖_F ≤ 1/2 (‖M‖_F² ≤ lam², up to the 1e-14
        shift and rounding).
    On the central path f_up - f_lo ≤ (n - 1)·mu or so, so the bound
    closes as mu falls.
    """
    n, d = s0.shape[0], len(flat) - 1
    # A negative decrement is a step solve lost to rounding.
    lam2 = decrement / mu
    if not 0.0 <= lam2 < 0.25:
        return None
    gdg = ginv @ (step @ flat).reshape(n, n)
    if float(np.vdot(gdg, gdg.T)) > 0.25:
        return None
    x = mu * (ginv - gdg @ ginv)
    x /= np.trace(x)
    a = flat[:d] @ x.ravel()
    w, t = wt[:d], float(wt[d])
    ww = float(w @ w)
    f_up = float(s0.ravel() @ x.ravel())
    # f(w) exactly: lambda_min(S(w)) = t + lambda_min(G).
    f_lo = t + float(np.linalg.eigvalsh(g)[0]) - 0.5 * reg * ww
    f_up += float(a @ a) / (2.0 * reg)
    rho = math.sqrt(2.0 * max(f_up - f_lo, 0.0) / reg)
    bound = f_up + 0.5 * reg * (math.sqrt(ww) + rho) ** 2
    lam = math.sqrt(lam2)
    delta = lam / (1.0 - lam)
    r = (n + 2.0 * math.sqrt(n)) / (1.0 - delta) + delta
    return bound, (1.0 + r) * math.sqrt(np.vdot(g, g)) + math.sqrt(n) * max(abs(f_lo), abs(bound))


def maximize_lambda_min(
    s0: np.ndarray,
    mats: Sequence[np.ndarray],
    *,
    reg: float = 0.0,
    stop_below: Optional[float] = None,
) -> LambdaMinResult:
    """Maximize lambda_min(S(w)) over w, to roughly n·_LAMBDA_MIN_MU_FINAL accuracy.

    ``reg`` adds (reg/2)·‖w‖² to the barrier objective; use a tiny value
    whenever the supremum may be unbounded.  ``stop_below`` is a relative
    level, the scale of a tolerance band: the run ends once
    lambda_min(S(w*)) < stop_below·max(1, ‖S(w*)‖_F) is certified at the
    ridged optimum w* = argmax lambda_min(S(w)) - (reg/2)‖w‖², which needs
    reg > 0 or an empty family.  An exited run's ``value`` is then less
    accurate, and ``below`` is set.  Only w* is certified: a run that has
    not exited ends near w*, not at it.  An empty family takes no path and
    no Newton step: ``value`` is lambda_min(S0), and so is ``upper`` when
    ``stop_below`` is given.

    The path (see the module docstring) starts at w = 0,
    t = lambda_min(S0) - max(1, 0.1‖S0‖_F) and runs mu from _LAMBDA_MIN_MU
    down to _LAMBDA_MIN_MU_FINAL by the factor _LAMBDA_MIN_SHRINK.  Each mu
    gets at most _LAMBDA_MIN_INNER steps and ends once the Newton decrement
    is at most _LAMBDA_MIN_TOL·(1 + |t|), or at most _ROUND_DECREMENT·mu
    while mu > mu_final, or when the step solve or the line search fails or
    the step rounds to x = (w, t).  A round that ends centered moves x to
    the predicted next center x + Δx + (mu_new - mu)·(tau + Δtau), Δx the
    step just solved, tau = H⁻¹·trs the tangent from the same solve and
    Δtau its first-order change along Δx, halving the move until G ≻ 0; a
    move that rounds to x keeps x and G⁻¹, so the next round solves again
    at the same iterate.  With ``stop_below`` the first step at each
    iterate, a predicted one included, goes to _certificate, and ``upper``
    is the least bound it gave.  ``newton_steps`` counts the Hessians
    assembled.
    """
    d, n = len(mats), s0.shape[0]
    if d == 0:
        # No path: lambda_min(S0) is the optimum, read at S0 + 0.0, the sum
        # S0 + Σ w_i S_i the path forms (a -0.0 entry of S0 becomes +0.0).
        if not np.isfinite(s0).all():
            raise IterationLimitError("barrier iterate diverged (objective unbounded?)")
        value = float(np.linalg.eigvalsh(s0 + 0.0)[0])
        if stop_below is None:
            return LambdaMinResult(w=np.zeros(0), value=value, upper=np.inf, newton_steps=0)
        below = value < stop_below * max(1.0, float(np.linalg.norm(s0)))
        return LambdaMinResult(w=np.zeros(0), value=value, upper=value, newton_steps=0, below=below)
    k = d + 1
    fam = np.concatenate([np.reshape(mats, (d, n, n)), np.diag(np.full(n, -1.0))[None]])
    flat = fam.reshape(k, n * n)
    certify = stop_below is not None and reg > 0.0
    upper, below = np.inf, False
    t0 = float(np.linalg.eigvalsh(s0)[0]) - max(1.0, 0.1 * float(np.linalg.norm(s0)))
    ridge, wt = np.append(np.full(d, reg), 0.0), np.append(np.zeros(d), t0)
    lin = np.append(np.zeros(d), -1.0)
    mu, mu_final, tol = _LAMBDA_MIN_MU, _LAMBDA_MIN_MU_FINAL, _LAMBDA_MIN_TOL

    def factor(v: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray], float]:
        """G at v, its Cholesky factor (None outside the cone), log det G / 2."""
        g = s0 + (v @ flat).reshape(n, n)
        l = _chol_or_none(g)
        return g, l, np.nan if l is None else float(np.log(l.diagonal()).sum())

    def merit(v: np.ndarray, half_logdet: float) -> float:
        return float(lin @ v + 0.5 * (ridge * v) @ v) - 2.0 * mu * half_logdet

    g, l, half_logdet = factor(wt)
    steps, ginv = 0, None
    while True:
        # The merit of each accepted point is the next step's f0; only a
        # new mu needs it recomputed.
        f0 = merit(wt, half_logdet)
        centered = None
        for _ in range(_LAMBDA_MIN_INNER):
            # Once per iterate, however many mu rounds start at it: the
            # finite check, G⁻¹ from the Cholesky factor and the traces
            # trs = (<fam[i], G⁻¹>)_i.
            fresh = ginv is None
            if fresh:
                # Cholesky fails on a non-finite symmetric G (half_logdet is
                # then NaN) or leaves a non-finite diagonal.
                if not math.isfinite(half_logdet):
                    raise IterationLimitError("barrier iterate diverged (objective unbounded?)")
                # G⁻¹ = L^{-T} L^{-1}, without holding L^{-1} after.
                ginv = np.linalg.inv(l)
                ginv = ginv.T @ ginv
                trs = flat @ ginv.ravel()
            steps += 1
            # Drop the last step's Hessian, then fill H_ij = mu·<S_i, G⁻¹ S_j G⁻¹>
            # _HESS_BLOCK columns at a time: a (_HESS_BLOCK, n, n) temporary.
            hess = None
            hess = np.empty((k, k))
            grad = lin + ridge * wt - mu * trs
            for j in range(0, k, _HESS_BLOCK):
                hess[:, j:j + _HESS_BLOCK] = flat @ (
                    ginv @ fam[j:j + _HESS_BLOCK] @ ginv).reshape(-1, n * n).T
            hess *= mu
            hess.flat[::k + 1] += ridge + 1e-14
            try:
                sol = np.linalg.solve(hess, np.stack([-grad, trs], axis=1))
            except np.linalg.LinAlgError:
                break
            # The step, its decrement and the path tangent tau = H⁻¹·trs.
            step, tau = sol[:, 0], sol[:, 1]
            decrement = float(-grad @ step)
            if certify and fresh:
                cert = _certificate(s0, flat, reg, wt, g, ginv, step, decrement, mu)
                if cert is not None:
                    upper = min(upper, cert[0])
                    below = cert[0] < stop_below * max(1.0, cert[1])
                    if below:
                        break
            if decrement <= tol * (1.0 + abs(float(lin @ wt))) or (
                    mu > mu_final and decrement <= _ROUND_DECREMENT * mu):
                centered = step
                break
            # Backtracking line search keeping the iterate interior.
            alpha = 1.0
            for _ in range(50):
                w_new = wt + alpha * step
                g_new, l_new, half_logdet_new = factor(w_new)
                if l_new is not None:
                    f_new = merit(w_new, half_logdet_new)
                    if f_new <= f0 - 0.25 * alpha * decrement:
                        break
                alpha *= 0.5
            else:
                break
            # A step that rounds to x makes no progress (and x keeps G⁻¹).
            if (w_new == wt).all():
                break
            wt, g, l, half_logdet, f0, ginv = w_new, g_new, l_new, half_logdet_new, f_new, None
        if below or mu <= mu_final:
            break
        mu_new = max(mu * _LAMBDA_MIN_SHRINK, mu_final)
        # Predictor: a round that ended centered moves toward the center
        # predicted at mu_new.
        if centered is not None:
            # tau = H⁻¹·trs with trs = -∇F, H = mu·∇²F + ridge, F = -log det G,
            # so Δtau = -H⁻¹(∇²F·step + mu·∇³F[step]·tau).  With ΔG = Σ step_i S_i,
            # U = G⁻¹ ΔG G⁻¹ and V = U·(Σ tau_i S_i)·G⁻¹, those two terms are
            # (<S_i, U>)_i and -(<S_i, V + Vᵀ>)_i.
            u = ginv @ (centered @ flat).reshape(n, n) @ ginv
            v = u @ (tau @ flat).reshape(n, n) @ ginv
            dtau = np.linalg.solve(hess, flat @ (mu * (v + v.T) - u).ravel())
            w_new = wt + centered + (mu_new - mu) * (tau + dtau)
            # Not held through the next round's Hessian assembly.
            del u, v
            for _ in range(50):
                if (w_new == wt).all():
                    break
                g_new, l_new, half_logdet_new = factor(w_new)
                if l_new is not None:
                    wt, g, l, half_logdet, ginv = w_new, g_new, l_new, half_logdet_new, None
                    break
                w_new = 0.5 * (wt + w_new)
        mu = mu_new
    w = wt[:d]
    value = float(np.linalg.eigvalsh(s0 + np.tensordot(w, fam[:d], 1))[0])
    return LambdaMinResult(w=w, value=value, upper=upper, newton_steps=steps, below=below)


@dataclass
class FaceSolution:
    """Outcome of face_solve: ``x`` on the face, ``y`` in the caller's row
    coordinates, ``value`` = <obj, x>, the iterations taken and ``error``,
    the largest of the three stop measures at the returned iterate.  The run
    converged when ``error`` is at most FACE_TOL; otherwise ``value`` is
    not the minimum."""

    x: np.ndarray
    y: np.ndarray
    value: float
    iterations: int
    error: float


def _range_space(
    rows: np.ndarray, rhs: np.ndarray, n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The face rows·svec(X) = rhs in orthonormal coordinates, by a thin SVD
    cut by svd_rank: (fam, rhs', back), fam the (m', n, n) stack of the
    smat of m' orthonormal rows spanning the rows' row space, rhs' the
    right-hand side in those rows, and back the map y = back·y' of their
    multipliers to the caller's rows (least-norm, rowsᵀy = Σ y'_k svec(fam[k]))."""
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = svd_rank(s)
    back = u[:, :rank] / s[:rank]
    return smat_stack(vt[:rank].T, n), back.T @ rhs, back


def _onto_face(x: np.ndarray, fam: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x moved onto the face by its orthogonal projection: the rows of fam
    are orthonormal in svec coordinates."""
    gap = fam.reshape(len(fam), x.size) @ x.ravel() - rhs
    return x - np.tensordot(gap, fam, 1)


def face_center(rows: np.ndarray, rhs: np.ndarray, n: int) -> Optional[np.ndarray]:
    """argmin tr X - log det X over the face {X ⪰ 0 : rows·svec(X) = rhs},
    or None when Newton's method on the dual does not reach it (the face
    has no interior, to rounding).

    The dual is max g(λ) = log det(I - 𝒜*λ) + <rhs', λ> over the m'
    orthonormal rows (see _range_space), whose maximizer gives the center
    X = (I - 𝒜*λ)⁻¹.  Each step solves H·Δλ = rhs' - 𝒜X, with
    H_kl = tr(A_k X A_l X) = <P_k, P_l> for P_k = L⁻¹A_kL⁻ᵀ, L the Cholesky
    factor of I - 𝒜*λ, and the decrement dec = <rhs' - 𝒜X, Δλ>.  -g is
    self-concordant, so the damped step Δλ/(1 + √dec) keeps I - 𝒜*λ ≻ 0
    and gains a fixed amount while √dec ≥ 1/4, and full steps converge
    quadratically after that; no line search is needed, and none is
    taken: a sufficient-decrease test stalls on rounding once dec is near
    machine precision.  The run ends once √dec ≤ _CENTER_ROOT_DEC, or once
    a full step fails to halve √dec: λ is stored to about ε·λ_max(X) in
    I - 𝒜*λ, so the decrement of a face of large scale (X ≈ 1e8) stalls far
    above any absolute tolerance.  It fails after _CENTER_STEPS steps or
    when H is singular.
    """
    fam, rhs, _ = _range_space(rows, rhs, n)
    flat = fam.reshape(len(fam), n * n)
    lam, last = np.zeros(len(fam)), math.inf
    for _ in range(_CENTER_STEPS):
        l = _chol_or_none(np.eye(n) - np.tensordot(lam, fam, 1))
        if l is None:
            return None
        linv = np.linalg.inv(l)
        x = linv.T @ linv
        grad = rhs - flat @ x.ravel()
        p = (linv @ fam @ linv.T).reshape(len(fam), n * n)
        try:
            step = np.linalg.solve(p @ p.T, grad)
        except np.linalg.LinAlgError:
            return None
        root = math.sqrt(max(float(grad @ step), 0.0))
        if root <= _CENTER_ROOT_DEC:
            return _onto_face(x, fam, rhs)
        if last < 0.25 and root > 0.5 * last:
            # A full step from √dec < 1/4 at least halves √dec in exact
            # arithmetic, so this one was lost to the rounding of I - 𝒜*λ:
            # the better of the two points is as central as λ can say.
            return _onto_face(x if root < last else last_x, fam, rhs)
        last, last_x = root, x
        lam = lam + (step / (1.0 + root) if root >= 0.25 else step)
    return None


def _step_to_boundary(linv: np.ndarray, d: np.ndarray) -> float:
    """The largest alpha with L Lᵀ + alpha·d ⪰ 0, given linv = L⁻¹; inf
    when every alpha ≥ 0 has it."""
    low = float(np.linalg.eigvalsh(linv @ d @ linv.T)[0])
    return -1.0 / low if low < 0.0 else math.inf


def face_solve(obj: np.ndarray, rows: np.ndarray, rhs: np.ndarray, x0: np.ndarray) -> FaceSolution:
    """min <obj, X> over the face {X ⪰ 0 : rows·svec(X) = rhs}, and its
    dual max <rhs, y> s.t. obj - 𝒜*y ⪰ 0, by an infeasible-start primal–dual
    path from X = x0 ≻ 0, y = 0, S = (1 + ‖obj‖_F)·I.

    In the m' orthonormal rows of _range_space, with the residuals
    r_p = rhs' - 𝒜X and R_d = obj - S - 𝒜*y and a target T for ΔX·S + X·ΔS,
    the HKM direction is
        M·Δy = r_p - 𝒜(T·S⁻¹ - X·R_d·S⁻¹),   M_kl = tr(A_k X A_l S⁻¹),
        ΔS = R_d - 𝒜*Δy,   ΔX = sym(T·S⁻¹ - X·ΔS·S⁻¹).
    M = <P_k, P_l> for P_k = L_S⁻¹A_kL_X, with L_X and L_S the Cholesky
    factors of X and S, and its own Cholesky factor serves both solves of
    an iteration.  The predictor (T = -XS) reaches mu_aff at its full step
    to the boundary, capped at 1; the corrector's target is
    T = σ·mu·I - XS - ΔX_aff·ΔS_aff with σ = (mu_aff/mu)³, and X and (y, S)
    take _FACE_STEP_FRACTION of their own step to the boundary, capped at 1.
    The run ends once the relative gap |<obj, X> - <rhs, y>|/(1 + |<obj, X>|
    + |<rhs, y>|), ‖r_p‖/(1 + ‖rhs'‖) and ‖R_d‖_F/(1 + ‖obj‖_F) are all at
    most FACE_TOL, after _FACE_STEPS iterations, or when an iterate is not
    finite or a factor fails;
    it returns the iterate whose largest of the three was least, its X
    projected onto the face, with that largest as ``error``.  An
    unbounded-below face has no dual point: its iterates diverge, and its
    ``error`` stays far above FACE_TOL.
    """
    obj = np.asarray(obj, dtype=float)
    if _chol_or_none(x0) is None:
        raise ValueError("face_solve requires a positive definite start")
    n = x0.shape[0]
    fam, rhs, back = _range_space(rows, rhs, n)
    flat = fam.reshape(len(fam), n * n)
    x, y = x0, np.zeros(len(fam))
    s = (1.0 + float(np.linalg.norm(obj))) * np.eye(n)
    scale_p, scale_d = 1.0 + float(np.linalg.norm(rhs)), 1.0 + float(np.linalg.norm(obj))
    best, iterations = None, 0
    while True:
        r_p = rhs - flat @ x.ravel()
        r_d = obj - s - np.tensordot(y, fam, 1)
        primal, dual = float(np.vdot(obj, x)), float(rhs @ y)
        err = max(abs(primal - dual) / (1.0 + abs(primal) + abs(dual)),
                  float(np.linalg.norm(r_p)) / scale_p, float(np.linalg.norm(r_d)) / scale_d)
        if best is None or err < best[0]:
            best = (err, x, y)
        if err <= FACE_TOL or iterations == _FACE_STEPS or not math.isfinite(err):
            break
        lx, ls = _chol_or_none(x), _chol_or_none(s)
        if lx is None or ls is None:
            break
        lxinv, lsinv = np.linalg.inv(lx), np.linalg.inv(ls)
        sinv = lsinv.T @ lsinv
        p = (lsinv @ fam @ lx).reshape(len(fam), n * n)
        lm = _chol_or_none(p @ p.T)
        if lm is None:
            break
        lminv = np.linalg.inv(lm)
        xrs = x @ r_d @ sinv

        def direction(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """(ΔX, Δy, ΔS) for the target T given as ts = T·S⁻¹."""
            dy = lminv.T @ (lminv @ (r_p - flat @ (ts - xrs).ravel()))
            ds = r_d - np.tensordot(dy, fam, 1)
            dx = ts - x @ ds @ sinv
            return 0.5 * (dx + dx.T), dy, ds

        dx, dy, ds = direction(-x)
        a_p = min(1.0, _step_to_boundary(lxinv, dx))
        a_d = min(1.0, _step_to_boundary(lsinv, ds))
        mu = float(np.vdot(x, s)) / n
        mu_aff = float(np.vdot(x + a_p * dx, s + a_d * ds)) / n
        sigma = (mu_aff / mu) ** 3
        dx, dy, ds = direction(sigma * mu * sinv - x - dx @ ds @ sinv)
        a_p = min(1.0, _FACE_STEP_FRACTION * _step_to_boundary(lxinv, dx))
        a_d = min(1.0, _FACE_STEP_FRACTION * _step_to_boundary(lsinv, ds))
        x, y, s = x + a_p * dx, y + a_d * dy, s + a_d * ds
        iterations += 1
    err, x, y = best
    x = _onto_face(x, fam, rhs)
    return FaceSolution(
        x=x, y=back @ y, value=float(np.vdot(obj, x)), iterations=iterations, error=err)
