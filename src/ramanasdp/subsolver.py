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
  * interior_point            — phase 1 by maximize_lambda_min, then one
    centering at mu = 1, lin = 0 toward the regularized analytic center.
  * minimize_linear_over_face — min <obj, S(w)>, with lin_i = <obj, S_i>.

All iterations are deterministic: fixed starting points, fixed step
rules, no randomization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


# Fixed accuracies: the last mu of the λ_min path, the ridge and tolerance of
# interior_point's centering, the ridge and last mu of the face minimization.
_LAMBDA_MIN_MU_FINAL = 1e-11
_CENTER_REG, _CENTER_TOL = 1e-9, 1e-8
_FACE_REG, _FACE_MU_FINAL = 1e-10, 1e-9


class IterationLimitError(RuntimeError):
    """The kernel exhausted its iteration budget without a verdict."""


def _chol_or_none(g: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None


@dataclass
class LambdaMinResult:
    w: np.ndarray
    value: float  # reached max of lambda_min(S(w)) (within ~mu of optimum)
    newton_steps: int


def _stack(mats: Sequence[np.ndarray], n: int, extra: int = 0) -> np.ndarray:
    """The family as one (d + extra, n, n) array; trailing slots are zero."""
    fam = np.zeros((len(mats) + extra, n, n))
    for i, m in enumerate(mats):
        fam[i] = m
    return fam


def _barrier_path(
    s0: np.ndarray, fam: np.ndarray, lin: np.ndarray, reg: float | np.ndarray,
    w: np.ndarray, *, mu: float, mu_final: float, shrink: float, inner: int,
    tol: float, max_iter: int, c0: float = 0.0, floor: Optional[float] = None,
) -> tuple[np.ndarray, int]:
    """Damped Newton on lin·w + (1/2)Σ reg_i w_i² - mu·log det S(w), with
    S(w) = s0 + Σ w_i fam[i], for mu, mu·shrink, ... down to mu_final.

    Each mu gets at most ``inner`` steps and ends once the Newton
    decrement is at most tol·(1 + |c0 + lin·w|) or the line search fails.
    ``floor`` ends the whole path as soon as lin·w drops below it.
    Returns (w, Newton steps taken).
    """
    k = fam.shape[0]
    flat = fam.reshape(k, s0.size)
    diag = np.diag_indices(k)

    def factor(v: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        g = s0 + (v @ flat).reshape(s0.shape)
        return g, _chol_or_none(g)

    def merit(v: np.ndarray, l: np.ndarray) -> float:
        return float(lin @ v + 0.5 * (reg * v) @ v) - 2.0 * mu * float(
            np.sum(np.log(np.diag(l)))
        )

    g, l = factor(w)
    if l is None:
        raise IterationLimitError("barrier iterate left the PSD cone")
    steps = 0
    hess = np.empty((k, k))
    while True:
        for _ in range(inner):
            if steps >= max_iter:
                raise IterationLimitError(f"barrier path exceeded {max_iter} Newton steps")
            steps += 1
            if not np.all(np.isfinite(g)):
                raise IterationLimitError("barrier iterate diverged (objective unbounded?)")
            # The accepted step's Cholesky factor gives G^{-1}, and
            # H_ij = mu·<S_i, G^{-1} S_j G^{-1}> is filled one column at a
            # time so no (k, n, n) temporary is allocated.
            linv = np.linalg.inv(l)
            ginv = linv.T @ linv
            grad = lin + reg * w - mu * (flat @ ginv.ravel())
            for j in range(k):
                hess[:, j] = flat @ (ginv @ fam[j] @ ginv).ravel()
            hess *= mu
            hess[diag] += reg + 1e-14
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            decrement = float(-grad @ step)
            if decrement <= tol * (1.0 + abs(c0 + float(lin @ w))):
                break
            # Backtracking line search keeping the iterate interior.
            f0 = merit(w, l)
            alpha = 1.0
            for _ in range(50):
                w_new = w + alpha * step
                g_new, l_new = factor(w_new)
                if l_new is not None and merit(w_new, l_new) <= f0 - 0.25 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break
            w, g, l = w_new, g_new, l_new
            if floor is not None and float(lin @ w) < floor:
                return w, steps
        if mu <= mu_final:
            return w, steps
        mu = max(mu * shrink, mu_final)


def maximize_lambda_min(
    s0: np.ndarray,
    mats: Sequence[np.ndarray],
    *,
    reg: float = 0.0,
    max_iter: int = 2000,
    stop_above: Optional[float] = None,
) -> LambdaMinResult:
    """Maximize lambda_min(S(w)) over w, to roughly n·_LAMBDA_MIN_MU_FINAL accuracy.

    ``reg`` adds (reg/2)·‖w‖² to the barrier objective; use a tiny value
    whenever the supremum may be unbounded.  ``stop_above`` ends the run
    early once lambda_min exceeds the given level (phase-1 use).
    """
    d = len(mats)
    fam = _stack(mats, s0.shape[0], extra=1)
    np.fill_diagonal(fam[d], -1.0)
    t0 = float(np.linalg.eigvalsh(s0)[0]) - max(1.0, 0.1 * float(np.linalg.norm(s0)))
    wt, steps = _barrier_path(
        s0, fam, np.append(np.zeros(d), -1.0), np.append(np.full(d, reg), 0.0),
        np.append(np.zeros(d), t0),
        mu=1.0, mu_final=_LAMBDA_MIN_MU_FINAL, shrink=0.2, inner=60, tol=1e-13,
        max_iter=max_iter, floor=None if stop_above is None else -stop_above,
    )
    w = wt[:d]
    value = float(np.linalg.eigvalsh(s0 + np.tensordot(w, fam[:d], 1))[0])
    return LambdaMinResult(w=w, value=value, newton_steps=steps)


def interior_point(
    s0: np.ndarray,
    mats: Sequence[np.ndarray],
    *,
    max_iter: int = 2000,
) -> Optional[np.ndarray]:
    """A strictly PD point of {S(w) ≻ 0}, or None if none exists to tolerance.

    Phase 1 maximizes lambda_min; on success the point is polished toward
    the regularized analytic center: min -log det S(w) + (_CENTER_REG/2)‖w‖².
    """
    scale = 1.0 + float(np.linalg.norm(s0)) + sum(float(np.linalg.norm(m)) for m in mats)
    phase1 = maximize_lambda_min(
        s0, mats, reg=1e-10, max_iter=max_iter, stop_above=0.05 * scale
    )
    if phase1.value <= 1e-10 * scale:
        return None
    w, _ = _barrier_path(
        s0, _stack(mats, s0.shape[0]), np.zeros(len(mats)), _CENTER_REG, phase1.w,
        mu=1.0, mu_final=1.0, shrink=1.0, inner=120, tol=_CENTER_TOL * _CENTER_TOL, max_iter=120,
    )
    return w


def minimize_linear_over_face(
    obj: np.ndarray,
    s0: np.ndarray,
    mats: Sequence[np.ndarray],
    w_start: np.ndarray,
    *,
    max_iter: int = 4000,
) -> tuple[np.ndarray, float]:
    """min <obj, S(w)> over {w : S(w) ⪰ 0} by a short barrier path.

    Requires S(w_start) ≻ 0.  The ridge term (_FACE_REG/2)‖w‖² bounds the
    path when the feasible set or objective is unbounded; accuracy is
    O(n·_FACE_MU_FINAL + _FACE_REG·‖w*‖²), enough for the 1e-6 value
    tolerances used by the golden checks.  Returns (w, objective value).
    """
    obj = np.asarray(obj, dtype=float)
    fam = _stack(mats, s0.shape[0])
    const = float(np.sum(obj * s0))
    w = np.asarray(w_start, dtype=float).copy()
    if _chol_or_none(s0 + np.tensordot(w, fam, 1)) is None:
        raise ValueError("minimize_linear_over_face requires a strictly feasible start")
    lin = fam.reshape(len(mats), s0.size) @ obj.ravel()
    w, _ = _barrier_path(
        s0, fam, lin, _FACE_REG, w,
        mu=max(1.0, float(np.abs(lin).sum())), mu_final=_FACE_MU_FINAL, shrink=0.15,
        inner=80, tol=1e-12, max_iter=max_iter, c0=const,
    )
    return w, const + float(lin @ w)
