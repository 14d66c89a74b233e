"""Regular facial reduction sequences and the rank-revealing (RR) form.

A regular facial reduction sequence Y_1, ..., Y_k is a staircase of
symmetric matrices: writing p_i = r_1 + ... + r_{i-1}, the trailing
(n - p_i)-block of Y_i equals diag(Λ_i, 0) with Λ_i positive definite of
order r_i, while the leading p_i rows and columns are arbitrary.  Each
Y_i with <Y_i, X> = 0 forces the next r_i rows and columns of any PSD X
to vanish, so the sequence certifies the zero pattern (and hence the
maximum rank) of every feasible solution.

An instance is in RR form when its first k constraint matrices form such
a sequence with b_1 = ... = b_k = 0 and a feasible point exists that is
zero outside a trailing positive definite block of order n - p_{k+1}.
The infeasibility variant replaces the last right-hand side by -1: the
k-th equation then contradicts the zero pattern forced by the first
k - 1, which is an exact proof of infeasibility.

build_rr_form constructs the reformulation by the classical loop: find y
with 𝒜*y PSD and nonzero and <b, y> ≤ 0 (solve_alternative), swap that
combination into the next row, rotate by its eigenvectors, delete the
newly-zeroed rows and columns, and recurse; a strictly negative <b, y>
ends the loop on the infeasibility branch.  When the certifying rows
fill the whole order they are merged into one positive definite row, so
k ≤ n - 1 wherever the construction allows it.

Each certificate comes from one path: solve_alternative maximizes
λ_min(𝒜*y) over an affine slice with the embedded barrier method
(branches A and C) unless a linear certificate 𝒜*y = 0 exists (branch
B); an optimum too weak to tell from rounding noise (NOISE_POWER) is
NotFound, any other is polished onto its face at one tolerance, polished
again and revalidated exactly, or refused.  An infeasibility certificate
that fails so gets one more try, with every polish step kept in the PSD
cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import subsolver
from .model import (
    Reformulation,
    SdpInstance,
    SingularMError,
    apply_a,
    apply_at,
    combine,
    constraint_stack,
    finite_stack,
    reformulate,
    smat,
    svec,
)
from .subsolver import IterationLimitError, svd_rank
from .symmat import EPS_PSD, SymMat, classify_psd, eig

MODE_EQ_ZERO = "eq_zero"
MODE_LEQ_ZERO = "leq_zero"

STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"

CERT_STRICT_ONLY = "strict_only"
CERT_INFEASIBILITY = "infeasibility"

# rows·y = rhs counts as solvable when its least-squares solution y0 has
# residual at most AFFINE_RESIDUAL_TOL·(1 + ‖rhs‖ + ‖rows‖₂·‖y0‖), a normwise
# backward error (Rigal & Gaches 1967): a slice nearly parallel to rounding
# has a large y0, which an absolute test would read as empty.
AFFINE_RESIDUAL_TOL = 1e-10

# Eigenvalues of the Gram matrix of the A_i below
# GRAM_NULL_CUT·max(λ_max, 1) count as zero (branch B's linear certificates).
GRAM_NULL_CUT = 1e-12

# After a few elimination rounds the data is consistent only to about
# eps**NOISE_POWER (√ of machine precision: subspace alignment error) of
# each row's full-order norm.  A certificate whose strength
# ‖𝒜*y‖_F / ‖(|y_i|·s_i)_i‖, with s_i that norm, is below it is rounding
# noise, and on a thin face such noise admits a phantom y; so is a
# b-component of branch B's linear certificate below it.
NOISE_POWER = 0.5


class NumericalRankAmbiguityError(RuntimeError):
    """An eigenvalue fell inside the (eps, 100·eps)·scale band; the rank
    decision is refused rather than guessed."""


class SubsolverFailureError(RuntimeError):
    """The facial-reduction loop could not obtain a usable certificate."""


@dataclass(frozen=True)
class FrSequence:
    """A validated regular facial reduction sequence with block orders r."""

    mats: tuple[SymMat, ...]
    r: tuple[int, ...]


@dataclass(frozen=True)
class FrsValidation:
    valid: bool
    seq: Optional[FrSequence] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class AltCertificateRaw:
    """Certificate of the alternative system: 𝒜*y PSD (nonzero unless the
    linear degenerate case) with <b, y> = 0 (strict_only) or < 0
    (infeasibility)."""

    y: np.ndarray
    mode: str


@dataclass(frozen=True)
class AltResult:
    """Outcome of solve_alternative.

    ``max_lambda_min`` is the λ_min the search reached.  A search that
    ended early because λ_min was certified below the band reports a
    level below the optimum, not the optimum itself.
    """

    found: bool
    certificate: Optional[AltCertificateRaw] = None
    max_lambda_min: Optional[float] = None


@dataclass(frozen=True)
class RrForm:
    """Result of an RR-form construction.

    ``ref`` maps the input instance to ``reformulated``; the first ``k``
    equations there certify.  On the feasible branch ``maxrank_x`` is a
    feasible point of ``reformulated`` that is zero outside its trailing
    positive definite block.
    """

    ref: Reformulation
    k: int
    r: tuple[int, ...]
    status: str
    reformulated: SdpInstance
    maxrank_x: Optional[SymMat] = None


def validate_frs(mats: Sequence[SymMat], eps: float = EPS_PSD) -> FrsValidation:
    """Check the staircase shape of a candidate sequence, inferring each r_i.

    r_i is inferred greedily as one plus the last non-negligible row of
    the trailing block; the block itself must classify positive definite
    (it need not be diagonal).
    """
    mats = tuple(mats)
    if not mats:
        return FrsValidation(valid=True, seq=FrSequence(mats=(), r=()))
    n = mats[0].n
    for y in mats:
        if y.n != n:
            return FrsValidation(valid=False, reason="members have mixed orders")
    p = 0
    ranks: list[int] = []
    for idx, y in enumerate(mats):
        scale = y.scale_factor()
        block = y.a[p:, p:]
        if block.size == 0:
            ranks.append(0)
            continue
        row_mags = np.max(np.abs(block), axis=1)
        nz = np.nonzero(row_mags > eps * scale)[0]
        r_i = 0 if nz.size == 0 else int(nz[-1]) + 1
        if r_i > 0:
            lead = SymMat(block[:r_i, :r_i])
            cls = classify_psd(lead, eps)
            if not cls.is_positive_definite:
                return FrsValidation(
                    valid=False,
                    reason=(
                        f"member {idx + 1}: diagonal block of order {r_i} at offset {p}"
                        f" is not positive definite (λ_min = {cls.evidence:.3e})"
                    ),
                )
            # Rows of the trailing block past r_i are zero to eps * scale by
            # choice of r_i, and so is the cross block to the right of the PD
            # block: a SymMat is bitwise symmetric, so each of its entries is
            # an entry of such a row.
        ranks.append(r_i)
        p += r_i  # at most n: r_i counts rows of the order-(n - p) block
    return FrsValidation(valid=True, seq=FrSequence(mats=mats, r=tuple(ranks)))


def is_rr_form(
    inst: SdpInstance, k: int, x_witness: SymMat, eps: float = EPS_PSD
) -> bool:
    """Definition check: first k equations certify and the witness fits."""
    if not 0 <= k <= inst.m:
        raise ValueError(f"k = {k} outside 0..m = {inst.m}")
    if x_witness.n != inst.n:
        raise ValueError("witness order mismatch")
    val = validate_frs(inst.a[:k], eps)
    if not val.valid:
        return False
    b_scale = 1.0 + float(np.linalg.norm(inst.b))
    if k and np.max(np.abs(inst.b[:k])) > eps * b_scale:
        return False
    p = sum(val.seq.r)
    x = x_witness.a
    x_scale = x_witness.scale_factor()
    if p and np.max(np.abs(x[:p, :])) > eps * x_scale:
        return False
    if p < inst.n:
        if not classify_psd(SymMat(x[p:, p:]), eps).is_positive_definite:
            return False
    res = float(np.linalg.norm(apply_a(inst, x_witness) - inst.b))
    return res <= eps * (1.0 + float(np.linalg.norm(inst.b)) + x_witness.norm())


def null_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the nullspace of rows.  It owns
    its memory: the SVD factor it is cut from is not kept alive."""
    _, s, vt = np.linalg.svd(rows)
    return vt[svd_rank(s):].copy().T


def _affine_solutions(
    rows: np.ndarray, rhs: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Minimum-norm particular solution and nullspace basis of rows·y = rhs."""
    y0, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    res = float(np.linalg.norm(rows @ y0 - rhs))
    scale = 1.0 + float(np.linalg.norm(rhs) + np.linalg.norm(rows, 2) * np.linalg.norm(y0))
    if res > AFFINE_RESIDUAL_TOL * scale:
        return None
    return y0, null_basis(rows)


# Accepted certificates are canonicalized to a well-separated spectrum:
# positive eigenvalues spanning more than this ratio are refused (their
# eigenvectors are too ill-conditioned to base an elimination on).
CLEAN_SPECTRUM_RATIO = 1e-4


def _spectrum_is_clean(z: SymMat, eps: float) -> bool:
    """Eigenvalues clear of the rank-ambiguity band (eps, 100·eps]·scale,
    none below -eps·scale, and positive ones well separated from zero."""
    lam = eig(z).lam
    scale = z.scale_factor()
    if lam[-1] < -eps * scale:
        return False
    in_band = np.logical_and(lam > eps * scale, lam <= 100.0 * eps * scale)
    if bool(np.any(in_band)):
        return False
    positives = lam[lam > eps * scale]
    if positives.size >= 2 and positives[-1] < CLEAN_SPECTRUM_RATIO * positives[0]:
        return False
    return True


def _revalidate_candidate(
    inst: SdpInstance, y: np.ndarray, target: Optional[float], eps: float
) -> Optional[AltCertificateRaw]:
    """Exact revalidation of a cleaned candidate; returns the normalized
    certificate or None.  Candidates whose matrix has eigenvalues inside
    the rank-ambiguity band are rejected so downstream rank decisions
    never have to guess."""
    z = apply_at(inst, y)
    if not _spectrum_is_clean(z, eps):
        return None
    tr = float(np.trace(z.a))
    if tr <= eps * z.scale_factor():
        return None
    y = y / tr
    bval = float(inst.b @ y)
    b_scale = (1.0 + float(np.linalg.norm(inst.b))) * (1.0 + float(np.linalg.norm(y)))
    if target == 0.0:
        if abs(bval) > eps * b_scale:
            return None
        return AltCertificateRaw(y=y, mode=CERT_STRICT_ONLY)
    # Negative branch: strict negativity marks infeasibility.
    if bval > -eps * b_scale:
        return None
    return AltCertificateRaw(y=y, mode=CERT_INFEASIBILITY)


def _face_residual(
    inst: SdpInstance,
    y: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    face_tol: float,
    n_active: int,
) -> float:
    """Badness of a candidate: mass of the n_active smallest-magnitude
    eigenvalues plus affine error.  The count is fixed by the caller so a
    step cannot "improve" by pushing eigenvalues out of the active band;
    leaving the near-PSD region is infinitely bad."""
    lam = np.linalg.eigvalsh(apply_at(inst, y).a)
    if lam.size and lam[0] < -10.0 * face_tol:
        return float("inf")
    order = np.argsort(np.abs(lam))
    res = float(np.sum(lam[order[:n_active]] ** 2))
    res += float(np.sum((rows @ y - rhs) ** 2))
    return res


def _face_rows(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The face equations' coefficients: one row per pair a ≤ b of the
    columns of v (in np.triu_indices order), one column per matrix,
    entry v_aᵀ·mats[j]·v_b."""
    ia, ib = np.triu_indices(v.shape[1])
    return (v.T @ mats @ v)[:, ia, ib].T


def _polish_on_face(
    inst: SdpInstance,
    y: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    face_tol: float,
    in_cone: bool = False,
) -> np.ndarray:
    """Newton polish of y so the near-null eigenblock of 𝒜*y vanishes while
    the affine normalization rows·y = rhs is maintained exactly.

    Each of at most 8 rounds linearizes in the current eigenbasis:
    eigenvectors with |eigenvalue| ≤ face_tol span the active face, and
    the least-squares step solves v_aᵀ(𝒜*y)v_b = 0 on that face together
    with the affine rows, minimally perturbing y.
    Steps are damped when the full update does not reduce the face
    residual, and the best iterate seen is returned (the face equations
    can be linearly unreachable, in which case polishing must not make
    the candidate worse).  With ``in_cone``, a step from a positive
    definite 𝒜*y is first cut to the longest one that keeps it PSD: with
    Z = 𝒜*y and D the step's matrix, that is 1/λ_max(-Z^{-1/2} D Z^{-1/2})
    of the full step when this is below 1.
    """
    y = np.asarray(y, dtype=float).copy()
    n_active = int(np.sum(np.abs(np.linalg.eigvalsh(apply_at(inst, y).a)) <= face_tol))
    best = y.copy()
    best_res = _face_residual(inst, y, rows, rhs, face_tol, n_active)
    for _ in range(8):
        z = apply_at(inst, y).a
        lam, vecs = np.linalg.eigh(z)
        v = vecs[:, np.argsort(np.abs(lam))[:n_active]]
        a_sys = np.vstack([_face_rows(inst.stack, v), rows])
        b_sys = np.concatenate([-_face_rows(z[None], v)[:, 0], rhs - rows @ y])
        delta, *_ = np.linalg.lstsq(a_sys, b_sys, rcond=None)
        if not np.all(np.isfinite(delta)):
            return best
        stepped = False
        alpha = 1.0
        if in_cone and lam[0] > 0.0:
            half = vecs / np.sqrt(lam)
            grow = float(np.linalg.eigvalsh(-half.T @ np.tensordot(delta, inst.stack, 1) @ half)[-1])
            if grow > 1.0:
                alpha = 1.0 / grow
        for _ in range(8):
            cand = y + alpha * delta
            res = _face_residual(inst, cand, rows, rhs, face_tol, n_active)
            if res < best_res:
                y = cand
                best = cand.copy()
                best_res = res
                stepped = True
                break
            alpha *= 0.25
        if not stepped:
            break
        if best_res <= 1e-28:
            break
    return best


def _clean_and_validate(
    inst: SdpInstance,
    y: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
    target: Optional[float],
    eps: float,
) -> Optional[AltCertificateRaw]:
    """Turn a subsolver optimum into a certificate, or None.

    One path at one face tolerance: polish y onto the face of z = 𝒜*y,
    polish the result again, then revalidate exactly.  No entry of y is
    cut: a threshold on |y_i| against max|y| depends on how the rows are
    scaled, which the answer must not.  The face tolerance is
    1e-5·scale, raised to just above the largest small positive eigenvalue
    of z (one below CLEAN_SPECTRUM_RATIO of the top): when the optimizer
    lands in the interior of a degenerate optimal face, flattening those
    eigenvalues polishes the candidate onto a clean lower-rank vertex
    instead of keeping ill-conditioned near-zero ones.

    An infeasibility certificate that fails gets a second try whose steps
    stay in the PSD cone.  Branch C's optimum can lie far out on the slice
    (‖y‖ ~ 1e4 and more, its small eigenvalues ~1e-4 of the top), where
    the face row and the b row are nearly parallel and the first step is
    about as long as y: the damped steps can then trade the flattened
    eigenvalue for a negative one inside the near-PSD slack of
    10·face_tol, and never recover.  A strict-only certificate gets no
    retry: when branch A fails, branch C can still end the construction,
    and a rescued branch A certificate leads on the infeasible probe into
    more failed merges than it saves.
    """
    z = apply_at(inst, y)
    scale = z.scale_factor()
    lam = np.linalg.eigvalsh(z.a)
    small = lam[(lam > eps * scale) & (lam < CLEAN_SPECTRUM_RATIO * max(lam[-1], 1.0))]
    face_tol = 1e-5 * scale
    if small.size:
        face_tol = max(face_tol, min(2.0 * float(small[-1]), 0.5 * float(lam[-1])))
    for in_cone in (False, True) if target != 0.0 else (False,):
        y_pol = _polish_on_face(inst, y, rows, rhs, face_tol, in_cone=in_cone)
        y_pol = _polish_on_face(inst, y_pol, rows, rhs, face_tol, in_cone=in_cone)
        cert = _revalidate_candidate(inst, y_pol, target, eps)
        if cert is not None:
            return cert
    return None


def _slice_lambda_min(
    inst: SdpInstance,
    rows: np.ndarray,
    rhs: np.ndarray,
    reg: float,
    stop_below: Optional[float] = None,
) -> Optional[tuple[np.ndarray, np.ndarray, subsolver.LambdaMinResult]]:
    """Maximize λ_min(𝒜*y) over the slice rows·y = rhs.  Returns 𝒜*y0 as
    an array, y0 the slice's least-norm point, then the optimal y and the
    subsolver's result; None when the slice is empty."""
    sol = _affine_solutions(rows, rhs)
    if sol is None:
        return None
    y0, null = sol
    s0 = apply_at(inst, y0).a
    fam = combine(null.T, inst.stack, inst.n)
    res = subsolver.maximize_lambda_min(s0, fam, reg=reg, stop_below=stop_below)
    return s0, y0 + null @ res.w, res


def _lambda_min_search(
    inst: SdpInstance,
    rows: np.ndarray,
    rhs: np.ndarray,
    target: float,
    reg: float,
    eps: float,
    row_scale: np.ndarray,
) -> tuple[Optional[AltCertificateRaw], Optional[float], bool]:
    """Maximize λ_min(𝒜*y) over the slice rows·y = rhs and clean the optimum.

    Returns (certificate, λ_min reached, ambiguous).  λ_min is None when
    the slice is empty; ambiguous marks an optimum inside the tolerance
    band that cleanup could not turn into a certificate.  The search ends
    early, as NotFound, once the subsolver certifies that λ_min at the
    ridged optimum is below the band at that optimum's own scale.  An
    optimum of strength below eps**NOISE_POWER, with each |y_i| weighed
    by row_scale[i], is NotFound too.
    """
    found = _slice_lambda_min(inst, rows, rhs, reg, -100.0 * eps)
    if found is None:
        return None, None, False
    _, y_opt, res = found
    z_norm = apply_at(inst, y_opt).norm()
    if res.below or res.value < -100.0 * eps * max(1.0, z_norm):
        return None, res.value, False
    if z_norm < eps**NOISE_POWER * float(np.linalg.norm(np.abs(y_opt) * row_scale)):
        return None, res.value, False
    cert = _clean_and_validate(inst, y_opt, rows, rhs, target, eps)
    return cert, res.value, cert is None


def solve_alternative(
    inst: SdpInstance,
    mode: str = MODE_EQ_ZERO,
    eps: float = EPS_PSD,
    *,
    _row_scale: Optional[np.ndarray] = None,
) -> AltResult:
    """Search for y with 𝒜*y PSD and nonzero and <b, y> = 0 (eq_zero) or
    <b, y> ≤ 0 (leq_zero).

    The search maximizes λ_min(𝒜*y) over the trace-normalized affine
    slice; NotFound certifies (to tolerance) that no certificate exists,
    which for a feasible instance means strict feasibility.  Raises
    IterationLimitError when the optimum lands inside the undecidable
    band and cleanup fails.  ``_row_scale`` is internal: build_rr_form
    passes the full-order norms of the rows it cut to the trailing block,
    which the certificate-strength rule weighs y by in place of the rows'
    own norms.
    """
    if mode not in (MODE_EQ_ZERO, MODE_LEQ_ZERO):
        raise ValueError(f"unknown mode {mode!r}")
    m = inst.m
    if m == 0:
        return AltResult(found=False, max_lambda_min=None)
    row_scale = inst.row_norms() if _row_scale is None else _row_scale

    # Branch A: <b, y> = 0 with trace(𝒜*y) = 1.
    trace_row = np.trace(inst.stack, axis1=1, axis2=2)
    cert, best_t, ambiguous = _lambda_min_search(
        inst, np.vstack([inst.b, trace_row]), np.array([0.0, 1.0]), 0.0, 1e-12, eps, row_scale
    )
    if cert is not None:
        return AltResult(found=True, certificate=cert, max_lambda_min=best_t)

    if mode == MODE_EQ_ZERO:
        return _not_found(best_t, ambiguous)

    # Branch B (leq_zero): linear degenerate certificate 𝒜*y = 0, <b,y> = -1.
    # The combination is rescaled, so its matrix must be revalidated at the
    # final size: an approximately-null direction blown up by 1/<b, v> can
    # otherwise smuggle in a large matrix.
    stack = constraint_stack(inst)
    gram = stack @ stack.T
    w_eig, w_vec = np.linalg.eigh(gram)
    null_mask = w_eig < max(1.0, float(w_eig[-1])) * GRAM_NULL_CUT
    gram_null = w_vec[:, null_mask]
    if gram_null.shape[1]:
        coeff = gram_null.T @ inst.b
        nc = float(np.linalg.norm(coeff))
        b_scale = 1.0 + float(np.linalg.norm(inst.b))
        # A smaller b-component is reduction noise (see NOISE_POWER) and
        # must not be read as infeasibility.
        if nc > eps**NOISE_POWER * b_scale:
            y_lin = -gram_null @ coeff / nc**2  # min-norm <b,y> = -1 in the null space
            z_lin = apply_at(inst, y_lin)
            if z_lin.norm() <= 100.0 * eps * b_scale:
                return AltResult(
                    found=True,
                    certificate=AltCertificateRaw(y=y_lin, mode=CERT_INFEASIBILITY),
                    max_lambda_min=best_t,
                )

    # Branch C: <b, y> = -1 with a ridge to bound the search.
    cert, t_c, ambiguous_c = _lambda_min_search(
        inst, inst.b.reshape(1, -1), np.array([-1.0]), -1.0, 1e-8, eps, row_scale
    )
    if cert is not None:
        return AltResult(found=True, certificate=cert, max_lambda_min=t_c)
    if t_c is not None:
        best_t = t_c if best_t is None else max(best_t, t_c)
    return _not_found(best_t, ambiguous or ambiguous_c)


def _not_found(best_t: Optional[float], ambiguous: bool) -> AltResult:
    """NotFound, or a refusal when an optimum inside the band resisted cleanup."""
    if ambiguous:
        raise IterationLimitError(
            "alternative-system optimum is inside the tolerance band and "
            "could not be cleaned into a valid certificate"
        )
    return AltResult(found=False, max_lambda_min=best_t)


def classical_alternative_feasible(inst: SdpInstance, eps: float = EPS_PSD) -> bool:
    """Feasibility of the classical alternative system 𝒜*y ⪰ 0, <b,y> = -1."""
    found = _slice_lambda_min(inst, inst.b.reshape(1, -1), np.array([-1.0]), 1e-8)
    if found is None:
        return False
    s0, _, res = found
    scale = 1.0 + float(np.linalg.norm(s0))
    return res.value >= -100.0 * eps * scale


def _rank_split(lam: np.ndarray, eps: float, scale: float) -> int:
    """Positive count of an eigenvalue vector, refusing in-band decisions."""
    pos = int(np.sum(lam > 100.0 * eps * scale))
    nonzero = int(np.sum(lam > eps * scale))
    if nonzero != pos:
        bad = [x for x in lam if eps * scale < x <= 100.0 * eps * scale]
        raise NumericalRankAmbiguityError(
            f"eigenvalues {bad} lie inside ({eps * scale:.3e}, {100 * eps * scale:.3e}]"
        )
    if lam.size and lam[-1] < -eps * scale:
        raise SubsolverFailureError(
            f"certificate matrix has a negative eigenvalue {lam[-1]:.3e}"
        )
    return pos


def _reduced_instance(cur: SdpInstance, p: int, s: int) -> SdpInstance:
    """Sub-instance on the trailing (n-p)-block, rows s..m."""
    return SdpInstance(a=cur.stack[s:, p:, p:], b=cur.b[s:], c=SymMat(cur.c.a[p:, p:]))


def _replace_and_swap(m_total: np.ndarray, s: int, y_red: np.ndarray) -> np.ndarray:
    """Left-multiply the accumulated M: row s+j* := Σ y_j · row (s+j), then
    swap it into position s.  The pivot is the largest |y_j|."""
    m = m_total.shape[0]
    j_star = int(np.argmax(np.abs(y_red)))
    if abs(y_red[j_star]) == 0.0:
        raise SubsolverFailureError("certificate vector is identically zero")
    e = np.eye(m)
    e[s + j_star, s:] = y_red
    perm = np.eye(m)
    if j_star != 0:
        perm[[s, s + j_star]] = perm[[s + j_star, s]]
    return perm @ e @ m_total


def _interior_of_reduced(cur: SdpInstance, p: int, s: int) -> SymMat:
    """Strictly feasible point of the reduced instance, its trace-penalised
    center X' (subsolver.face_center), embedded at order n.  With d the
    least-norm solution of rows·d = rows·svec(X') - b', X' - smat(d) is on
    the exact face, and interior to it if λ_min(X') > ‖smat(d)‖₂; a center
    without that margin is refused."""
    n = cur.n
    if p == n:
        return SymMat.zero(n)
    red = _reduced_instance(cur, p, s)
    rows = constraint_stack(red)
    x_red = subsolver.face_center(rows, red.b, red.n)
    if x_red is None:
        raise SubsolverFailureError(
            "reduced instance reported strictly feasible but no interior point was found"
        )
    d, *_ = np.linalg.lstsq(rows, rows @ svec(x_red) - red.b, rcond=None)
    lam, off = float(np.linalg.eigvalsh(x_red)[0]), float(np.linalg.norm(smat(d, red.n).a, 2))
    if not lam > off:
        raise SubsolverFailureError(f"center is not interior to its face: λ_min {lam:.3e}"
                                    f" is not above ‖smat(d)‖₂ = {off:.3e}")
    return SymMat(x_red).embed(n, p)


def _reformulate(inst: SdpInstance, m_total: np.ndarray, q_total: np.ndarray) -> SdpInstance:
    """build_rr_form's reformulation.  Its M is built from certificates, so
    an M singular to tolerance is a refusal, not bad input."""
    try:
        return reformulate(inst, Reformulation(m_total, q_total))
    except SingularMError as exc:
        raise SubsolverFailureError(str(exc)) from exc


def build_rr_form(inst: SdpInstance, eps: float = EPS_PSD) -> RrForm:
    """Reformulate the instance into RR form (or its infeasibility form).

    Each round solves the alternative system on the shrunken instance;
    a certificate with <b, y> = 0 becomes the next certifying equation
    (rotated so its matrix is diag(Λ, 0) on the active block), while a
    strictly negative <b, y> is scaled to rhs -1 and ends the loop with
    status infeasible.  NotFound ends the loop with status feasible and
    an interior max-rank witness of the reduced problem.  An instance
    whose svec overflows (model.finite_stack) is refused with ValueError.
    """
    finite_stack(inst)
    n, m = inst.n, inst.m
    m_total = np.eye(m)
    q_total = np.eye(n)
    cur = inst
    p = 0
    s = 0
    ranks: list[int] = []
    status = None
    while True:
        if s == m or p == n:
            # Equations are exhausted (tail below is empty) or no block is
            # left, in which case the remaining equations read 0 = b_i and
            # only a linear infeasibility certificate is possible.
            tail = cur.b[s:]
            if tail.size and float(np.max(np.abs(tail))) > eps * (
                1.0 + float(np.linalg.norm(inst.b))
            ):
                j = int(np.argmax(np.abs(tail)))
                y_red = np.zeros(m - s)
                y_red[j] = -1.0 / tail[j]
                m_total = _replace_and_swap(m_total, s, y_red)
                cur = _reformulate(inst, m_total, q_total)
                ranks.append(0)
                s += 1
                status = STATUS_INFEASIBLE
                break
            status = STATUS_FEASIBLE
            break
        red = _reduced_instance(cur, p, s)
        # The rows' norms at full order: cutting a row to the trailing
        # block can shrink it far below the scale of its rounding noise.
        row_scale = cur.row_norms()[s:]
        try:
            alt = solve_alternative(red, MODE_LEQ_ZERO, eps, _row_scale=row_scale)
        except IterationLimitError as exc:
            raise SubsolverFailureError(str(exc)) from exc
        if not alt.found:
            status = STATUS_FEASIBLE
            break
        y_red = alt.certificate.y
        bval = float(red.b @ y_red)
        terminal = alt.certificate.mode == CERT_INFEASIBILITY
        if terminal:
            y_red = y_red * (-1.0 / bval)
        z_red = apply_at(red, y_red)
        if terminal and z_red.norm() <= 100.0 * eps * (
            1.0 + float(np.linalg.norm(red.b))
        ):
            # Linear terminal certificate: its matrix is zero by validation,
            # so there is no spectral rank decision to make.
            dec = None
            r_i = 0
        else:
            dec = eig(z_red)
            r_i = _rank_split(dec.lam, eps, z_red.scale_factor())
        if r_i == 0 and not terminal:
            raise SubsolverFailureError("certificate matrix vanished on the active block")
        m_total = _replace_and_swap(m_total, s, y_red)
        if r_i > 0:
            step = np.eye(n)
            step[p:, p:] = dec.q
            q_total = q_total @ step
        cur = _reformulate(inst, m_total, q_total)
        ranks.append(r_i)
        s += 1
        p += r_i
        if terminal:
            status = STATUS_INFEASIBLE
            break
    k = s
    # Enforce the k ≤ n-1 bound where the construction allows it: when the
    # leading certifying rows (all of them when feasible, all but the
    # terminal one when infeasible) fill the order, they merge into one
    # positive definite row 0.  The terminal row, if any, moves up to row 1.
    lead = k if status == STATUS_FEASIBLE else k - 1
    if lead >= 2 and sum(ranks[:lead]) == n:
        coeffs = _pd_combination(cur.stack[:lead], ranks[:lead], eps)
        e = np.eye(m)
        e[0, :lead] = coeffs
        order = [0] + list(range(lead, k)) + [i for i in range(1, m) if not lead <= i < k]
        m_total = (e @ m_total)[order]
        cur = _reformulate(inst, m_total, q_total)
        ranks = [n] + ranks[lead:]
        k = 1 + k - lead
    ref = Reformulation(m_total, q_total)
    maxrank = None
    if status == STATUS_FEASIBLE:
        maxrank = _interior_of_reduced(cur, sum(ranks), k)
    return RrForm(
        ref=ref,
        k=k,
        r=tuple(ranks),
        status=status,
        reformulated=cur,
        maxrank_x=maxrank,
    )


def _pd_combination(mats: np.ndarray, ranks: Sequence[int], eps: float) -> np.ndarray:
    """Positive weights making Σ w_i Y_i positive definite.

    Requires a regular facial reduction sequence, as one (k, n, n) stack,
    whose block orders sum to the full order.  Recursion from the back:
    combine the trailing sub-sequence first, then one Schur-complement
    bound gives the weight of the leading member (smallest power of two
    exceeding the bound, escalated under classify_psd verification).
    """
    k, n = mats.shape[:2]
    if k == 1:
        lam = np.linalg.eigvalsh(mats[0])
        if lam[0] <= 0:
            raise SubsolverFailureError("merge: single member not positive definite")
        # Scale so the result is PD with unit-ish norm.
        return np.array([1.0])
    p = int(ranks[0])
    v = _pd_combination(mats[1:, p:, p:], ranks[1:], eps)
    g = combine(v[None], mats[1:], n)[0]
    b11 = g[:p, :p]
    e12 = g[:p, p:]
    h22 = g[p:, p:]
    lam_h = np.linalg.eigvalsh(h22)[0]
    lam_1 = np.linalg.eigvalsh(mats[0, :p, :p])[0]
    if lam_h <= 0 or lam_1 <= 0:
        raise SubsolverFailureError("merge: inner combination lost definiteness")
    # In numpy floats, which overflow to inf; below 2^900, log2 errs by
    # under 1e-12, so lam exceeds the bound and 64 doublings stay finite.
    with np.errstate(over="ignore"):
        bound = (np.linalg.norm(b11, 2) + np.linalg.norm(e12, 2) ** 2 / lam_h) / lam_1
    if not bound < 2.0**900:
        raise SubsolverFailureError(f"merge: Schur bound {bound:.3e} is not below 2^900")
    lam = 2.0 ** int(np.ceil(np.log2(max(bound, 1.0)) + 1e-12))
    for _ in range(64):
        total = lam * mats[0] + g
        if classify_psd(SymMat(total), eps).is_positive_definite:
            return np.concatenate([[lam], v])
        lam *= 2.0
    raise SubsolverFailureError("merge: Schur bound escalation failed")


def primal_optimal_value(
    inst: SdpInstance, rr: Optional[RrForm] = None, eps: float = EPS_PSD
) -> float:
    """Optimal value of the instance via its RR form.

    The feasible set is the RR face diag(0, X') with X' ranging over the
    strictly feasible reduced problem; subsolver.face_solve minimizes
    <C', X'> there, starting from the maximum-rank witness's block.
    Returns +inf on the infeasible branch.  A face solve that does not
    converge, as on an unbounded-below instance, whose iterates diverge,
    raises SubsolverFailureError.
    """
    if rr is None:
        rr = build_rr_form(inst, eps=eps)
    if rr.status == STATUS_INFEASIBLE:
        return float("inf")
    cur = rr.reformulated
    n = cur.n
    p = sum(rr.r)
    if p == n:
        return 0.0
    red = _reduced_instance(cur, p, rr.k)
    sol = subsolver.face_solve(red.c.a, constraint_stack(red), red.b, rr.maxrank_x.a[p:, p:])
    if not sol.error <= subsolver.FACE_TOL:
        raise SubsolverFailureError(
            f"face solve stopped at error {sol.error:.3e} after {sol.iterations} iterations"
            " (unbounded below, or not solved to tolerance)"
        )
    return sol.value
