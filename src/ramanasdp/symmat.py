"""Dense symmetric matrices and the PSD-cone primitives built on them.

Everything downstream (instances, facial reduction, certificate checks)
reduces to four operations on real symmetric matrices:

  * a deterministic spectral decomposition (LAPACK ``eigh``, with a
    canonical basis for each eigenspace of a repeated eigenvalue),
  * classification against the PSD cone at a relative tolerance,
  * congruence by an orthonormal matrix, which preserves the trace inner
    product and eigenvalues,
  * membership in tan(U), the tangent space of the PSD cone at U.

tan(U) is the set of matrices W + Wᵀ such that the block matrix
[[U, W], [Wᵀ, R]] is PSD for some PSD R.  Operationally, for U PSD of
rank r with eigenbasis Q, a symmetric V lies in tan(U) exactly when
QᵀVQ has no entries outside its leading r rows and columns.  Membership
therefore reduces to one rotation and a zero-pattern test.  tan_contains
returns the verdict and the worst violation only; tangent_witness runs the
same test and synthesizes an explicit witness (W, R), which only
certificate embedding needs.

A classification keeps its decomposition, and each tangent-space test
takes U either as a matrix or as its PsdClass: a caller that has classified
U already (a verifier's rungs and head) passes the class, made at the same
eps, and U is not decomposed again.

All decisions are tolerance-based; the tolerance is a parameter on every
public operation and scales with 1 + Frobenius norm of the input.

A SymMat holds one read-only array.  It shares its input when that is
already such an array, one that owns its data and that averaging with its
transpose would give back bit for bit (a parsed certificate record,
another SymMat's ``.a``); it copies any other input (see SymMat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# Relative tolerances: EPS_PSD, the default eps of rank/PSD decisions;
# RECON_TOL for reconstruction identities; ORTH_TOL for orthonormality checks.
EPS_PSD = 1e-8
RECON_TOL = 1e-10
ORTH_TOL = 1e-10
# Eigenvalues closer than EIG_CLUSTER_TOL·(1+‖A‖) share one eigenspace in eig;
# also the tie tolerance of the pivot that picks that eigenspace's basis.
EIG_CLUSTER_TOL = 1e-12
# Above this magnitude x + x overflows, so (A + Aᵀ)/2 is not A's own bits.
_HALF_MAX = np.finfo(float).max / 2.0


class NonOrthonormalError(ValueError):
    """Rotation matrix fails the orthonormality precondition."""


class NotPsdInputError(ValueError):
    """Operation requires a PSD input and classification said otherwise."""


def _as_square_array(entries) -> np.ndarray:
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix order must be at least 1")
    return a


def _shareable(a) -> bool:
    """Whether ``a`` can be held as it is: a float64 ndarray that no one
    can write through (read-only, owning its data, C-contiguous), square
    of order at least 1, bitwise symmetric, with every entry within
    ±DBL_MAX/2, so that (a + aᵀ)/2 would return its own bits."""
    return (
        type(a) is np.ndarray
        and a.dtype == np.float64
        and not a.flags.writeable
        and a.flags.owndata
        and a.flags.c_contiguous
        and a.ndim == 2
        and a.shape[0] == a.shape[1] >= 1
        and -_HALF_MAX <= a.min()  # also False on nan
        and a.max() <= _HALF_MAX
        and bool((a.view(np.uint64) == a.T.view(np.uint64)).all())
    )


def _average_large(a: np.ndarray) -> np.ndarray:
    """(a + aᵀ)/2 for an a whose squares overflow or that is not finite:
    where a + aᵀ overflows, from finite entries above DBL_MAX/2 in
    magnitude, they are halved before adding, and every other entry keeps
    the bits of the plain average.  (Below 1e154 nothing can overflow.)"""
    with np.errstate(over="ignore"):
        avg = (a + a.T) / 2.0
    over = np.isinf(avg) & np.isfinite(a) & np.isfinite(a.T)
    avg[over] = a[over] / 2.0 + a.T[over] / 2.0
    return avg


class SymMat:
    """Immutable dense symmetric matrix of order n.

    Symmetry is storage-enforced: entries[i][j] and entries[j][i] are
    bitwise equal, and the underlying array is read-only.  An input that
    already is such an array, owned and read-only, bitwise symmetric and
    within ±DBL_MAX/2, is shared, since (A + Aᵀ)/2 would return its own
    bits.  Any other input (a writable array, a view, another dtype, a
    nested list, a nonsymmetric array, or one with a larger entry) is
    copied and averaged with its transpose, halving first where the sum
    would overflow, so writing to the input afterwards leaves the SymMat
    as it is.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        if _shareable(entries):
            a = entries
        else:
            a = _as_square_array(entries)
            a = (a + a.T) / 2.0 if math.isfinite(np.vdot(a, a)) else _average_large(a)
            a.flags.writeable = False
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("SymMat is immutable")

    @property
    def a(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @staticmethod
    def zero(n: int) -> "SymMat":
        return SymMat(np.zeros((n, n)))

    @staticmethod
    def identity(n: int) -> "SymMat":
        return SymMat(np.eye(n))

    @staticmethod
    def diag(values: Sequence[float]) -> "SymMat":
        return SymMat(np.diag(np.asarray(values, dtype=float)))

    @staticmethod
    def from_outer(v: Sequence[float]) -> "SymMat":
        v = np.asarray(v, dtype=float)
        return SymMat(np.outer(v, v))

    def inner(self, other: "SymMat") -> float:
        """Trace inner product <S, T> = trace(S T)."""
        return float(np.sum(self._a * other._a))

    def norm(self) -> float:
        return float(np.linalg.norm(self._a))

    def scale_factor(self) -> float:
        """Relative-tolerance scale 1 + Frobenius norm."""
        return 1.0 + self.norm()

    def embed(self, n: int, offset: int) -> "SymMat":
        """Place this matrix as a principal block of an order-n zero matrix."""
        out = np.zeros((n, n))
        k = self.n
        out[offset : offset + k, offset : offset + k] = self._a
        return SymMat(out)

    def allclose(self, other: "SymMat", tol: float = RECON_TOL) -> bool:
        scale = 1.0 + max(self.norm(), other.norm())
        return bool(np.max(np.abs(self._a - other._a)) <= tol * scale)

    def __add__(self, other: "SymMat") -> "SymMat":
        return SymMat(self._a + other._a)

    def __sub__(self, other: "SymMat") -> "SymMat":
        return SymMat(self._a - other._a)

    def __neg__(self) -> "SymMat":
        return SymMat(-self._a)

    def __mul__(self, t: float) -> "SymMat":
        return SymMat(self._a * float(t))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SymMat(n={self.n})"


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition A = Q diag(lam) Qᵀ with lam sorted descending."""

    q: np.ndarray
    lam: np.ndarray


def _canonical_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(V) that depends only on the span.

    Column-pivoted Gram-Schmidt on the projector P = VVᵀ: take the column
    of largest remaining norm (ties to EIG_CLUSTER_TOL go to the lowest
    index), normalize it and deflate P in place; the last column needs no
    deflation.  A coordinate subspace gives its unit vectors in index
    order.
    """
    p = v @ v.T
    norms_sq = p.diagonal()  # a view: ‖P e_i‖² = P_ii for a projector
    out = np.empty_like(v)
    last = v.shape[1] - 1
    for j in range(last + 1):
        k = int(np.argmax(norms_sq >= norms_sq.max() - EIG_CLUSTER_TOL))
        out[:, j] = col = p[:, k] / np.sqrt(norms_sq[k])
        if j < last:
            p -= col[:, None] * col
    return out


def eig(a: SymMat) -> SpectralDecomp:
    """Deterministic spectral decomposition by LAPACK ``eigh``.

    Eigenvalues are returned in descending order.  Adjacent eigenvalues
    closer than EIG_CLUSTER_TOL·(1+‖A‖) form one cluster, and each cluster
    of two or more gets the canonical basis of its eigenspace, so the
    basis does not depend on the solver's path and diagonal input gives
    Q = I.  Each eigenvector is then sign-fixed so that its first
    coordinate above 1e-12 in magnitude is positive (a unit vector always
    has one).  Raises ValueError on a non-finite entry.

    The zero matrix (every entry +0.0, as in the zero rungs of a padded
    ladder) is one cluster filling the whole space, so it gives (0, I)
    directly, bit for bit what the general path returns; a matrix with a
    -0.0 entry takes the general path.
    """
    if not np.all(np.isfinite(a.a)):
        raise ValueError("eig: matrix has a non-finite entry")
    # A bit test, not a.a.any(): eigh gives -0.0 eigenvalues for a matrix
    # of -0.0 entries, and those bits must reach the caller unchanged.
    if not a.a.view(np.uint64).any():
        lam, q = np.zeros(a.n), np.eye(a.n)
    else:
        lam, v = np.linalg.eigh(a.a)
        lam, q = lam[::-1].copy(), v[:, ::-1].copy()
        gaps = lam[:-1] - lam[1:]
        cuts = [0, *(np.flatnonzero(gaps >= EIG_CLUSTER_TOL * a.scale_factor()) + 1), a.n]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo > 1:
                q[:, lo:hi] = _canonical_basis(q[:, lo:hi])
        lead = np.argmax(np.abs(q) > 1e-12, axis=0)
        q[:, q[lead, np.arange(a.n)] < 0] *= -1.0
    lam.flags.writeable = False
    q.flags.writeable = False
    return SpectralDecomp(q=q, lam=lam)


class PsdTag:
    POSITIVE_DEFINITE = "positive_definite"
    PSD_RANK_DEFICIENT = "psd_rank_deficient"
    NOT_PSD = "not_psd"


@dataclass(frozen=True)
class PsdClass:
    """Classification of a symmetric matrix against the PSD cone.

    ``evidence`` is the minimum eigenvalue; ``rank`` is the count of
    eigenvalues above the tolerance (meaningful unless NOT_PSD).  ``dec``
    is the decomposition the class was read from, kept so the tangent-space
    tests need not decompose the matrix again; it takes no part in ``==``.
    """

    tag: str
    rank: int
    evidence: float
    dec: SpectralDecomp = field(compare=False, repr=False)

    @property
    def is_psd(self) -> bool:
        return self.tag != PsdTag.NOT_PSD

    @property
    def is_positive_definite(self) -> bool:
        return self.tag == PsdTag.POSITIVE_DEFINITE


def classify_psd(a: SymMat, eps_psd: float = EPS_PSD) -> PsdClass:
    """Classify by eigenvalues against the relative tolerance eps_psd·(1+‖A‖)."""
    if eps_psd <= 0:
        raise ValueError("eps_psd must be positive")
    dec = eig(a)
    scale = a.scale_factor()
    lam_min = float(dec.lam[-1])
    thresh = eps_psd * scale
    if lam_min > thresh:
        return PsdClass(PsdTag.POSITIVE_DEFINITE, a.n, lam_min, dec)
    if lam_min < -thresh:
        return PsdClass(PsdTag.NOT_PSD, int(np.sum(dec.lam > thresh)), lam_min, dec)
    return PsdClass(PsdTag.PSD_RANK_DEFICIENT, int(np.sum(dec.lam > thresh)), lam_min, dec)


def check_orthonormal(q: np.ndarray) -> None:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise NonOrthonormalError(f"rotation must be square, got shape {q.shape}")
    dev = float(np.max(np.abs(q.T @ q - np.eye(q.shape[0]))))
    if dev > ORTH_TOL:
        raise NonOrthonormalError(f"‖QᵀQ - I‖_max = {dev:.3e} exceeds {ORTH_TOL:.1e}")


def rotate(a: SymMat, q: np.ndarray) -> SymMat:
    """Congruence QᵀAQ by an orthonormal Q; preserves eigenvalues and ⟨·,·⟩."""
    check_orthonormal(q)
    if q.shape[0] != a.n:
        raise ValueError("rotation order does not match matrix order")
    return SymMat(q.T @ a.a @ q)


@dataclass(frozen=True)
class TangentWitness:
    """Explicit pair (W, R) realizing V = W + Wᵀ with [[U,W],[Wᵀ,R]] PSD."""

    w: np.ndarray
    r: SymMat

    def block_matrix(self, u: SymMat) -> SymMat:
        n = u.n
        big = np.zeros((2 * n, 2 * n))
        big[:n, :n] = u.a
        big[:n, n:] = self.w
        big[n:, :n] = self.w.T
        big[n:, n:] = self.r.a
        return SymMat(big)


@dataclass(frozen=True)
class TangentResult:
    """Outcome of a tan(U) membership test.

    Off membership, ``violation`` is (i, j, magnitude): the worst
    offending entry of QᵀVQ outside the leading rank(U) rows and columns,
    indices in U's eigenbasis.  ``tangent_witness`` gives a member's (W, R).
    """

    member: bool
    violation: Optional[tuple[int, int, float]] = None


def _tangent_witness_from_eigbasis(
    q: np.ndarray, lam_min_pos: float, v_rot: np.ndarray, r: int, v_norm: float
) -> TangentWitness:
    # Put all of V's cross-block mass in W's top rows so the rows of the
    # block matrix matching U's nullspace stay (numerically) zero; the
    # Schur complement R - Wᵀ U⁺ W ⪰ 0 then holds for R = tI with the
    # explicit bound below.
    n = q.shape[0]
    w_rot = np.zeros((n, n))
    w_rot[:r, :r] = v_rot[:r, :r] / 2.0
    w_rot[:r, r:] = v_rot[:r, r:]
    w_rot[r:, r:] = v_rot[r:, r:] / 2.0  # below-tolerance residue, kept exact
    w = q @ w_rot @ q.T
    t = 1.0 if r == 0 else v_norm**2 / lam_min_pos + 1.0
    return TangentWitness(w=w, r=SymMat(np.eye(n) * t))


def _tangent_test(
    u: SymMat | PsdClass, v: SymMat, eps: float
) -> tuple[PsdClass, Optional[np.ndarray], Optional[tuple[int, int, float]]]:
    """U's class, QᵀVQ (None when rank(U) = 0) and the worst violation of
    V ∈ tan(U), or None on membership."""
    ucls = u if isinstance(u, PsdClass) else classify_psd(u, eps)
    if not ucls.is_psd:
        raise NotPsdInputError(f"U is not PSD (λ_min = {ucls.evidence:.3e})")
    r, q = ucls.rank, ucls.dec.q
    if q.shape[0] != v.n:
        raise ValueError("U and V must have the same order")
    v_scale = 1.0 + v.norm()
    if r == 0:
        # Degenerate U ≈ 0: membership iff V ≈ 0.
        mags = np.abs(v.a)
        i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
        if mags[i, j] <= eps * v_scale:
            return ucls, None, None
        return ucls, None, (int(i), int(j), float(mags[i, j]))
    v_rot = q.T @ v.a @ q
    trailing = np.abs(v_rot[r:, r:])
    if trailing.size:
        i, j = np.unravel_index(int(np.argmax(trailing)), trailing.shape)
        if trailing[i, j] > eps * v_scale:
            return ucls, v_rot, (int(i + r), int(j + r), float(trailing[i, j]))
    return ucls, v_rot, None


def tan_contains(u: SymMat | PsdClass, v: SymMat, eps: float = EPS_PSD) -> TangentResult:
    """Test V ∈ tan(U) for PSD U.

    Rotation to U's eigenbasis reduces the test to a zero-pattern check:
    with r = rank(U), every entry of QᵀVQ outside the leading r rows and
    columns must vanish below eps·(1+‖V‖).  U = 0 needs no rotation:
    tan(0) = {0}.  U may be given as its PsdClass, made at the same eps.
    """
    violation = _tangent_test(u, v, eps)[2]
    return TangentResult(member=violation is None, violation=violation)


def tangent_witness(u: SymMat | PsdClass, v: SymMat, eps: float = EPS_PSD) -> TangentWitness:
    """The witness (W, R) of V ∈ tan(U), by the test of tan_contains.

    Raises ValueError when V is not in tan(U).  U may be given as its
    PsdClass, made at the same eps.
    """
    ucls, v_rot, violation = _tangent_test(u, v, eps)
    if violation is not None:
        raise ValueError("certificate rung fails tangent membership; cannot embed")
    n, r = v.n, ucls.rank
    if r == 0:
        return TangentWitness(w=np.zeros((n, n)), r=SymMat.identity(n))
    return _tangent_witness_from_eigbasis(
        ucls.dec.q, float(ucls.dec.lam[r - 1]), v_rot, r, v.norm()
    )


def psd_plus_tan_contains(
    u: SymMat | PsdClass, z: SymMat, eps: float = EPS_PSD
) -> tuple[bool, float]:
    """Test Z ∈ S₊ + tan(U) for PSD U.

    In U's eigenbasis with rank r, membership holds exactly when the
    trailing (n-r)×(n-r) block of the rotated Z is PSD.  Returns the
    verdict and the minimum eigenvalue of that block (0.0 when empty).
    U may be given as its PsdClass, made at the same eps.
    """
    ucls = u if isinstance(u, PsdClass) else classify_psd(u, eps)
    if not ucls.is_psd:
        raise NotPsdInputError(f"U is not PSD (λ_min = {ucls.evidence:.3e})")
    r, q = ucls.rank, ucls.dec.q
    if q.shape[0] != z.n:
        raise ValueError("U and Z must have the same order")
    if r == z.n:
        return True, 0.0
    block = z if r == 0 else SymMat(q[:, r:].T @ z.a @ q[:, r:])
    cls = classify_psd(block, eps)
    return cls.is_psd, cls.evidence


def split_psd_plus_tan(
    u: SymMat | PsdClass, z: SymMat, eps: float = EPS_PSD
) -> tuple[SymMat, SymMat]:
    """Decompose Z = P + V with P PSD and V ∈ tan(U); requires membership.

    P carries the trailing block of Z in U's eigenbasis, V the rest.  U may
    be given as its PsdClass, made at the same eps.
    """
    ucls = u if isinstance(u, PsdClass) else classify_psd(u, eps)
    ok, lam_min = psd_plus_tan_contains(ucls, z, eps)
    if not ok:
        raise ValueError(f"Z is not in S₊ + tan(U): trailing block λ_min = {lam_min:.3e}")
    r, q = ucls.rank, ucls.dec.q
    n = z.n
    if r == 0:
        return z, SymMat.zero(n)
    if r == n:
        return SymMat.zero(n), z
    z_rot = q.T @ z.a @ q
    p_rot = np.zeros((n, n))
    p_rot[r:, r:] = z_rot[r:, r:]
    p = SymMat(q @ p_rot @ q.T)
    return p, z - p
