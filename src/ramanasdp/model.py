"""Equality-form SDP instances, the constraint operator, and reformulations.

An instance is the data (A_1..A_m, b, C) of

    inf  <C, X>   s.t.  <A_i, X> = b_i (i = 1..m),  X PSD,

together with its implicit dual  sup <b, y>  s.t.  sum_i y_i A_i ⪯ C.
The constraint operator is 𝒜X = (<A_1,X>, ..., <A_m,X>)ᵀ with adjoint
𝒜*y = Σ y_i A_i; the dual slack is C - 𝒜*y.

A reformulation is an invertible recombination of the equality rows
(matrix M) together with a simultaneous rotation of all data matrices by
one orthonormal Q; it maps feasible sets by X ↦ QᵀXQ on the primal side
and y ↦ M⁻ᵀy on the dual side.

An instance holds its A_i once, as one read-only (m, n, n) stack; each
A_i in ``a`` is a SymMat viewing one matrix of it.  The operators read the
stack and sum over i in order from +0.0, as a loop over the A_i would.

classical_dual_instance rewrites the dual in equality form over its
slack Z as one more instance: its A_j are an orthonormal basis D_1..D_ℓ
of the orthogonal complement of span{A_i} in S^n (ℓ = n(n+1)/2 - m), its
b the values <D_j, C>, and its C the minimum-norm X0 with 𝒜X0 = b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .symmat import RECON_TOL, SymMat, check_orthonormal

# Relative threshold on singular values for invertibility / independence checks.
COND_TOL = 1e-10
INDEP_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions inconsistent with the instance."""


class SingularMError(ValueError):
    """Row-operation matrix M fails the invertibility check."""


class DependentConstraintsError(ValueError):
    """The constraint matrices A_i are linearly dependent beyond tolerance."""


class InconsistentRhsError(ValueError):
    """b is not in the range of the constraint operator."""


class InfeasibleInputError(ValueError):
    """A point required to be primal-feasible is not, beyond tolerance."""


def svec_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the fixed coordinate order on S^n:
    diagonal first, then off-diagonal pairs (i, j), i < j, lexicographic."""
    iu, ju = np.triu_indices(n, 1)
    d = np.arange(n)
    return np.concatenate([d, iu]), np.concatenate([d, ju])


def svec_order(n: int) -> list[tuple[int, int]]:
    """The coordinate order of svec_index as a list of (i, j) pairs."""
    i, j = svec_index(n)
    return list(zip(i.tolist(), j.tolist()))


def svec(a) -> np.ndarray:
    """Isometric vectorization of S^n (off-diagonals scaled by sqrt 2), of
    a SymMat or of each matrix of an (m, n, n) stack."""
    a = a.a if isinstance(a, SymMat) else a
    i, j = svec_index(a.shape[-1])
    out = a[..., i, j]
    out[..., a.shape[-1] :] *= np.sqrt(2.0)
    return out


def smat_stack(cols: np.ndarray, n: int) -> np.ndarray:
    """The inverse of svec of every column of cols, as one (d, n, n) array."""
    i, j = svec_index(n)
    vals = cols.T.astype(float)
    vals[:, n:] /= np.sqrt(2.0)
    out = np.zeros((vals.shape[0], n, n))
    out[:, i, j] = vals
    out[:, j, i] = vals
    return out


def smat(v: np.ndarray, n: int) -> SymMat:
    """Inverse of svec."""
    return SymMat(smat_stack(np.reshape(v, (-1, 1)), n)[0])


@dataclass(frozen=True)
class SdpInstance:
    """Immutable instance data (A_1..A_m, b, C) on S^n.

    ``a`` is given as a sequence of SymMats or as one (m, n, n) array of
    bitwise symmetric matrices.  The instance holds the A_i once, in
    ``stack``: an owned, read-only, C-contiguous float64 array as it is,
    any other input copied.  ``a`` is then the tuple of SymMats that view
    the matrices of ``stack``.
    """

    a: tuple[SymMat, ...]
    b: np.ndarray
    c: SymMat
    symmetrized: bool = field(default=False, compare=False)
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).reshape(-1)
        b.flags.writeable = False
        object.__setattr__(self, "b", b)
        n, stack = self.c.n, self.a
        if not isinstance(stack, np.ndarray):
            stack = tuple(stack)
            for i, ai in enumerate(stack):
                if ai.n != n:
                    raise DimensionMismatchError(f"A_{i + 1} has order {ai.n}, expected {n}")
            stack = np.array([ai.a for ai in stack]) if stack else np.empty((0, n, n))
        elif stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise DimensionMismatchError(f"A has shape {stack.shape}, expected (m, {n}, {n})")
        elif stack.dtype != np.float64 or stack.flags.writeable or not (
                stack.flags.owndata and stack.flags.c_contiguous):
            stack = np.array(stack, dtype=float)
        stack.flags.writeable = False
        if len(stack) != b.shape[0]:
            raise DimensionMismatchError("len(A) must equal len(b)")
        if not np.all(np.isfinite(b)):
            raise ValueError("b has a non-finite entry")
        if not np.all(np.isfinite(self.c.a)):
            raise ValueError("C has a non-finite entry")
        bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"A_{bad[0] + 1} has a non-finite entry")
        # A SymMat views its matrix, or copies one that is not bitwise
        # symmetric or has an entry beyond ±DBL_MAX/2.
        a = tuple(SymMat(ai) for ai in stack)
        bad = [i for i, ai in enumerate(a)
               if ai.a.base is not stack and ai.a.tobytes() != stack[i].tobytes()]
        if bad:
            raise ValueError(f"A_{bad[0] + 1} is not bitwise symmetric")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.c.n

    @property
    def m(self) -> int:
        return len(self.stack)

    def row_norms(self) -> np.ndarray:
        """The Frobenius norm of each A_i."""
        return np.array([np.linalg.norm(ai) for ai in self.stack])

    def scale_factor(self) -> float:
        return 1.0 + max([*self.row_norms().tolist(), self.c.norm(), float(np.linalg.norm(self.b))])

    @staticmethod
    def from_arrays(a_list: Sequence, b: Sequence[float], c) -> "SdpInstance":
        """Build an instance from raw arrays, symmetrizing each matrix.

        Non-symmetric input is accepted (only the symmetric part is seen
        by <A, X> with symmetric X); the ``symmetrized`` flag records
        that an adjustment happened.
        """
        adjusted = False
        mats = []
        for raw in a_list:
            arr = np.array(raw, dtype=float)
            if not np.array_equal(arr, arr.T):
                adjusted = True
            mats.append(SymMat(arr))
        c_arr = np.array(c, dtype=float)
        if not np.array_equal(c_arr, c_arr.T):
            adjusted = True
        return SdpInstance(a=tuple(mats), b=np.asarray(b, dtype=float), c=SymMat(c_arr), symmetrized=adjusted)


def apply_a(inst: SdpInstance, x: SymMat) -> np.ndarray:
    """The operator 𝒜X = (<A_1,X>, ..., <A_m,X>)ᵀ."""
    if x.n != inst.n:
        raise DimensionMismatchError(f"X has order {x.n}, instance has {inst.n}")
    return np.sum(inst.stack * x.a, axis=(1, 2))


def combine(w: np.ndarray, mats: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Σ_j w_ij·mats[j] for each row i of w, as one (len(w), n, n) stack.

    The sum runs over j in order from +0.0, as apply_at's does, so it keeps
    apply_at's bits: an einsum over j sums in another order when n = 1,
    and tensordot in another at every n.  Each term is an einsum outer
    product, which, unlike a broadcast product, buffers no operand."""
    out = np.zeros((len(w), n, n))
    for wj, aj in zip(w.T, mats):
        out += np.einsum("i,kl->ikl", wj, aj)
    return out


def apply_at(inst: SdpInstance, y: Sequence[float]) -> SymMat:
    """The adjoint 𝒜*y = Σ y_i A_i."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != inst.m:
        raise DimensionMismatchError(f"y has length {y.shape[0]}, instance has m = {inst.m}")
    out = np.zeros((inst.n, inst.n))
    for yi, ai in zip(y.tolist(), inst.stack):
        if yi != 0.0:
            out += yi * ai
    return SymMat(out)


def dual_slack(inst: SdpInstance, y: Sequence[float]) -> SymMat:
    """The slack matrix C - 𝒜*y of the dual."""
    return inst.c - apply_at(inst, y)


def weak_duality_gap(inst: SdpInstance, x: SymMat, y: Sequence[float]) -> float:
    """<C,X> - <b,y> for primal-feasible X; checks the slack identity.

    The identity <C,X> - <b,y> = <C - 𝒜*y, X> holds for every feasible X
    and every y; a violation beyond tolerance indicates corrupted input.
    """
    b_scale = 1.0 + float(np.linalg.norm(inst.b)) + x.norm()
    res = float(np.linalg.norm(apply_a(inst, x) - inst.b)) / b_scale
    if res > 1e3 * RECON_TOL:
        raise InfeasibleInputError(f"𝒜X - b relative residual {res:.3e} beyond tolerance")
    y = np.asarray(y, dtype=float).reshape(-1)
    gap = inst.c.inner(x) - float(inst.b @ y)
    via_slack = dual_slack(inst, y).inner(x)
    scale = 1.0 + abs(inst.c.inner(x)) + abs(float(inst.b @ y)) + x.norm()
    if abs(gap - via_slack) > 1e3 * RECON_TOL * scale:
        raise ArithmeticError(
            f"duality identity violated: {gap!r} vs {via_slack!r} at scale {scale:.3e}"
        )
    return gap


@dataclass(frozen=True)
class Reformulation:
    """Row-operation matrix M and accumulated rotation Q.

    The reformulated instance has A'_i = Σ_j M_ij QᵀA_jQ, b' = Mb and
    C' = QᵀCQ.
    """

    m_rows: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        m = np.array(self.m_rows, dtype=float)
        q = np.array(self.q, dtype=float)
        m.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "m_rows", m)
        object.__setattr__(self, "q", q)

    @staticmethod
    def identity(m: int, n: int) -> "Reformulation":
        return Reformulation(np.eye(m), np.eye(n))

    def validate(self) -> None:
        check_orthonormal(self.q)
        if self.m_rows.size:
            s = np.linalg.svd(self.m_rows, compute_uv=False)
            if s[-1] <= COND_TOL * max(1.0, s[0]):
                raise SingularMError(
                    f"M is singular to tolerance (σ_min = {s[-1]:.3e}, σ_max = {s[0]:.3e})"
                )

    def inverse(self) -> "Reformulation":
        m_inv = np.linalg.inv(self.m_rows) if self.m_rows.size else self.m_rows.copy()
        return Reformulation(m_inv, self.q.T)

    def transport_dual(self, y: np.ndarray) -> np.ndarray:
        """Map a dual vector y of the original instance to the reformulated one (M⁻ᵀ y)."""
        return np.linalg.solve(self.m_rows.T, np.asarray(y, dtype=float))


def reformulate(inst: SdpInstance, ref: Reformulation) -> SdpInstance:
    """Apply row operations M and rotation Q to the instance data."""
    ref.validate()
    if ref.m_rows.shape != (inst.m, inst.m):
        raise DimensionMismatchError("M must be m×m")
    if ref.q.shape != (inst.n, inst.n):
        raise DimensionMismatchError("Q must be n×n")
    rotated = (SymMat(ref.q.T @ aj @ ref.q).a for aj in inst.stack)  # no rotated stack is held
    new_a = combine(ref.m_rows, rotated, inst.n)
    new_a.flags.writeable = False
    return SdpInstance(a=new_a, b=ref.m_rows @ inst.b, c=SymMat(ref.q.T @ inst.c.a @ ref.q))


def instances_close(i1: SdpInstance, i2: SdpInstance, tol: float = RECON_TOL) -> bool:
    """Tolerance-based equality of instance data."""
    if i1.n != i2.n or i1.m != i2.m:
        return False
    scale = max(i1.scale_factor(), i2.scale_factor())
    pairs = ((i1.b, i2.b), (i1.c.a, i2.c.a), (i1.stack, i2.stack))
    return all(np.max(np.abs(x - y)) <= tol * scale for x, y in pairs)


def constraint_stack(inst: SdpInstance) -> np.ndarray:
    """m × n(n+1)/2 matrix whose rows are svec(A_i), on one svec_index."""
    return svec(inst.stack)


def finite_stack(inst: SdpInstance) -> np.ndarray:
    """constraint_stack(inst), refused with ValueError unless it is finite.
    svec scales the off-diagonal entries by √2, so a finite entry above
    DBL_MAX/√2 ≈ 1.27e308 overflows in the stack."""
    with np.errstate(over="ignore"):
        stack = constraint_stack(inst)
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=1))
    if bad.size:
        raise ValueError(f"svec(A_{bad[0] + 1}) overflows: an off-diagonal entry of "
                         f"A_{bad[0] + 1} exceeds DBL_MAX/√2 in magnitude")
    return stack


def independent_stack(inst: SdpInstance) -> np.ndarray:
    """finite_stack(inst), refused unless its m rows are numerically
    independent: m singular values above INDEP_TOL·max(σ_max, 1)."""
    stack = finite_stack(inst)
    if inst.m:
        s = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(s > INDEP_TOL * max(s[0], 1.0)))
        if rank < inst.m:
            raise DependentConstraintsError(f"A_i have numerical rank {rank} < m = {inst.m}")
    return stack


def classical_dual_instance(inst: SdpInstance) -> SdpInstance:
    """The classical dual in equality form over its slack Z = C - 𝒜*y:

        inf <X0, Z>  s.t.  <D_j, Z> = <D_j, C> (j = 1..ℓ),  Z PSD.

    Z is feasible iff Z = C - 𝒜*y for a dual-feasible y, and
    <X0, Z> + <b, y> = <X0, C> is constant, so the dual's value is
    <X0, C> less this instance's value, and optima correspond.

    The D_j are smat of the last ℓ columns of Q in the complete QR of the
    svec stack's transpose: past the rank check its first m columns span
    the A_i, so the rest are an orthonormal basis of their complement.
    """
    n = inst.n
    stack = independent_stack(inst)
    q, _ = np.linalg.qr(stack.T, mode="complete")
    d_mats = smat_stack(q[:, inst.m :], n)
    d_mats.flags.writeable = False
    d_vals = np.sum(d_mats * inst.c.a, axis=(1, 2))
    if inst.m:
        x0_vec, residual, *_ = np.linalg.lstsq(stack, inst.b, rcond=None)
        res = float(np.linalg.norm(stack @ x0_vec - inst.b))
        if res > 1e3 * RECON_TOL * (1.0 + float(np.linalg.norm(inst.b))):
            raise InconsistentRhsError(f"b is not in range(𝒜): residual {res:.3e}")
        x0 = smat(x0_vec, n)
    else:
        x0 = SymMat.zero(n)
    return SdpInstance(a=d_mats, b=d_vals, c=x0)
