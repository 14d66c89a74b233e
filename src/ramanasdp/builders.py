"""Explicit standard-form SDPs for the exact duals and alternative systems.

Every system here is emitted as one StandardFormSdp: a list of PSD block
variables plus one free-scalar vector, linear equality constraints, and a
linear objective.  The tangent-space constraint V ∈ tan(U) is what makes
the exact dual an explicit SDP: the existential witness pair (W, R) of

    V = W + Wᵀ,   [[U, W], [Wᵀ, R]] PSD

becomes a single PSD block variable T of order 2n whose upper-left corner
is tied entrywise to U; W and R are addressed as sub-blocks of T, and V
is the derived expression W + Wᵀ.

The exact dual, the exact alternative system and the exact primal share
one ladder, assembled once: rungs i = 1..n-1 with PSD blocks U_i and
V_i ∈ tan(U_{i-1}) carried by a coupling block T_i (none for i = 1, as
U_0 = 0), under a head Z = P + V_n with P PSD and V_n ∈ tan(U_{n-1})
carried by T_n, named Thead.  The three systems differ only in Z
(C - 𝒜*y, 𝒜*y or X) and in the rung equations.  Order 1 is the
zero-rung ladder: one block P with Z = P.  For every n the ladder has
2n-1 PSD blocks (n of order n, n-1 of order 2n); the exact dual with m
equalities has m·n free scalars.

Systems built:

  * build_dram     — the exact dual: max <b,y> with an n-1 rung ladder
                     y^i, U_i, V_i and head constraint
                     C - 𝒜*y ∈ S₊ + tan(U_{n-1}).
  * build_alt_ram  — the exact alternative system: same ladder, head
                     𝒜*y ∈ S₊ + tan(U_{n-1}) and <b, y> = -1; feasible
                     exactly when the primal is infeasible.
  * build_pram     — the exact primal of the dual: min <C,X> subject to
                     𝒜X = b, a ladder with 𝒜(U_i+V_i) = 0 and
                     <C, U_i+V_i> = 0, and X ∈ S₊ + tan(U_{n-1}).
  * build_dstrong  — the strong dual: given the max-rank primal solution
                     Q diag(0, Λ_r) Qᵀ, only the trailing r-block of the
                     rotated slack is required PSD.
  * build_pstrong  — the strong primal: given the max-rank dual slack
                     Q diag(Λ_r, 0) Qᵀ, only the leading r-block of the
                     rotated X is required PSD.
  * build_red      — the equality-form rewrite of the dual over the slack
                     variable Z, via the orthogonal complement basis.

The builders never solve anything; rotation data for the strong systems
is produced upstream by the RR-form construction.

Every array a system holds is read-only.  No ladder coefficient matrix
depends on the rung index, so each distinct one (a rung's or the head's
sign·E_pq or sign·A_t, its order-2n coupling matrix, the corner ties'
matrices) is made once per build and shared by every constraint that
uses it: a ladder system references O(n³) matrices but holds O(n²).
The SDPA writer formats each shared matrix once per write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import (
    INDEP_TOL,
    DependentConstraintsError,
    DualComplement,
    SdpInstance,
    apply_at,
    complement_basis,
    constraint_stack,
    dual_slack,
    svec_index,
    svec_order,
)
from .symmat import EPS_PSD, SymMat, TangentResult, check_orthonormal, classify_psd
from .symmat import split_psd_plus_tan, tan_contains

SENSE_MIN = "min"
SENSE_MAX = "max"


@dataclass(frozen=True)
class PsdBlock:
    name: str
    order: int


@dataclass(frozen=True)
class VarSlot:
    """Location of a named mathematical variable inside the SDP storage.

    kinds: free_vec (offset/length into the free vector), free_sym
    (upper-triangle layout of a symmetric matrix in the free vector),
    block (a whole PSD block), sub_block (rectangular part of a block),
    tan_sum (derived value W + Wᵀ from a coupling block).
    """

    kind: str
    block: Optional[str] = None
    offset: int = 0
    length: int = 0
    order: int = 0
    row0: int = 0
    col0: int = 0
    rows: int = 0
    cols: int = 0


@dataclass(frozen=True)
class Constraint:
    """Linear equality Σ_B <mats[B], Y_B> + free·u = rhs."""

    name: str
    mats: dict[str, np.ndarray]
    free: np.ndarray
    rhs: float


@dataclass(frozen=True)
class StandardFormSdp:
    system: str
    sense: str
    blocks: tuple[PsdBlock, ...]
    n_free: int
    objective_mats: dict[str, np.ndarray]
    objective_free: np.ndarray
    constraints: tuple[Constraint, ...]
    var_map: dict[str, VarSlot]
    meta: dict = field(default_factory=dict)


@dataclass
class Assignment:
    """A full variable assignment: one symmetric array per PSD block plus
    the free vector."""

    blocks: dict[str, np.ndarray]
    free: np.ndarray


def constraint_value(c: Constraint, assign: Assignment) -> float:
    total = float(c.free @ assign.free) if c.free.size else 0.0
    for name, k in c.mats.items():
        total += float(np.sum(k * assign.blocks[name]))
    return total


def residuals(sdp: StandardFormSdp, assign: Assignment) -> np.ndarray:
    return np.array([constraint_value(c, assign) - c.rhs for c in sdp.constraints])


def max_violation(sdp: StandardFormSdp, assign: Assignment) -> float:
    res = residuals(sdp, assign)
    return float(np.max(np.abs(res))) if res.size else 0.0


def min_block_eigenvalue(sdp: StandardFormSdp, assign: Assignment) -> float:
    worst = 0.0
    for b in sdp.blocks:
        lam = float(np.linalg.eigvalsh(assign.blocks[b.name])[0])
        worst = min(worst, lam)
    return worst


def objective_value(sdp: StandardFormSdp, assign: Assignment) -> float:
    total = float(sdp.objective_free @ assign.free) if sdp.objective_free.size else 0.0
    for name, k in sdp.objective_mats.items():
        total += float(np.sum(k * assign.blocks[name]))
    return total


def extract(sdp: StandardFormSdp, assign: Assignment, name: str) -> np.ndarray:
    """Resolve a var_map name against an assignment."""
    slot = sdp.var_map[name]
    if slot.kind == "free_vec":
        return assign.free[slot.offset : slot.offset + slot.length].copy()
    if slot.kind == "free_sym":
        vals = assign.free[slot.offset : slot.offset + slot.length]
        out = np.zeros((slot.order, slot.order))
        for v, (i, j) in zip(vals, svec_order(slot.order)):
            out[i, j] = out[j, i] = v
        return out
    if slot.kind == "block":
        return assign.blocks[slot.block].copy()
    if slot.kind == "sub_block":
        blk = assign.blocks[slot.block]
        return blk[slot.row0 : slot.row0 + slot.rows, slot.col0 : slot.col0 + slot.cols].copy()
    if slot.kind == "tan_sum":
        blk = assign.blocks[slot.block]
        n = slot.order
        w = blk[:n, n:]
        return w + w.T
    raise ValueError(f"unknown slot kind {slot.kind!r}")


def _e_sym(n: int, p: int, q: int) -> np.ndarray:
    """Coefficient matrix with <E, Y> = Y[p, q]."""
    e = np.zeros((n, n))
    if p == q:
        e[p, p] = 1.0
    else:
        e[p, q] = e[q, p] = 0.5
    return e


def _free_sym_coeffs(a: np.ndarray) -> np.ndarray:
    """Coefficients c with c·x_utri = <A, X> for upper-triangle layout and
    symmetric X; A itself need not be symmetric."""
    n = a.shape[0]
    i, j = svec_index(n)
    c = a[i, j]
    c[n:] += a[j[n:], i[n:]]
    return c


def dram_size(n: int, m: int) -> tuple[int, int]:
    """(PSD block count, free scalar count) of the exact dual: n-1 rungs
    U_i, n-1 coupling blocks T_2..T_n and the head P, with y, y^1..y^{n-1}
    free.  Order 1 is the zero-rung ladder: one block P, m scalars."""
    return 2 * n - 1, m * n


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _plus_tangent(
    psd: str, t: Optional[str], k: np.ndarray, sign: float, shared: dict
) -> dict[str, np.ndarray]:
    """Coefficient mats of sign·<K, S + V> for the PSD block S named psd and
    V = W + Wᵀ, W = T[:n, n:] of the coupling block named t.  Without a
    coupling block V = 0, as for V_1 ∈ tan(U_0) = {0}.  The frozen sign·K
    and its coupling matrix are made once per (K, sign) and kept in shared
    by id(K), next to K itself so that the id is not reused."""
    key = (id(k), sign)
    if key not in shared:
        n = k.shape[0]
        c = np.zeros((2 * n, 2 * n))
        c[:n, n:] = k
        c[n:, :n] = k.T
        shared[key] = (k, _frozen(sign * k), _frozen(sign * c))
    _, psd_mat, t_mat = shared[key]
    return {psd: psd_mat} if t is None else {psd: psd_mat, t: t_mat}


def _ladder_system(
    inst: SdpInstance,
    system: str,
    sense: str,
    *,
    rungs: Iterable[Iterable[tuple]],
    rung_sign: float,
    head_sign: float,
    head_free: np.ndarray,
    head_rhs: np.ndarray,
    objective_free: np.ndarray,
    slots: dict[str, VarSlot],
    first: Sequence[Constraint] = (),
    last: Sequence[Constraint] = (),
) -> StandardFormSdp:
    """The one ladder assembly behind dram, altram and pram.

    Rows, in order: first; for each rung i = 1..n-1 its rows (suffix, K,
    free) from rungs, read as rung_sign·<K, U_i + V_i> + free·u = 0 (no
    mats when K is None); the corner ties T_i[:n, :n] = U_{i-1} for i = 2..n;
    the head rows head_sign·(P + Vhead) + head_free[idx]·u = head_rhs
    entrywise in svec order; last.  With n = 1 there are no rungs, no
    coupling blocks and no ties, and the head reads head_sign·P.  No
    coefficient matrix depends on the rung: each distinct one is made once,
    frozen, and shared by every row that uses it.
    """
    n = inst.n
    n_free = objective_free.size
    shared: dict = {}  # _plus_tangent's matrices
    tie_mats = [(_frozen(_e_sym(2 * n, p, q)), _frozen(-_e_sym(n, p, q))) for p, q in svec_order(n)]
    no_free = _frozen(np.zeros(n_free))
    blocks = [PsdBlock(f"U{i}", n) for i in range(1, n)]
    vm = {f"U{i}": VarSlot(kind="block", block=f"U{i}", order=n) for i in range(1, n)}
    coupling = {}  # rung i -> its coupling block T_i; rung n is the head
    ties = []
    for i in range(2, n + 1):
        tag = "head" if i == n else str(i)
        t = coupling[i] = f"T{tag}"
        blocks.append(PsdBlock(t, 2 * n))
        vm[f"W{tag}"] = VarSlot(
            kind="sub_block", block=t, row0=0, col0=n, rows=n, cols=n, order=n
        )
        vm[f"R{tag}"] = VarSlot(
            kind="sub_block", block=t, row0=n, col0=n, rows=n, cols=n, order=n
        )
        vm[f"V{tag}"] = VarSlot(kind="tan_sum", block=t, order=n)
        for (p, q), (corner, prev_u) in zip(svec_order(n), tie_mats):
            ties.append(
                Constraint(
                    name=f"tie{tag}[{p},{q}]",
                    mats={t: corner, f"U{i - 1}": prev_u},
                    free=no_free,
                    rhs=0.0,
                )
            )
    blocks.append(PsdBlock("P", n))
    vm["P"] = VarSlot(kind="block", block="P", order=n)
    vm.update(slots)
    cons = list(first)
    for i, rows in enumerate(rungs, start=1):
        for suffix, k, free in rows:
            mats = (
                {} if k is None else _plus_tangent(f"U{i}", coupling.get(i), k, rung_sign, shared)
            )
            cons.append(Constraint(name=f"rung{i}_{suffix}", mats=mats, free=free, rhs=0.0))
    cons += ties
    for idx, (p, q) in enumerate(svec_order(n)):
        cons.append(
            Constraint(
                name=f"head_decomp[{p},{q}]",
                mats=_plus_tangent("P", coupling.get(n), _e_sym(n, p, q), head_sign, shared),
                free=head_free[idx],
                rhs=float(head_rhs[p, q]),
            )
        )
    cons += last
    return StandardFormSdp(
        system=system,
        sense=sense,
        blocks=tuple(blocks),
        n_free=n_free,
        objective_mats={},
        objective_free=objective_free,
        constraints=tuple(cons),
        var_map=vm,
        meta={"n": n, "m": inst.m},
    )


def _at_rows(inst: SdpInstance, n_free: int, off: int) -> np.ndarray:
    """Row idx holds the coefficients of (𝒜*y)[p, q], (p, q) the idx-th
    svec pair, for y stored at free offset off."""
    i, j = svec_index(inst.n)
    rows = np.zeros((i.size, n_free))
    for t, a in enumerate(inst.a):
        rows[:, off + t] = a.a[i, j]
    return _frozen(rows)


def _b_row(inst: SdpInstance, n_free: int, off: int) -> np.ndarray:
    """Coefficients of <b, y> for y stored at free offset off."""
    row = np.zeros(n_free)
    row[off : off + inst.m] = inst.b
    return _frozen(row)


def _dual_ladder(
    inst: SdpInstance,
    system: str,
    head_sign: float,
    head_rhs: np.ndarray,
    objective_free: np.ndarray,
    last: Sequence[Constraint] = (),
) -> StandardFormSdp:
    """dram and altram: free y, y^1..y^{n-1} (y^i at offset m·i); rung i
    reads 𝒜*y^i = U_i + V_i entrywise and <b, y^i> = 0."""
    n, m = inst.n, inst.m
    n_free = m * n
    units = [_e_sym(n, p, q) for p, q in svec_order(n)]  # one K per entry, for every rung

    def rung(i):  # a generator, so one rung's rows are alive at a time
        at = _at_rows(inst, n_free, m * i)
        for idx, (p, q) in enumerate(svec_order(n)):
            yield f"decomp[{p},{q}]", units[idx], at[idx]
        yield "rhs", None, _b_row(inst, n_free, m * i)

    slots = {"y": VarSlot(kind="free_vec", offset=0, length=m)}
    for i in range(1, n):
        slots[f"y{i}"] = VarSlot(kind="free_vec", offset=m * i, length=m)
    return _ladder_system(
        inst,
        system,
        SENSE_MAX,
        rungs=(rung(i) for i in range(1, n)),
        rung_sign=-1.0,
        head_sign=head_sign,
        head_free=_at_rows(inst, n_free, 0),
        head_rhs=head_rhs,
        last=last,
        objective_free=objective_free,
        slots=slots,
    )


def build_dram(inst: SdpInstance) -> StandardFormSdp:
    """The exact dual as an explicit SDP: max <b, y> over the ladder lift.

    Free variables are y followed by y^1..y^{n-1}; the head constraint
    C - 𝒜*y = P + (Whead + Wheadᵀ) encodes membership in S₊ + tan(U_{n-1}).
    The order-1 instance is the zero-rung ladder C - 𝒜*y = P, the
    classical dual.
    """
    n_free = inst.m * inst.n
    return _dual_ladder(inst, "dram", 1.0, inst.c.a, _b_row(inst, n_free, 0))


def build_alt_ram(inst: SdpInstance) -> StandardFormSdp:
    """The exact alternative system: feasible iff the instance is infeasible.

    Same ladder as the exact dual; the head becomes 𝒜*y = P + V with
    <b, y> = -1 and there is no objective.
    """
    n, n_free = inst.n, inst.m * inst.n
    head_rhs = Constraint(name="head_rhs", mats={}, free=_b_row(inst, n_free, 0), rhs=-1.0)
    return _dual_ladder(
        inst, "altram", -1.0, np.zeros((n, n)), _frozen(np.zeros(n_free)), (head_rhs,)
    )


def _primal_eq(inst: SdpInstance, n_free: int) -> list[Constraint]:
    """𝒜X = b over the utri layout of X at free offset 0."""
    cons = []
    for t, a in enumerate(inst.a):
        free = np.zeros(n_free)
        coeffs = _free_sym_coeffs(a.a)
        free[: coeffs.size] = coeffs
        cons.append(
            Constraint(name=f"primal_eq{t + 1}", mats={}, free=_frozen(free), rhs=float(inst.b[t]))
        )
    return cons


def build_pram(inst: SdpInstance) -> StandardFormSdp:
    """The exact primal of the dual: min <C, X> with an X-side ladder.

    X is a free symmetric matrix; its membership in S₊ + tan(U_{n-1}) is
    carried by X = P + Vhead.  Each rung imposes 𝒜(U_i + V_i) = 0 and
    <C, U_i + V_i> = 0.  Requires linearly independent A_i.
    """
    n, m = inst.n, inst.m
    if m:
        s = np.linalg.svd(constraint_stack(inst), compute_uv=False)
        if int(np.sum(s > max(s[0], 1.0) * INDEP_TOL)) < m:
            raise DependentConstraintsError("A_i are linearly dependent")
    nn = n * (n + 1) // 2
    no_free = _frozen(np.zeros(nn))
    rows = [(f"a{t + 1}", a.a, no_free) for t, a in enumerate(inst.a)] + [("c", inst.c.a, no_free)]
    return _ladder_system(
        inst,
        "pram",
        SENSE_MIN,
        rungs=[rows] * (n - 1),
        rung_sign=1.0,
        head_sign=-1.0,
        head_free=_frozen(np.eye(nn)),
        head_rhs=np.zeros((n, n)),
        objective_free=_frozen(_free_sym_coeffs(inst.c.a)),
        slots={"X": VarSlot(kind="free_sym", offset=0, length=nn, order=n)},
        first=_primal_eq(inst, nn),
    )


@dataclass(frozen=True)
class StrongDualSpec:
    """Rotation and max-rank order pinning a strong system.

    Dual side: the max-rank primal solution is Q diag(0, Λ_r) Qᵀ and the
    trailing r-block of the rotated slack must be PSD.  Primal side: the
    max-rank dual slack is Q diag(Λ_r, 0) Qᵀ and the leading r-block of
    the rotated X must be PSD.
    """

    q: np.ndarray
    r: int

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def validate(self, n: int) -> None:
        check_orthonormal(self.q)
        if self.q.shape[0] != n:
            raise ValueError("rotation order mismatch")
        if not 0 <= self.r <= n:
            raise ValueError(f"r = {self.r} outside 0..{n}")


def strong_spec_from_rr(rr) -> StrongDualSpec:
    """Dual-side spec from a feasible RR form: Q from the reformulation,
    r the order of the trailing max-rank block."""
    n = rr.reformulated.n
    return StrongDualSpec(q=rr.ref.q.copy(), r=n - int(sum(rr.r)))


def pstrong_spec_from_slack(slack: SymMat, eps: float = EPS_PSD) -> StrongDualSpec:
    """Primal-side spec from a max-rank dual slack: descending eigenbasis
    puts the PD block in the leading corner."""
    cls = classify_psd(slack, eps)
    if not cls.is_psd:
        raise ValueError("max-rank slack must be PSD")
    return StrongDualSpec(q=cls.dec.q.copy(), r=cls.rank)


def _rotated_entry(q: np.ndarray, p: int, qq: int, s: int, sign: float):
    """sign·(Q V Qᵀ)[p, qq] as coefficients on a symmetric V split at s.

    Returns the leading s×s and the trailing diagonal blocks of
    sign·outer(Q[p], Q[qq]) and the row-major coefficients of V[:s, s:],
    into which both off-diagonal blocks fold.  Adding 0.0 turns the
    products' -0.0 into 0.0.
    """
    c = sign * np.outer(q[p], q[qq]) + 0.0
    return c[:s, :s], c[s:, s:], (c[:s, s:] + c[s:, :s].T).reshape(-1)


def build_dstrong(inst: SdpInstance, spec: StrongDualSpec) -> StandardFormSdp:
    """The strong dual: C - 𝒜*y = QVQᵀ with only V₂₂ (trailing r) PSD."""
    n, m = inst.n, inst.m
    spec.validate(n)
    r = spec.r
    q = spec.q
    f = n - r  # order of the free leading part
    # Free layout: y (m), V11 utri (f(f+1)/2), V12 row-major (f*r).
    n11 = f * (f + 1) // 2
    n_free = m + n11 + f * r
    blocks = (PsdBlock("V22", r),) if r else ()
    cons: list[Constraint] = []
    for p, qq in svec_order(n):
        k11, k22, k12 = _rotated_entry(q, p, qq, f, 1.0)
        free = _frozen(np.concatenate([[a.a[p, qq] for a in inst.a], _free_sym_coeffs(k11), k12]))
        mats = {"V22": _frozen((k22 + k22.T) / 2.0)} if np.any(k22) else {}
        cons.append(
            Constraint(
                name=f"slack_eq[{p},{qq}]", mats=mats, free=free, rhs=float(inst.c.a[p, qq])
            )
        )
    obj = _b_row(inst, n_free, 0)
    vm = {
        "y": VarSlot(kind="free_vec", offset=0, length=m),
        "V11": VarSlot(kind="free_sym", offset=m, length=n11, order=f),
    }
    if r:
        vm["V22"] = VarSlot(kind="block", block="V22", order=r)
    return StandardFormSdp(
        system="dstrong",
        sense=SENSE_MAX,
        blocks=blocks,
        n_free=n_free,
        objective_mats={},
        objective_free=obj,
        constraints=tuple(cons),
        var_map=vm,
        meta={"n": n, "m": m, "q": q.copy(), "r": r},
    )


def build_pstrong(inst: SdpInstance, spec: StrongDualSpec) -> StandardFormSdp:
    """The strong primal: min <C,X>, 𝒜X = b, X = QVQᵀ, leading r-block of
    V PSD (the max-rank slack's PD block position)."""
    n, m = inst.n, inst.m
    spec.validate(n)
    r = spec.r
    q = spec.q
    f = n - r
    nn = n * (n + 1) // 2
    # Free layout: X utri (nn), V22 utri (f(f+1)/2), V12 row-major (r*f).
    n22 = f * (f + 1) // 2
    n_free = nn + n22 + r * f
    blocks = (PsdBlock("V11", r),) if r else ()
    cons = _primal_eq(inst, n_free)
    x_unit = np.eye(nn)
    for idx, (p, qq) in enumerate(svec_order(n)):
        k11, k22, k12 = _rotated_entry(q, p, qq, r, -1.0)
        free = _frozen(np.concatenate([x_unit[idx], _free_sym_coeffs(k22), k12]))
        mats = {"V11": _frozen((k11 + k11.T) / 2.0)} if np.any(k11) else {}
        cons.append(
            Constraint(name=f"shape_eq[{p},{qq}]", mats=mats, free=free, rhs=0.0)
        )
    obj = np.zeros(n_free)
    obj[:nn] = _free_sym_coeffs(inst.c.a)
    vm = {
        "X": VarSlot(kind="free_sym", offset=0, length=nn, order=n),
        "V22": VarSlot(kind="free_sym", offset=nn, length=n22, order=f),
    }
    if r:
        vm["V11"] = VarSlot(kind="block", block="V11", order=r)
    return StandardFormSdp(
        system="pstrong",
        sense=SENSE_MIN,
        blocks=blocks,
        n_free=n_free,
        objective_mats={},
        objective_free=_frozen(obj),
        constraints=tuple(cons),
        var_map=vm,
        meta={"n": n, "m": m, "q": q.copy(), "r": r},
    )


def build_red(inst: SdpInstance) -> tuple[StandardFormSdp, DualComplement]:
    """Equality-form rewrite of the dual over the slack Z.

    Z is feasible iff Z = C - 𝒜*y for a dual-feasible y, and
    <X0, Z> + <y, b> = <X0, C> is constant, so optima correspond too.
    """
    comp = complement_basis(inst)
    n = inst.n
    no_free = _frozen(np.zeros(0))
    cons = [
        Constraint(
            name=f"red_eq{j + 1}",
            mats={"Z": comp.d[j].a},
            free=no_free,
            rhs=float(comp.d_vals[j]),
        )
        for j in range(comp.ell)
    ]
    sdp = StandardFormSdp(
        system="red",
        sense=SENSE_MIN,
        blocks=(PsdBlock("Z", n),),
        n_free=0,
        objective_mats={"Z": comp.x0.a},
        objective_free=no_free,
        constraints=tuple(cons),
        var_map={"Z": VarSlot(kind="block", block="Z", order=n)},
        meta={"n": n, "m": inst.m, "ell": comp.ell},
    )
    return sdp, comp


def red_to_instance(comp: DualComplement) -> SdpInstance:
    """View the equality-form rewrite as a plain instance over Z."""
    return SdpInstance(a=comp.d, b=comp.d_vals.copy(), c=comp.x0)


def _utri_values(a: np.ndarray) -> np.ndarray:
    return a[svec_index(a.shape[0])]


def _coupling_block(u: SymMat, res: TangentResult) -> np.ndarray:
    """[[U, W],[Wᵀ, R]] from the synthesized witness of a tan(U) test."""
    if not res.member:
        raise ValueError("certificate rung fails tangent membership; cannot embed")
    return res.witness.block_matrix(u).a


def embed_certificate(sdp: StandardFormSdp, inst: SdpInstance, cert, eps: float = EPS_PSD) -> Assignment:
    """Map a verified ladder certificate onto the emitted SDP's variables.

    Tangent memberships become explicit coupling blocks via synthesized
    witnesses; the head matrix is split into its PSD part and a tangent
    part in the eigenbasis of the last U.
    """
    from .verify import SYSTEM_DRAM, SYSTEM_PRAM, pad_ladder  # verify imports builders

    cert = pad_ladder(cert, inst)
    n = inst.n
    if sdp.system != cert.system:
        raise ValueError(f"certificate is for {cert.system}, SDP is {sdp.system}")
    if sdp.system == SYSTEM_PRAM:
        free = _utri_values(cert.x.a)
        head_z = cert.x
    else:
        parts = [np.asarray(cert.y, dtype=float)]
        parts += [np.asarray(r.y, dtype=float) for r in cert.ladder]
        free = np.concatenate(parts)
        head_z = (
            dual_slack(inst, cert.y)
            if sdp.system == SYSTEM_DRAM
            else apply_at(inst, cert.y)
        )
    blocks: dict[str, np.ndarray] = {}
    prev_u = SymMat.zero(n)
    for i, rung in enumerate(cert.ladder, start=1):
        blocks[f"U{i}"] = rung.u.a.copy()
        if i >= 2:
            blocks[f"T{i}"] = _coupling_block(prev_u, tan_contains(prev_u, rung.v, eps))
        prev_u = rung.u
    # One decomposition of the last U serves both the split and its witness.
    ucls = classify_psd(prev_u, eps)
    p_head, v_head = split_psd_plus_tan(ucls, head_z, eps)
    blocks["P"] = p_head.a.copy()
    if n > 1:
        blocks["Thead"] = _coupling_block(prev_u, tan_contains(ucls, v_head, eps))
    return Assignment(blocks=blocks, free=free)


def embed_strong_point(sdp: StandardFormSdp, inst: SdpInstance, spec: StrongDualSpec, point) -> Assignment:
    """Map a strong-system point onto the emitted SDP's variables."""
    n = inst.n
    r = spec.r
    f = n - r
    if sdp.system == "dstrong":
        y = np.asarray(point, dtype=float).reshape(-1)
        v = spec.q.T @ dual_slack(inst, y).a @ spec.q
        free = np.concatenate(
            [y, _utri_values(v[:f, :f]), v[:f, f:].reshape(-1)]
        )
        blocks = {"V22": v[f:, f:].copy()} if r else {}
        return Assignment(blocks=blocks, free=free)
    if sdp.system == "pstrong":
        x = point if isinstance(point, SymMat) else SymMat(point)
        v = spec.q.T @ x.a @ spec.q
        free = np.concatenate(
            [_utri_values(x.a), _utri_values(v[r:, r:]), v[:r, r:].reshape(-1)]
        )
        blocks = {"V11": v[:r, :r].copy()} if r else {}
        return Assignment(blocks=blocks, free=free)
    raise ValueError(f"not a strong system: {sdp.system}")
