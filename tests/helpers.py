"""Shared instance builders, random generators and certificate-file
helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ramanasdp import (
    InductionBreakError,
    SdpInstance,
    SymMat,
    apply_a,
    normalize_ladder,
    symmat,
    verify_certificate,
)
from ramanasdp.builders import StandardFormSdp
from ramanasdp.facial import STATUS_FEASIBLE, RrForm, _reduced_instance, null_basis
from ramanasdp.model import smat, svec, svec_index
from ramanasdp.certfile import (
    certificate_to_text,
    check_instance_binding,
    parse_certificate_text,
    to_ramana_certificate,
)
from ramanasdp.symmat import EIG_CLUSTER_TOL, EPS_PSD


def inst_unattained() -> SdpInstance:
    """Order-3 instance: primal value 0 attained, dual value 0 unattained."""
    a1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    a2 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    a3 = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    c = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    return SdpInstance.from_arrays([a1, a2, a3], [0, 0, 1], c)


def inst_gap_raw() -> SdpInstance:
    """Order-4 duality-gap instance before the revealing row operations."""
    a1 = [[-4, 15, 6, 3], [15, 3, 0, 5], [6, 0, 5, 0], [3, 5, 0, 0]]
    a2 = [[-1, 6, 2, 1], [6, 1, 0, 2], [2, 0, 2, 0], [1, 2, 0, 0]]
    a3 = [[2, 3, 0, 0], [3, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    return SdpInstance.from_arrays([a1, a2, a3], [5, 2, 1], np.diag([1.0, 1, 1, 0]))


def inst_gap_rr() -> SdpInstance:
    """The same instance in rank-revealing form."""
    a1 = np.diag([1.0, 0, 0, 0])
    a2 = [[-5, 0, 2, 1], [0, 1, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]
    a3 = [[2, 3, 0, 0], [3, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    return SdpInstance.from_arrays([a1, a2, a3], [0, 0, 1], np.diag([1.0, 1, 1, 0]))


def inst_infeasible() -> SdpInstance:
    """Infeasible order-3 system whose classical alternative system fails."""
    a1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    a2 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    return SdpInstance.from_arrays([a1, a2], [0, -1], np.zeros((3, 3)))


def inst_strict(n: int = 3, target: float = 3.0) -> SdpInstance:
    return SdpInstance.from_arrays([np.eye(n)], [target], np.eye(n))


def random_sym(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMat:
    a = rng.standard_normal((n, n)) * scale
    return SymMat(a + a.T)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> SymMat:
    r = n if rank is None else rank
    if r == 0:
        return SymMat.zero(n)
    g = rng.standard_normal((n, r))
    return SymMat(g @ g.T)


def random_orthonormal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def canonical_basis_reference(v: np.ndarray) -> np.ndarray:
    """symmat._canonical_basis as a loop that builds a new deflated
    projector from np.outer at every column, the last one too: the
    reference the in-place deflation must match bit for bit."""
    p = v @ v.T
    out = np.empty_like(v)
    for j in range(v.shape[1]):
        norms_sq = p.diagonal()
        k = int(np.argmax(norms_sq >= norms_sq.max() - EIG_CLUSTER_TOL))
        out[:, j] = p[:, k] / np.sqrt(norms_sq[k])
        p = p - np.outer(out[:, j], out[:, j])
    return out


def eager_eig_reference(a: SymMat) -> tuple[np.ndarray, np.ndarray]:
    """(lam, Q) of symmat.eig computed eagerly, every cluster's canonical
    basis built and the signs fixed before returning: the reference that
    eig's basis, made on the first read of ``q``, must match bit for bit."""
    if not a.a.view(np.uint64).any():
        return np.zeros(a.n), np.eye(a.n)
    lam, v = np.linalg.eigh(a.a)
    lam, q = lam[::-1].copy(), v[:, ::-1].copy()
    gaps = lam[:-1] - lam[1:]
    cuts = [0, *(np.flatnonzero(gaps >= EIG_CLUSTER_TOL * a.scale_factor()) + 1), a.n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo > 1:
            q[:, lo:hi] = symmat._canonical_basis(q[:, lo:hi])
    lead = np.argmax(np.abs(q) > 1e-12, axis=0)
    q[:, q[lead, np.arange(a.n)] < 0] *= -1.0
    return lam, q


# Per-matrix loops over the A_i as SymMats: the references that the model's
# operators on the instance's one stack must match bit for bit.

def loop_apply_a(inst: SdpInstance, x: SymMat) -> np.ndarray:
    return np.array([ai.inner(x) for ai in inst.a])


def loop_apply_at(inst: SdpInstance, y) -> SymMat:
    out = np.zeros((inst.n, inst.n))
    for yi, ai in zip(y, inst.a):
        if yi != 0.0:
            out += yi * ai.a
    return SymMat(out)


def loop_reformulate(inst: SdpInstance, m_rows: np.ndarray, q: np.ndarray) -> SdpInstance:
    rotated = [SymMat(q.T @ ai.a @ q) for ai in inst.a]
    new_a = []
    for i in range(inst.m):
        acc = np.zeros((inst.n, inst.n))
        for j in range(inst.m):
            if m_rows[i, j] != 0.0:
                acc += m_rows[i, j] * rotated[j].a
        new_a.append(SymMat(acc))
    return SdpInstance(a=tuple(new_a), b=m_rows @ inst.b, c=SymMat(q.T @ inst.c.a @ q))


def loop_constraint_stack(inst: SdpInstance) -> np.ndarray:
    n = inst.n
    i, j = svec_index(n)
    out = np.empty((inst.m, i.size))
    for row, ai in zip(out, inst.a):
        row[:] = ai.a[i, j]
    out[:, n:] *= np.sqrt(2.0)
    return out


def random_instance(rng: np.random.Generator, n: int, m: int) -> SdpInstance:
    mats = [random_sym(rng, n) for _ in range(m)]
    return SdpInstance(
        a=tuple(mats), b=rng.standard_normal(m), c=random_sym(rng, n)
    )


def random_feasible_instance(
    rng: np.random.Generator, n: int, m: int, strictly: bool = True
) -> tuple[SdpInstance, SymMat]:
    """Instance with a known feasible X0 (PD when strictly=True)."""
    mats = [random_sym(rng, n) for _ in range(m)]
    if strictly:
        x0 = random_psd(rng, n) + 0.5 * SymMat.identity(n)
    else:
        x0 = random_psd(rng, n, rank=max(1, n - 1 - int(rng.integers(0, 2))))
    inst = SdpInstance(
        a=tuple(mats),
        b=np.array([ai.inner(x0) for ai in mats]),
        c=random_sym(rng, n),
    )
    return inst, x0


def random_dual_feasible_instance(
    rng: np.random.Generator, n: int, m: int
) -> tuple[SdpInstance, np.ndarray]:
    """Instance with a known dual-feasible y0 (C := sum y0_i A_i + PSD)."""
    mats = [random_sym(rng, n) for _ in range(m)]
    y0 = rng.standard_normal(m)
    s0 = random_psd(rng, n)
    c = SymMat(sum(y * ai.a for y, ai in zip(y0, mats)) + s0.a)
    inst = SdpInstance(a=tuple(mats), b=rng.standard_normal(m), c=c)
    return inst, y0


def assert_feasible(inst: SdpInstance, x: SymMat, tol: float = 1e-7) -> None:
    res = np.max(np.abs(apply_a(inst, x) - inst.b))
    assert res <= tol * (1.0 + float(np.linalg.norm(inst.b)) + x.norm()), res


def random_staircase_member(
    rng: np.random.Generator, n: int, prefix: int, r: int
) -> SymMat:
    """Symmetric matrix whose trailing (n-prefix)-block is diag(PD, 0) with a
    PD block of order r; leading rows arbitrary."""
    a = np.zeros((n, n))
    if prefix:
        band = rng.standard_normal((prefix, n))
        a[:prefix, :] = band
        a = (a + a.T) / 2 * 2  # symmetric band, arbitrary values
    g = rng.standard_normal((r, r))
    a[prefix : prefix + r, prefix : prefix + r] = g @ g.T + 0.3 * np.eye(r)
    return SymMat(a)


def random_degenerate_instance(
    rng: np.random.Generator,
    n: int,
    m: int,
    ranks: tuple[int, ...],
    scramble: bool = True,
):
    """Instance whose feasible set lies on the face with the given certified
    block sizes: built in rank-revealing form, then hidden behind a random
    reformulation.  Returns (instance, dual-feasible y0, certified rank sum).

    Requires len(ranks) <= m and sum(ranks) < n.
    """
    from ramanasdp import Reformulation, reformulate

    k = len(ranks)
    assert k <= m and sum(ranks) < n
    p_total = sum(ranks)
    mats = []
    prefix = 0
    for r in ranks:
        mats.append(random_staircase_member(rng, n, prefix, r))
        prefix += r
    witness = np.zeros((n, n))
    g = rng.standard_normal((n - p_total, n - p_total))
    witness[p_total:, p_total:] = g @ g.T + 0.3 * np.eye(n - p_total)
    witness = SymMat(witness)
    b = [0.0] * k
    for _ in range(m - k):
        a = random_sym(rng, n)
        mats.append(a)
        b.append(a.inner(witness))
    y0 = rng.standard_normal(m)
    s0 = random_psd(rng, n)
    c = SymMat(sum(y * a.a for y, a in zip(y0, mats)) + s0.a)
    inst = SdpInstance(a=tuple(mats), b=np.array(b), c=c)
    if scramble:
        mm = rng.standard_normal((m, m)) + (2.0 + m) * np.eye(m)
        q = random_orthonormal(rng, n)
        ref = Reformulation(mm, q)
        inst = reformulate(inst, ref)
        y0 = ref.transport_dual(y0)
    return inst, y0, p_total


# The paper's zero-pattern claim says every feasible point of an instance
# vanishes where its RR form's maximum-rank point does.  The two oracles
# below check it on sampled points.


def max_rank_zero_pattern(
    x_max: SymMat, x_test: SymMat, eps: float = EPS_PSD
) -> bool:
    """True when x_test vanishes on the rows/columns where x_max does.

    x_max must have the max-rank shape diag(0, Λ): its leading zero rows
    determine the pattern every feasible PSD point must share.
    """
    if x_max.n != x_test.n:
        raise ValueError("order mismatch")
    scale = x_max.scale_factor()
    row_mags = np.max(np.abs(x_max.a), axis=1)
    nz = np.nonzero(row_mags > eps * scale)[0]
    lead_zero = int(nz[0]) if nz.size else x_max.n
    if lead_zero == 0:
        return True
    t_scale = x_test.scale_factor()
    return bool(np.max(np.abs(x_test.a[:lead_zero, :])) <= eps * t_scale)


def sample_feasible(
    inst: SdpInstance,
    rr: RrForm,
    count: int,
    seed: int = 0,
) -> list[SymMat]:
    """Feasible points of the original instance, sampled on the reduced face.

    Uses the RR reformulation: strictly feasible points of the reduced
    block, perturbed along the constraint nullspace while staying PD,
    re-embedded at order n and rotated back.
    """
    if rr.status != STATUS_FEASIBLE:
        raise ValueError("cannot sample from an infeasible instance")
    n = inst.n
    p = sum(rr.r)
    cur = rr.reformulated
    center = rr.maxrank_x
    q = rr.ref.q
    out = [SymMat(q @ center.a @ q.T)]
    if p == n or count <= 1:
        return out[:count]
    red = _reduced_instance(cur, p, rr.k)
    null = null_basis(svec(red.stack))
    x_red = center.a[p:, p:]
    lam_min = float(np.linalg.eigvalsh(x_red)[0])
    rng = np.random.default_rng(seed)
    while len(out) < count:
        if null.shape[1] == 0:
            out.append(out[0])
            continue
        d = null @ rng.standard_normal(null.shape[1])
        direction = smat(d, red.n).a
        dn = float(np.linalg.norm(direction, 2))
        if dn <= 0:
            out.append(out[0])
            continue
        step = 0.5 * lam_min / dn
        x_new = x_red + step * direction
        x_cur = SymMat(x_new).embed(n, p)
        out.append(SymMat(q @ x_cur.a @ q.T))
    return out


def padded_certificate_text(inst: SdpInstance, cert, claimed_value=None) -> str:
    """The text of a ladder certificate with every rung written, leading
    zero rungs too, as certificate_to_text wrote it before it left them out."""
    head = certificate_to_text(
        inst, cert.system, cert=replace(cert, ladder=()), claimed_value=claimed_value
    )
    out = [head.removesuffix("\n")]
    for i, rung in enumerate(cert.ladder, start=1):
        if rung.y is not None:
            out += [f"vector y{i} {len(rung.y)}", " ".join(map(repr, rung.y.tolist()))]
        for name, mat in (("U", rung.u), ("V", rung.v)):
            out.append(f"matrix {name}{i} {mat.n}")
            out += [" ".join(map(repr, row)) for row in mat.a.tolist()]
    return "\n".join(out) + "\n"


def read_bound(text: str, inst: SdpInstance):
    """The ladder certificate a text holds, after binding it to ``inst``."""
    cf = parse_certificate_text(text)
    check_instance_binding(cf, inst)
    return to_ramana_certificate(cf, inst)


def through_text(inst: SdpInstance, cert):
    """``cert`` written by certificate_to_text and read back."""
    text = certificate_to_text(inst, cert.system, cert=cert, claimed_value=cert.claimed_value)
    return read_bound(text, inst)


def ladder_verdicts(inst: SdpInstance, cert):
    """The check's VerifyOutcome and, for a dual ladder, normalize_ladder's
    report as comparable values, or the text of its InductionBreakError."""
    outcome = verify_certificate(inst, cert.system, cert=cert)
    if cert.system == "pram":
        return outcome, None
    try:
        rep = normalize_ladder(inst, cert)
    except InductionBreakError as exc:
        return outcome, str(exc)
    return outcome, (rep.q_total.tobytes(), rep.r, rep.frs_valid, rep.u_membership)



class DenseRow(NamedTuple):
    """A row or the objective of an emitted system, dense: its matrices by
    block name (none for the objective), its free row of length n_free
    placed at its offset, and its rhs (0.0 for the objective)."""

    mats: dict
    free: np.ndarray
    rhs: float


def dense_rows(sdp: StandardFormSdp) -> tuple[dict[str, DenseRow], DenseRow]:
    """({row name: DenseRow} in row order, the objective's DenseRow), read
    from the tables of ``sdp``."""

    def row(blk, ks, f, offset, rhs):
        mats = {}
        for b, k in zip(blk.tolist(), ks.tolist()):
            lo, hi = sdp.coeff_ptr[k], sdp.coeff_ptr[k + 1]
            i, j = sdp.coeff_i[lo:hi], sdp.coeff_j[lo:hi]
            a = mats[sdp.blocks[b].name] = np.zeros((sdp.coeff_order[k],) * 2)
            a[i, j] = a[j, i] = sdp.coeff_v[lo:hi]
        free, (lo, hi) = np.zeros(sdp.n_free), sdp.free_ptr[f : f + 2]
        free[offset + sdp.free_j[lo:hi]] = sdp.free_v[lo:hi]
        return DenseRow(mats, free, float(rhs))

    names = [pre + label for pre, labels in sdp.sections for label in labels]
    ptr = sdp.row_ptr
    rows = {
        name: row(sdp.entry_block[ptr[r] : ptr[r + 1]], sdp.entry_coeff[ptr[r] : ptr[r + 1]],
                  sdp.row_free[r], sdp.row_offset[r], sdp.rhs[r])
        for r, name in enumerate(names)
    }
    assert len(rows) == sdp.rhs.size, "row names repeat"
    none = np.zeros(0, int)
    return rows, row(none, none, sdp.objective_row, 0, 0.0)


def table_system(blocks, n_free, mats, frees, rows, objective, sense="min") -> StandardFormSdp:
    """The system "hand" made from its tables, whose entries are given
    dense: mats the matrices and frees the free rows, each held once and
    used by its index.  rows are (name, [(block index, matrix index)],
    free row index, offset, rhs), the objective a free row index; signed
    zeros are not stored."""
    tri = [np.triu(np.asarray(a, dtype=float)) for a in mats]
    at = [np.nonzero(t) for t in tri]
    frees = [np.asarray(v, dtype=float) for v in frees]

    def cat(parts):
        return np.concatenate([np.zeros(0)] + list(parts))

    return StandardFormSdp(
        system="hand", sense=sense, blocks=tuple(blocks), n_free=n_free,
        coeff_ptr=np.cumsum([0] + [i.size for i, _ in at]), coeff_order=[t.shape[0] for t in tri],
        coeff_i=cat(i for i, _ in at), coeff_j=cat(j for _, j in at),
        coeff_v=cat(t[i, j] for t, (i, j) in zip(tri, at)),
        free_ptr=np.cumsum([0] + [np.count_nonzero(v) for v in frees]),
        free_j=cat(np.flatnonzero(v) for v in frees), free_v=cat(v[v != 0] for v in frees),
        row_ptr=np.cumsum([0] + [len(cols) for _, cols, *_ in rows]),
        entry_block=[b for _, cols, *_ in rows for b, _ in cols],
        entry_coeff=[k for _, cols, *_ in rows for _, k in cols],
        row_free=[r[2] for r in rows], row_offset=[r[3] for r in rows], rhs=[r[4] for r in rows],
        objective_row=objective, sections=tuple((r[0], ("",)) for r in rows), var_map={},
    )


def reference_residuals(sdp, assign):
    """(residuals, scales) of each row of ``sdp`` at ``assign``, by one
    Python product per nonzero of the upper triangle of the row's dense
    matrices and of its dense free row: the loop that builders.residuals
    replaced.  scales[r] sums the magnitudes of row r's terms and rhs."""
    res, scales = [], []
    for row in dense_rows(sdp)[0].values():
        j = np.flatnonzero(row.free)
        terms = (row.free[j] * assign.free[j]).tolist()
        for name, k in row.mats.items():
            y = assign.blocks[name]
            for i, j in zip(*np.nonzero(np.triu(k))):
                terms.append(k[i, j] * y[i, j] if i == j else k[i, j] * (y[i, j] + y[j, i]))
        res.append(sum(terms) - row.rhs)
        scales.append(sum(map(abs, terms)) + abs(row.rhs))
    return np.array(res), np.array(scales)
