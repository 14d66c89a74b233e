"""Seeded instance and certificate generators for the benchmark.

Every instance is planted: it is built in rank-revealing form, where its
facts are known by construction, and then hidden behind a random
reformulation (row mixing M and rotation Q).  The planted facts are
checked here with plain numpy, independently of the library under test:

  * status: feasible instances carry a witness X that satisfies the
    equations and is positive definite on the trailing block; infeasible
    ones carry a staircase that forces the leading block of every PSD
    solution to zero and a terminal equation, supported on that block,
    with right-hand side -1;
  * certified rank sum: the staircase block orders sum to p, and the
    witness has rank n - p, so the minimal face is exactly order n - p;
  * dual feasibility: C - A*y0 is positive definite.

Certificates for the verify and emit workloads are written down from the
same construction (the ladder of the planted staircase, transported
through the reformulation), so no solver runs while they are prepared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import ramanasdp as rs

# Planted eigenvalue floors.  They keep every rank decision far from the
# library's ambiguity band (eps·scale with eps = 1e-8), so a refusal or a
# wrong rank is the library's doing, not the generator's.
_PD_SHIFT = 0.3
_FACT_MARGIN = 1e-3


@dataclass(frozen=True)
class Planted:
    """An instance together with the facts it was built to have."""

    inst: rs.SdpInstance
    status: str  # "feasible" or "infeasible"
    rank_sum: int  # certified block order p = sum(ranks)
    ranks: tuple[int, ...]
    y0: np.ndarray  # dual-feasible: C - A*y0 positive definite
    # Reformulation that hid the planted form: A'_i = sum_j M_ij Q^T A_j Q.
    m_rows: np.ndarray
    q: np.ndarray
    raw_mats: tuple[np.ndarray, ...]  # planted (unscrambled) A_j
    terminal: Optional[int] = None  # index of the rhs -1 equation

    def transport(self, y_raw: np.ndarray) -> np.ndarray:
        """Dual vector of the planted form mapped to the scrambled one."""
        return np.linalg.solve(self.m_rows.T, y_raw)


def _sym(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a + a.T


def _pd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + _PD_SHIFT * np.eye(n)


def _orthonormal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _staircase_member(rng: np.random.Generator, n: int, prefix: int, r: int) -> np.ndarray:
    """Arbitrary leading band on rows/cols < prefix, a PD block of order r
    at offset prefix, zero elsewhere."""
    a = np.zeros((n, n))
    if prefix:
        band = rng.standard_normal((prefix, n))
        a[:prefix, :] = band
        a[:, :prefix] += band.T
    a[prefix : prefix + r, prefix : prefix + r] = _pd(rng, r)
    return a


def _adjoint(mats, y) -> np.ndarray:
    return sum(float(yi) * a for yi, a in zip(y, mats))


def _lam_min(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def planted(
    rng: np.random.Generator,
    n: int,
    ranks: tuple[int, ...],
    extra: int,
    infeasible: bool = False,
) -> Planted:
    """Staircase of the given block orders plus ``extra`` generic equations.

    Feasible (default): the generic equations take their right-hand side
    from a witness that is positive definite on the trailing block of
    order n - sum(ranks).  Infeasible: a terminal equation supported on
    the leading sum(ranks) block with rhs -1 follows the staircase, and
    the generic equations get random right-hand sides.
    """
    p = sum(ranks)
    if not (0 < p < n and all(r >= 1 for r in ranks)):
        raise ValueError(f"bad planted shape n={n}, ranks={ranks}")
    mats: list[np.ndarray] = []
    prefix = 0
    for r in ranks:
        mats.append(_staircase_member(rng, n, prefix, r))
        prefix += r
    b = [0.0] * len(ranks)
    terminal = None
    witness = np.zeros((n, n))
    witness[p:, p:] = _pd(rng, n - p)
    if infeasible:
        term = np.zeros((n, n))
        term[:p, :p] = _sym(rng, p)
        terminal = len(mats)
        mats.append(term)
        b.append(-1.0)
    for _ in range(extra):
        a = _sym(rng, n)
        mats.append(a)
        b.append(float(rng.standard_normal()) if infeasible else float(np.sum(a * witness)))
    inst, y0, m_rows, q = _finish(rng, mats, np.array(b))
    out = Planted(
        inst=inst,
        status="infeasible" if infeasible else "feasible",
        rank_sum=p,
        ranks=tuple(ranks),
        y0=y0,
        m_rows=m_rows,
        q=q,
        raw_mats=tuple(mats),
        terminal=terminal,
    )
    _assert_staircase(out)
    if not infeasible:
        _assert_witness(mats, np.array(b), witness, p)
    return out


def strictly_feasible(rng: np.random.Generator, n: int, m: int) -> Planted:
    """Generic equations whose rhs comes from a positive definite X0."""
    mats = [_sym(rng, n) for _ in range(m)]
    x0 = _pd(rng, n)
    b = np.array([float(np.sum(a * x0)) for a in mats])
    inst, y0, m_rows, q = _finish(rng, mats, b)
    _assert_witness(mats, b, x0, 0)
    return Planted(
        inst=inst, status="feasible", rank_sum=0, ranks=(), y0=y0,
        m_rows=m_rows, q=q, raw_mats=tuple(mats),
    )


def _finish(rng, mats, b):
    """Plant a dual-feasible C, then scramble by a random (M, Q)."""
    n = mats[0].shape[0]
    m = len(mats)
    y_raw = rng.standard_normal(m)
    c = _adjoint(mats, y_raw) + _pd(rng, n)
    m_rows = rng.standard_normal((m, m)) + (2.0 + m) * np.eye(m)
    q = _orthonormal(rng, n)
    rot = [q.T @ a @ q for a in mats]
    new_a = [sum(m_rows[i, j] * rot[j] for j in range(m)) for i in range(m)]
    inst = rs.SdpInstance(
        a=tuple(rs.SymMat(a) for a in new_a),
        b=m_rows @ b,
        c=rs.SymMat(q.T @ c @ q),
    )
    y0 = np.linalg.solve(m_rows.T, y_raw)
    slack = inst.c.a - _adjoint([a.a for a in inst.a], y0)
    if _lam_min(slack) < _FACT_MARGIN:
        raise AssertionError("planted y0 is not strictly dual feasible")
    return inst, y0, m_rows, q


def _assert_staircase(pl: Planted) -> None:
    n = pl.inst.n
    prefix = 0
    for j, r in enumerate(pl.ranks):
        a = pl.raw_mats[j]
        tail = a[prefix:, prefix:]
        if np.any(tail[r:, :]) or np.any(tail[:, r:]):
            raise AssertionError(f"rung {j + 1} is not zero beyond its block")
        if _lam_min(tail[:r, :r]) < _FACT_MARGIN:
            raise AssertionError(f"rung {j + 1} block is not positive definite")
        prefix += r
    if pl.terminal is not None:
        t = pl.raw_mats[pl.terminal]
        p = pl.rank_sum
        if np.any(t[p:, :]) or np.any(t[:, p:]) or not np.any(t):
            raise AssertionError("terminal equation is not supported on the leading block")
    if prefix >= n:
        raise AssertionError("staircase leaves no trailing block")


def _assert_witness(mats, b, x, p) -> None:
    res = max(abs(float(np.sum(a * x)) - bi) for a, bi in zip(mats, b))
    if res > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
        raise AssertionError(f"planted witness misses the equations by {res:.3e}")
    if p and np.any(x[:p, :]):
        raise AssertionError("planted witness is not on the face")
    if _lam_min(x[p:, p:]) < _FACT_MARGIN:
        raise AssertionError("planted witness is not positive definite on its block")


# --- certificates written down from the planted construction ---------------


def _ladder(pl: Planted) -> list[rs.LadderRung]:
    """Rungs y^j = M^{-T} e_j, U_j = Q^T diag(I_{p_j}, Lambda_j, 0) Q and
    V_j = A*y^j - U_j, the ladder of the planted staircase."""
    n, m = pl.inst.n, pl.inst.m
    scr = [a.a for a in pl.inst.a]
    rungs = []
    prefix = 0
    for j, r in enumerate(pl.ranks):
        e = np.zeros(m)
        e[j] = 1.0
        y = pl.transport(e)
        u_raw = np.zeros((n, n))
        u_raw[:prefix, :prefix] = np.eye(prefix)
        u_raw[prefix : prefix + r, prefix : prefix + r] = pl.raw_mats[j][
            prefix : prefix + r, prefix : prefix + r
        ]
        u = pl.q.T @ u_raw @ pl.q
        rungs.append(rs.LadderRung(y=y, u=rs.SymMat(u), v=rs.SymMat(_adjoint(scr, y) - u)))
        prefix += r
    return rungs


def dram_certificate(pl: Planted) -> rs.RamanaCertificate:
    """Exact-dual certificate: the planted ladder with head y0."""
    if pl.status != "feasible":
        raise ValueError("dram certificates need a feasible instance")
    return rs.RamanaCertificate(system="dram", y=pl.y0.copy(), ladder=tuple(_ladder(pl)))


def altram_certificate(pl: Planted) -> rs.RamanaCertificate:
    """Alternative-system certificate: the planted ladder with the terminal
    equation as head (A*y supported on the certified block, <b, y> = -1)."""
    if pl.terminal is None:
        raise ValueError("altram certificates need a planted terminal equation")
    e = np.zeros(pl.inst.m)
    e[pl.terminal] = 1.0
    return rs.RamanaCertificate(
        system="altram", y=pl.transport(e), ladder=tuple(_ladder(pl))
    )


def strong_point(pl: Planted) -> tuple[rs.StrongDualSpec, np.ndarray]:
    """Strong-dual spec (the max-rank primal face) and the point y0."""
    return rs.StrongDualSpec(q=pl.q.T.copy(), r=pl.inst.n - pl.rank_sum), pl.y0.copy()


def padded(cert: rs.RamanaCertificate, inst: rs.SdpInstance) -> rs.RamanaCertificate:
    """Front-pad the ladder to n - 1 rungs with zero rungs."""
    n, m = inst.n, inst.m
    zero = rs.LadderRung(y=np.zeros(m), u=rs.SymMat.zero(n), v=rs.SymMat.zero(n))
    pad = (zero,) * (n - 1 - len(cert.ladder))
    return rs.RamanaCertificate(system=cert.system, y=cert.y, ladder=pad + tuple(cert.ladder))


# --- corruptions ------------------------------------------------------------


def _null_direction(pl: Planted) -> np.ndarray:
    """Unit vector (scrambled frame) in the trailing block, outside the
    range of every planted U_j."""
    e = np.zeros(pl.inst.n)
    e[-1] = 1.0
    return pl.q.T @ e


def corrupt_rung(pl: Planted, cert: rs.RamanaCertificate, u_not_psd: bool) -> rs.RamanaCertificate:
    """Move mass wwᵀ between U_j and V_j of the middle planted rung, w in
    the trailing block.  A*y^j = U_j + V_j still holds, but U_j stops being
    PSD (``u_not_psd``) or V_j leaves tan(U_{j-1}).  The rung is fixed so
    that the early exit of a rejection costs the same on every seed."""
    j = len(cert.ladder) - len(pl.ranks) + len(pl.ranks) // 2
    w = _null_direction(pl)
    d = (-1.0 if u_not_psd else 1.0) * np.outer(w, w)
    rung = cert.ladder[j]
    bad = rs.LadderRung(y=rung.y, u=rs.SymMat(rung.u.a + d), v=rs.SymMat(rung.v.a - d))
    ladder = cert.ladder[:j] + (bad,) + cert.ladder[j + 1 :]
    return rs.RamanaCertificate(system=cert.system, y=cert.y, ladder=ladder)


def corrupt_head_y(pl: Planted, y: np.ndarray, dual: bool) -> np.ndarray:
    """Move y along a generic equation until the head matrix (C - A*y when
    ``dual``, else A*y) has a clearly negative eigenvalue on the trailing
    block of the planted frame, which takes it out of S+ + tan(U_{n-1})."""
    p = pl.rank_sum

    def head_tail(y_s: np.ndarray) -> np.ndarray:
        z = _adjoint([a.a for a in pl.inst.a], y_s)
        if dual:
            z = pl.inst.c.a - z
        return (pl.q @ z @ pl.q.T)[p:, p:]

    for l in range(len(pl.raw_mats) - 1, -1, -1):
        lam = np.linalg.eigvalsh(pl.raw_mats[l][p:, p:])
        if lam[-1] > 0.1:
            break
    else:
        raise ValueError("head corruption needs a generic equation")
    top = float(np.linalg.eigvalsh(head_tail(y))[-1])
    t = 2.0 * (max(top, 0.0) + 1.0) / float(lam[-1])
    y_raw = pl.m_rows.T @ y
    y_raw[l] += t if dual else -t
    bad = pl.transport(y_raw)
    if _lam_min(head_tail(bad)) > -1.0:
        raise AssertionError("head corruption left the trailing block PSD")
    return bad
