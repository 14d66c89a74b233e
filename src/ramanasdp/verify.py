"""Feasibility checks for exact-dual certificates and ladder normalization.

The five certificate systems are named here (SYSTEMS; LADDER_SYSTEMS carry
a ladder, DUAL_LADDERS also y^i on every rung; StrongDualSpec pins the two
strong ones), and verify_certificate runs the check of any of them.

A certificate for the exact dual is y together with a ladder
{(y^i, U_i, V_i)} for i = 1..n-1; for the exact primal the ladder
carries (U_i, V_i) only and the head variable is X.  A ladder of k < n-1
rungs holds the last k, and the rungs before them are zero.  Emitted
dram and altram systems hold L = min(n-1, m) rungs (dual_ladder_length),
and lifted certificates have L rungs.  Verification walks the fixed check
order

    rung i:  𝒜*y^i = U_i + V_i,  <b, y^i> = 0,  U_i PSD,  V_i ∈ tan(U_{i-1})
    head:    C - 𝒜*y ∈ S₊ + tan(U_{n-1})        (dual)
             𝒜*y ∈ S₊ + tan(U_{n-1}), <b,y> = -1 (alternative system)
             𝒜X = b, X ∈ S₊ + tan(U_{n-1})      (primal)

and reports the first violated constraint with its residual.  Membership
in S₊ + tan(U) is decided by one trailing-block PSD test in U's
eigenbasis, which is exact for this set.  The head reuses the
classification of U_{n-1} made at the last rung, and each rung's tangent
test reuses the class of U_{i-1} made at the rung before.  A zero rung
passes every check and leaves the class of U_0 = 0 as it is, so the walk
starts at the first nonzero rung, and a ladder with R rungs from there on
costs R + 2 decompositions: U_0 = 0, each such U_i, then the head block.

normalize_ladder implements the inductive rotation that puts the matrices
𝒜*y^1, ..., 𝒜*y^{n-1} of any feasible certificate into regular facial
reduction shape, reporting the block sizes r_i and the per-rung membership
U_i ∈ S₊^{n, r_{1:i}}.  lift_from_strong converts a strong-dual-feasible y
into a full certificate using the RR form's certifying equations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .facial import STATUS_INFEASIBLE, RrForm, validate_frs
from .model import SdpInstance, apply_a, apply_at, dual_slack
from .symmat import EPS_PSD, PsdClass, SymMat, check_orthonormal, classify_psd
from .symmat import psd_plus_tan_contains, tan_contains

SYSTEM_DRAM = "dram"
SYSTEM_ALTRAM = "altram"
SYSTEM_PRAM = "pram"
SYSTEM_DSTRONG = "dstrong"
SYSTEM_PSTRONG = "pstrong"
SYSTEMS = (SYSTEM_DRAM, SYSTEM_ALTRAM, SYSTEM_PRAM, SYSTEM_DSTRONG, SYSTEM_PSTRONG)
LADDER_SYSTEMS = (SYSTEM_DRAM, SYSTEM_ALTRAM, SYSTEM_PRAM)
DUAL_LADDERS = (SYSTEM_DRAM, SYSTEM_ALTRAM)  # ladders whose rungs carry y^i

SIDE_DUAL = "dual"
SIDE_PRIMAL = "primal"


class ShapeMismatchError(ValueError):
    """Certificate dimensions inconsistent with the instance."""


class InductionBreakError(RuntimeError):
    """The normalization induction met a non-PSD trailing block, meaning
    the input certificate was not actually feasible to tolerance."""


@dataclass(frozen=True)
class LadderRung:
    y: Optional[np.ndarray]
    u: SymMat
    v: SymMat


@dataclass(frozen=True)
class RamanaCertificate:
    """Certificate data for dram / altram (y + ladder) or pram (X + ladder)."""

    system: str
    y: Optional[np.ndarray] = None
    ladder: tuple[LadderRung, ...] = ()
    x: Optional[SymMat] = None
    claimed_value: Optional[float] = None


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


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    value: Optional[float] = None
    violation: Optional[str] = None
    residual: Optional[float] = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class NormalizationReport:
    q_total: np.ndarray
    r: tuple[int, ...]
    frs_valid: bool
    u_membership: tuple[bool, ...]


def _is_zero_rung(rung: LadderRung) -> bool:
    """Whether U_i, V_i and y^i (when held) are all zero; -0.0 counts as zero."""
    return not (np.any(rung.u.a) or np.any(rung.v.a) or (rung.y is not None and np.any(rung.y)))


def leading_zero_rungs(ladder: Sequence[LadderRung]) -> int:
    """How many rungs of ``ladder`` come before its first nonzero one."""
    return next((i for i, rung in enumerate(ladder) if not _is_zero_rung(rung)), len(ladder))


def _zero_rung(n: int, m: int, with_y: bool) -> LadderRung:
    return LadderRung(
        y=np.zeros(m) if with_y else None, u=SymMat.zero(n), v=SymMat.zero(n)
    )


def dual_ladder_length(n: int, m: int) -> int:
    """L = min(n - 1, m), the rungs a dram or altram ladder needs: the
    builders module docstring proves that a feasible ladder of n - 1 rungs
    normalizes to one with at most L nonzero rungs and the same y."""
    return min(n - 1, m)


def _rung_offset(cert: RamanaCertificate, want: int) -> int:
    """How many zero rungs front-pad the ladder to ``want`` rungs; a longer
    ladder is refused."""
    have = len(cert.ladder)
    if have > want:
        raise ShapeMismatchError(f"ladder has {have} rungs, instance allows {want}")
    return want - have


def _front_pad(cert: RamanaCertificate, inst: SdpInstance, want: int) -> RamanaCertificate:
    missing = _rung_offset(cert, want)
    if not missing:
        return cert
    with_y = cert.system in DUAL_LADDERS
    pad = tuple(_zero_rung(inst.n, inst.m, with_y) for _ in range(missing))
    return replace(cert, ladder=pad + tuple(cert.ladder))


def pad_ladder(cert: RamanaCertificate, inst: SdpInstance) -> RamanaCertificate:
    """Zero-pad a short ladder at the front to exactly n-1 rungs.

    The checks need no padding: they start at the first nonzero rung."""
    return _front_pad(cert, inst, inst.n - 1)


def _require_finite(what: str, values) -> None:
    """Refuse NaN and ±inf, and values whose norm overflows: every check
    compares with '>', which a NaN passes, and scales its tolerance with a
    norm, which an infinite one would let pass anything."""
    if not (np.all(np.isfinite(values)) and np.isfinite(np.vdot(values, values))):
        raise ValueError(f"{what} has a non-finite entry or norm")


def _check_cert_shape(inst: SdpInstance, cert: RamanaCertificate, *systems: str) -> None:
    """Refuse a certificate of another system than ``systems`` or of the wrong shape."""
    if cert.system not in systems:
        raise ShapeMismatchError(f"certificate is for {cert.system}, not {' or '.join(systems)}")
    n, m = inst.n, inst.m
    if cert.system in DUAL_LADDERS:
        if cert.y is None or np.asarray(cert.y).shape != (m,):
            raise ShapeMismatchError("certificate y must be an m-vector")
        _require_finite("certificate y", cert.y)
    if cert.system == SYSTEM_PRAM:
        if cert.x is None or cert.x.n != n:
            raise ShapeMismatchError("certificate X must be an order-n matrix")
        _require_finite("certificate X", cert.x.a)
    for idx, rung in enumerate(cert.ladder, start=1):
        if rung.u.n != n or rung.v.n != n:
            raise ShapeMismatchError(f"rung {idx} matrices must have order {n}")
        if cert.system in DUAL_LADDERS:
            if rung.y is None or np.asarray(rung.y).shape != (m,):
                raise ShapeMismatchError(f"rung {idx} y must be an m-vector")
            _require_finite(f"rung {idx} y", rung.y)
        _require_finite(f"rung {idx} U", rung.u.a)
        _require_finite(f"rung {idx} V", rung.v.a)


def _fail(name: str, residual: float) -> VerifyOutcome:
    return VerifyOutcome(ok=False, violation=name, residual=residual)


def _check_ladder(
    inst: SdpInstance, cert: RamanaCertificate, system: str, eps: float
) -> VerifyOutcome | PsdClass:
    """Shared rung checks of a ladder system: the first failure, or else the
    classification of the last U (U_0 = 0 for an empty ladder) for the head
    test.  A certificate of another system or shape is refused first.  A
    ladder of k rungs is the last k of n-1, numbered n-1-k+1..n-1, and the
    walk starts at its first nonzero rung: a zero rung in front of it, held
    or padding, passes every check and leaves the class of U_0 = 0 as it
    is.  Each U is classified once, and its class serves the next rung's
    tangent test."""
    _check_cert_shape(inst, cert, system)
    skip = leading_zero_rungs(cert.ladder)
    first = _rung_offset(cert, inst.n - 1) + skip + 1
    b_scale = 1.0 + float(np.linalg.norm(inst.b))
    prev_cls = classify_psd(SymMat.zero(inst.n), eps)
    for idx, rung in enumerate(cert.ladder[skip:], start=first):
        if system in DUAL_LADDERS:
            lhs = apply_at(inst, rung.y)
            combo_scale = 1.0 + lhs.norm() + rung.u.norm() + rung.v.norm()
            res = float(np.max(np.abs(lhs.a - rung.u.a - rung.v.a)))
            if res > eps * combo_scale:
                return _fail(f"rung {idx}: 𝒜*y^{idx} != U_{idx} + V_{idx}", res)
            bres = abs(float(inst.b @ rung.y)) / (
                b_scale * (1.0 + float(np.linalg.norm(rung.y)))
            )
            if bres > eps:
                return _fail(f"rung {idx}: <b, y^{idx}> != 0", bres)
        else:
            s = rung.u + rung.v
            ares = float(np.max(np.abs(apply_a(inst, s)))) if inst.m else 0.0
            scale = inst.scale_factor() * (1.0 + s.norm())
            if ares > eps * scale:
                return _fail(f"rung {idx}: 𝒜(U_{idx} + V_{idx}) != 0", ares)
            cres = abs(inst.c.inner(s))
            if cres > eps * scale:
                return _fail(f"rung {idx}: <C, U_{idx} + V_{idx}> != 0", cres)
        ucls = classify_psd(rung.u, eps)
        if not ucls.is_psd:
            return _fail(f"rung {idx}: U_{idx} not PSD", -ucls.evidence)
        tan = tan_contains(prev_cls, rung.v, eps)
        if not tan.member:
            i, j, mag = tan.violation
            return _fail(
                f"rung {idx}: V_{idx} not in tan(U_{idx - 1}) "
                f"(entry ({i},{j}) in the eigenbasis)",
                mag,
            )
        prev_cls = ucls
    return prev_cls


def _value_warnings(cert: RamanaCertificate, value: float, eps: float) -> tuple[str, ...]:
    if cert.claimed_value is None:
        return ()
    if abs(cert.claimed_value - value) <= max(1e-6, eps * (1.0 + abs(value))):
        return ()
    return (f"claimed value {cert.claimed_value} differs from computed {value}",)


def verify_dram(
    inst: SdpInstance, cert: RamanaCertificate, eps: float = EPS_PSD
) -> VerifyOutcome:
    """Check a certificate of the exact dual; Feasible reports <b, y>."""
    last_u = _check_ladder(inst, cert, SYSTEM_DRAM, eps)
    if isinstance(last_u, VerifyOutcome):
        return last_u
    slack = dual_slack(inst, cert.y)
    ok, lam_min = psd_plus_tan_contains(last_u, slack, eps)
    if not ok:
        return _fail("head: C - 𝒜*y not in S₊ + tan(U_{n-1})", -lam_min)
    value = float(inst.b @ cert.y)
    return VerifyOutcome(ok=True, value=value, warnings=_value_warnings(cert, value, eps))


def verify_alt_ram(
    inst: SdpInstance, cert: RamanaCertificate, eps: float = EPS_PSD
) -> VerifyOutcome:
    """Check a certificate of the exact alternative system (Valid/Invalid)."""
    last_u = _check_ladder(inst, cert, SYSTEM_ALTRAM, eps)
    if isinstance(last_u, VerifyOutcome):
        return last_u
    z = apply_at(inst, cert.y)
    ok, lam_min = psd_plus_tan_contains(last_u, z, eps)
    if not ok:
        return _fail("head: 𝒜*y not in S₊ + tan(U_{n-1})", -lam_min)
    bval = float(inst.b @ cert.y)
    scale = (1.0 + float(np.linalg.norm(inst.b))) * (1.0 + float(np.linalg.norm(cert.y)))
    if abs(bval + 1.0) > eps * scale:
        return _fail("head: <b, y> != -1", abs(bval + 1.0))
    return VerifyOutcome(ok=True, value=bval)


def verify_pram(
    inst: SdpInstance, cert: RamanaCertificate, eps: float = EPS_PSD
) -> VerifyOutcome:
    """Check a certificate of the exact primal; Feasible reports <C, X>."""
    last_u = _check_ladder(inst, cert, SYSTEM_PRAM, eps)
    if isinstance(last_u, VerifyOutcome):
        return last_u
    ares = float(np.max(np.abs(apply_a(inst, cert.x) - inst.b))) if inst.m else 0.0
    scale = inst.scale_factor() * (1.0 + cert.x.norm())
    if ares > eps * scale:
        return _fail("head: 𝒜X != b", ares)
    ok, lam_min = psd_plus_tan_contains(last_u, cert.x, eps)
    if not ok:
        return _fail("head: X not in S₊ + tan(U_{n-1})", -lam_min)
    value = inst.c.inner(cert.x)
    return VerifyOutcome(ok=True, value=value, warnings=_value_warnings(cert, value, eps))


def verify_strong(
    inst: SdpInstance,
    spec: StrongDualSpec,
    point,
    side: str,
    eps: float = EPS_PSD,
) -> VerifyOutcome:
    """Check a point of a strong system.

    Dual side: the trailing r-block of Qᵀ(C - 𝒜*y)Q must be PSD.  Primal
    side: 𝒜X = b and the leading r-block of QᵀXQ must be PSD (the block
    where the max-rank slack is positive definite).
    """
    _require_finite("rotation Q", spec.q)
    spec.validate(inst.n)
    n = inst.n
    r = spec.r
    if side == SIDE_DUAL:
        y = np.asarray(point, dtype=float).reshape(-1)
        if y.shape != (inst.m,):
            raise ShapeMismatchError("y must be an m-vector")
        _require_finite("y", y)
        slack = dual_slack(inst, y)
        rot = spec.q.T @ slack.a @ spec.q
        if r:
            cls = classify_psd(SymMat(rot[n - r :, n - r :]), eps)
            if not cls.is_psd:
                return _fail("trailing slack block not PSD", -cls.evidence)
        return VerifyOutcome(ok=True, value=float(inst.b @ y))
    if side == SIDE_PRIMAL:
        x = point if isinstance(point, SymMat) else SymMat(point)
        if x.n != n:
            raise ShapeMismatchError("X must have order n")
        _require_finite("X", x.a)
        ares = float(np.max(np.abs(apply_a(inst, x) - inst.b))) if inst.m else 0.0
        if ares > eps * inst.scale_factor() * (1.0 + x.norm()):
            return _fail("𝒜X != b", ares)
        rot = spec.q.T @ x.a @ spec.q
        if r:
            cls = classify_psd(SymMat(rot[:r, :r]), eps)
            if not cls.is_psd:
                return _fail("leading X block not PSD", -cls.evidence)
        return VerifyOutcome(ok=True, value=inst.c.inner(x))
    raise ValueError(f"unknown side {side!r}")


def verify_certificate(
    inst: SdpInstance, system: str, cert: Optional[RamanaCertificate] = None,
    spec: Optional[StrongDualSpec] = None, point=None, eps: float = EPS_PSD,
) -> VerifyOutcome:
    """Run the check of ``system``: verify_dram, verify_alt_ram or
    verify_pram on the ladder certificate ``cert``, or verify_strong on
    ``point`` under ``spec``, dual side for dstrong and primal side for
    pstrong."""
    # Built per call, so that a check rebound in this module's namespace
    # (by a tracer or a test) is the one that runs.
    checks = {SYSTEM_DRAM: verify_dram, SYSTEM_ALTRAM: verify_alt_ram, SYSTEM_PRAM: verify_pram}
    if system in checks:
        if cert is None:
            raise ValueError(f"{system} needs a ladder certificate: cert is missing")
        return checks[system](inst, cert, eps)
    sides = {SYSTEM_DSTRONG: SIDE_DUAL, SYSTEM_PSTRONG: SIDE_PRIMAL}
    if system not in sides:
        raise ValueError(f"unknown system {system!r}")
    for name, given in (("spec", spec), ("point", point)):
        if given is None:
            raise ValueError(f"{system} needs a spec and a point: {name} is missing")
    return verify_strong(inst, spec, point, sides[system], eps)


def normalize_ladder(
    inst: SdpInstance, cert: RamanaCertificate, eps: float = EPS_PSD
) -> NormalizationReport:
    """Rotate so the ladder matrices 𝒜*y^i form a regular FR sequence.

    Implements the inductive construction: diagonalize Y_1 = 𝒜*y^1, then
    repeatedly extract the trailing block of the next Y, check it is PSD
    (InductionBreak otherwise), and extend the rotation by its eigenbasis.
    Reports the inferred block sizes, staircase validity, and the per-rung
    membership U_i ∈ S₊^{n, r_{1:i}} after rotation.  The walk starts at
    the first nonzero rung: a zero rung in front of it, held or padding,
    has rank 0, leaves the rotation and validate_frs's offsets as they
    are, and is a member.
    """
    _check_cert_shape(inst, cert, *DUAL_LADDERS)
    skip = leading_zero_rungs(cert.ladder)
    lead = _rung_offset(cert, inst.n - 1) + skip
    held = cert.ladder[skip:]
    n = inst.n
    ys = [apply_at(inst, rung.y) for rung in held]
    us = [rung.u for rung in held]
    q_total = np.eye(n)
    ranks: list[int] = [0] * lead
    p = 0
    for i, y_mat in enumerate(ys, start=lead):
        tail = q_total.T @ y_mat.a @ q_total
        block = SymMat(tail[p:, p:]) if p < n else None
        if block is None:
            ranks.append(0)
            continue
        cls = classify_psd(block, eps)
        if not cls.is_psd:
            raise InductionBreakError(
                f"rung {i + 1}: trailing block of 𝒜*y^{i + 1} is not PSD "
                f"(λ_min = {cls.evidence:.3e}); certificate infeasible to tolerance"
            )
        r_i = cls.rank
        if r_i:
            step = np.eye(n)
            step[p:, p:] = cls.dec.q
            q_total = q_total @ step
        ranks.append(r_i)
        p += r_i
    rotated = [SymMat(q_total.T @ y.a @ q_total) for y in ys]
    val = validate_frs(rotated, eps)
    membership = [True] * lead
    pref = 0
    for r_i, u in zip(ranks[lead:], us):
        pref += r_i
        u_rot = q_total.T @ u.a @ q_total
        # S₊^{n,k} membership: PSD with the trailing (n-k)-block zero.
        outside = float(np.max(np.abs(u_rot[pref:, pref:]))) if pref < n else 0.0
        ok = outside <= eps * (1.0 + u.norm()) and classify_psd(u, eps).is_psd
        membership.append(bool(ok))
    return NormalizationReport(
        q_total=q_total,
        r=tuple(ranks),
        frs_valid=val.valid,
        u_membership=tuple(membership),
    )


def _rungs_from_rr(inst: SdpInstance, rr: RrForm, count: int) -> tuple[LadderRung, ...]:
    """Rungs from the first ``count`` certifying equations of the RR form."""
    n = inst.n
    q = rr.ref.q
    rungs: list[LadderRung] = []
    prefix = 0
    for j in range(count):
        r_j = rr.r[j]
        a_ref = rr.reformulated.a[j]
        u_ref = np.zeros((n, n))
        u_ref[:prefix, :prefix] = np.eye(prefix)
        u_ref[prefix : prefix + r_j, prefix : prefix + r_j] = a_ref.a[
            prefix : prefix + r_j, prefix : prefix + r_j
        ]
        u = SymMat(q @ u_ref @ q.T)
        y_j = rr.ref.m_rows[j].copy()
        v = apply_at(inst, y_j) - u
        rungs.append(LadderRung(y=y_j, u=u, v=v))
        prefix += r_j
    return tuple(rungs)


def lift_from_strong(inst: SdpInstance, y: Sequence[float], rr: RrForm) -> RamanaCertificate:
    """Lift a strong-dual-feasible y to a full exact-dual certificate.

    The k certifying equations of the RR form are linear combinations of
    the original equations (rows of M); each becomes a rung with the
    identity-padded U split and V := 𝒜*y^i - U_i, then the ladder is
    zero-padded at the front to L = min(n-1, m) rungs.
    """
    m = inst.m
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (m,):
        raise ShapeMismatchError("y must be an m-vector")
    if rr.status == STATUS_INFEASIBLE:
        raise ValueError("lift_from_strong needs a feasible RR form")
    rungs = _rungs_from_rr(inst, rr, rr.k)
    cert = RamanaCertificate(system=SYSTEM_DRAM, y=y.copy(), ladder=rungs)
    return _front_pad(cert, inst, dual_ladder_length(inst.n, m))


def alt_ram_from_rr(inst: SdpInstance, rr: RrForm) -> RamanaCertificate:
    """Build an alternative-system certificate from an infeasible RR form.

    Rows 1..k-1 of the RR form become the ladder, zero-padded at the
    front to L = min(n-1, m) rungs; the terminal row (rhs -1) becomes the
    head vector y.
    """
    if rr.status != STATUS_INFEASIBLE:
        raise ValueError("alt_ram_from_rr needs an infeasible RR form")
    rungs = _rungs_from_rr(inst, rr, rr.k - 1)
    y_head = rr.ref.m_rows[rr.k - 1].copy()
    cert = RamanaCertificate(system=SYSTEM_ALTRAM, y=y_head, ladder=rungs)
    return _front_pad(cert, inst, dual_ladder_length(inst.n, inst.m))
