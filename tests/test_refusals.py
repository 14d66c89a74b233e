"""Refusal table of the certificate layer.

One row per refusal in ``verify`` (each ``_fail`` and each ``raise``),
per comparison in ``certfile.check_instance_binding`` and per way a file
can hold other than one binding field.  A row takes a valid
certificate of the example registry and makes one minimal corruption that
breaks exactly one check, and it names that check: the violation a
verifier reports, or the exception it raises.  The same certificate
without the corruption passes.
"""

from dataclasses import replace

import numpy as np
import pytest

from ramanasdp import (
    InductionBreakError,
    InstanceHashMismatchError,
    NonOrthonormalError,
    SdpInstance,
    ShapeMismatchError,
    StrongDualSpec,
    SymMat,
    alt_ram_from_rr,
    build_rr_form,
    certfile,
    lift_from_strong,
    normalize_ladder,
    registry,
    verify_alt_ram,
    verify_certificate,
    verify_dram,
    verify_strong,
)

from helpers import inst_infeasible, inst_unattained

UNATTAINED = ("example-1.1-unattained", "exact-dual-ladder")  # dram, n = 3
INFEASIBLE = ("example-2.15-infeasible", "exact-alternative")  # altram, n = 3
GAP_RR = "example-2.5-rr"  # n = 4, m = 3
PRAM = (GAP_RR, "exact-primal-ladder")
DSTRONG = (GAP_RR, "strong-dual-trailing2")  # Q = I, r = 2
PSTRONG = (GAP_RR, "strong-primal-leading3")  # Q = I, r = 3


def _base(entry_id: str, name: str):
    entry = registry.get(entry_id)
    return entry.instance, next(rc for rc in entry.certificates if rc.name == name)


def _rung(cert, i: int, **fields):
    """The certificate with rung i (1-based) changed."""
    ladder = list(cert.ladder)
    ladder[i - 1] = replace(ladder[i - 1], **fields)
    return replace(cert, ladder=tuple(ladder))


def _zero_rung(cert, i: int):
    n = cert.ladder[0].u.n
    y = cert.ladder[i - 1].y
    return _rung(cert, i, y=None if y is None else np.zeros_like(y),
                 u=SymMat.zero(n), v=SymMat.zero(n))


def _with(inst: SdpInstance, *, b=None, a0=None, c=None) -> SdpInstance:
    """The instance with b, A_1 or C replaced."""
    a = (SymMat(a0),) + inst.a[1:] if a0 is not None else inst.a
    return SdpInstance(a=a, b=inst.b if b is None else b, c=inst.c if c is None else SymMat(c))


def _cert(f):
    """A row corruption that changes the certificate only."""
    return lambda inst, kw: (inst, {**kw, "cert": f(kw["cert"])})


# (id, base, corruption (inst, kw) -> (inst, kw), the violation it must report)
VIOLATIONS = [
    # dram: example 1.1's ladder, rung 2 is y^2 = e_2, U_2 = diag(1, 1, 0) and
    # V_2 ∈ tan(U_1 = diag(1, 0, 0)); the head is C - 𝒜*0 = C.
    ("dram-rung-decomposition", UNATTAINED,
     _cert(lambda c: _rung(c, 2, u=SymMat.diag([2, 1, 0]))),
     "rung 2: 𝒜*y^2 != U_2 + V_2"),
    # y^2 gains a component along A_3 = E_33, which U_2 absorbs; b = e_3.
    ("dram-rung-b", UNATTAINED,
     _cert(lambda c: _rung(c, 2, y=np.array([0.0, 1, 1]), u=SymMat.diag([1, 1, 1]))),
     "rung 2: <b, y^2> != 0"),
    # 2·E_11 moves from U_2 to V_2, where tan(U_1) allows it.
    ("dram-rung-u-psd", UNATTAINED,
     _cert(lambda c: _rung(c, 2, u=SymMat.diag([-1, 1, 0]),
                           v=SymMat(c.ladder[1].v.a + np.diag([2.0, 0, 0])))),
     "rung 2: U_2 not PSD"),
    # E_33 moves from V_2 to U_2; tan(U_1) has no (3, 3) entry.
    ("dram-rung-v-tangent", UNATTAINED,
     _cert(lambda c: _rung(c, 2, u=SymMat.diag([1, 1, 1]),
                           v=SymMat(c.ladder[1].v.a - np.diag([0.0, 0, 1])))),
     "rung 2: V_2 not in tan(U_1)"),
    ("dram-head", UNATTAINED,
     _cert(lambda c: replace(c, y=np.array([0.0, 0, 1]))),
     "head: C - 𝒜*y not in S₊ + tan(U_{n-1})"),
    # altram: example 2.15's ladder, rung 2 is y^2 = e_1, U_2 = diag(1, 0, 0);
    # the head y = e_2 has <b, y> = -1.  Rung 2 follows U_1 = 0, so V_2 = 0
    # and U_2 = 𝒜*y^2 is PSD only for y^2 along e_1: no change of the
    # certificate alone moves <b, y^2> off zero.  b_1 moves instead.
    ("altram-rung-b", INFEASIBLE,
     lambda inst, kw: (_with(inst, b=np.array([0.5, -1.0])), kw),
     "rung 2: <b, y^2> != 0"),
    ("altram-head-cone", INFEASIBLE,
     _cert(lambda c: _zero_rung(c, 2)),
     "head: 𝒜*y not in S₊ + tan(U_{n-1})"),
    ("altram-head-b", INFEASIBLE,
     _cert(lambda c: replace(c, y=2.0 * c.y)),
     "head: <b, y> != -1"),
    # pram: example 2.5's primal ladder, rungs 1 and 2 zero, U_3 = E_44; X
    # has X_24 = X_42 = 1/2.  Any PSD U with <C, U> = 0 is a multiple of
    # E_44, which 𝒜 maps to 0, so the rung equalities are broken through
    # the instance: one entry of A_1 or of C on (4, 4), which X does not see.
    ("pram-rung-a", PRAM,
     lambda inst, kw: (_with(inst, a0=inst.a[0].a + np.diag([0.0, 0, 0, 1])), kw),
     "rung 3: 𝒜(U_3 + V_3) != 0"),
    ("pram-rung-c", PRAM,
     lambda inst, kw: (_with(inst, c=inst.c.a + np.diag([0.0, 0, 0, 1])), kw),
     "rung 3: <C, U_3 + V_3> != 0"),
    ("pram-head-ax", PRAM,
     _cert(lambda c: replace(c, x=SymMat(c.x.a + np.diag([1.0, 0, 0, 0])))),
     "head: 𝒜X != b"),
    ("pram-head-cone", PRAM,
     _cert(lambda c: _zero_rung(c, 3)),
     "head: X not in S₊ + tan(U_{n-1})"),
    ("dstrong-trailing-block", DSTRONG,
     lambda inst, kw: (inst, {**kw, "point": np.array([0.0, 0, 2])}),
     "trailing slack block not PSD"),
    ("pstrong-ax", PSTRONG,
     lambda inst, kw: (inst, {**kw, "point": SymMat(kw["point"].a + np.diag([1.0, 0, 0, 0]))}),
     "𝒜X != b"),
    # Q swaps coordinates 1 and 4, which moves X_24 into the leading block.
    ("pstrong-leading-block", PSTRONG,
     lambda inst, kw: (inst, {**kw, "spec": StrongDualSpec(q=np.eye(4)[[3, 1, 2, 0]], r=3)}),
     "leading X block not PSD"),
]


def _kw(rc) -> dict:
    return {"cert": rc.cert, "spec": rc.spec, "point": rc.point}


@pytest.mark.parametrize("base, corrupt, violation",
                         [row[1:] for row in VIOLATIONS], ids=[row[0] for row in VIOLATIONS])
def test_corruption_reports_its_violation(base, corrupt, violation):
    inst, rc = _base(*base)
    assert verify_certificate(inst, rc.system, **_kw(rc)).ok
    bad_inst, kw = corrupt(inst, _kw(rc))
    out = verify_certificate(bad_inst, rc.system, **kw)
    assert not out.ok
    assert out.violation.startswith(violation)


def _point(f):
    return lambda inst, kw: (inst, {**kw, "point": f(kw["point"])})


def _spec(**fields):
    return lambda inst, kw: (inst, {**kw, "spec": StrongDualSpec(**{
        "q": kw["spec"].q, "r": kw["spec"].r, **fields})})


def _missing(name: str):
    return lambda inst, kw: (inst, {**kw, name: None})


# (id, base, corruption, exception type, message pattern)
RAISES = [
    ("system-mismatch", UNATTAINED, _cert(lambda c: replace(c, system="altram")),
     ShapeMismatchError, "certificate is for altram, not dram"),
    ("head-y-length", UNATTAINED, _cert(lambda c: replace(c, y=np.zeros(2))),
     ShapeMismatchError, "certificate y must be an m-vector"),
    ("head-y-non-finite", UNATTAINED, _cert(lambda c: replace(c, y=np.array([0.0, 0, np.nan]))),
     ValueError, "certificate y has a non-finite entry"),
    ("head-x-order", PRAM, _cert(lambda c: replace(c, x=SymMat.zero(3))),
     ShapeMismatchError, "certificate X must be an order-n matrix"),
    ("head-x-non-finite", PRAM,
     _cert(lambda c: replace(c, x=SymMat(c.x.a + np.diag([np.inf, 0, 0, 0])))),
     ValueError, "certificate X has a non-finite entry"),
    ("rung-matrix-order", UNATTAINED, _cert(lambda c: _rung(c, 1, u=SymMat.diag([1, 0, 0, 0]))),
     ShapeMismatchError, "rung 1 matrices must have order 3"),
    ("rung-y-length", UNATTAINED, _cert(lambda c: _rung(c, 1, y=np.array([1.0, 0]))),
     ShapeMismatchError, "rung 1 y must be an m-vector"),
    ("rung-y-non-finite", UNATTAINED, _cert(lambda c: _rung(c, 1, y=np.array([1.0, 0, np.nan]))),
     ValueError, "rung 1 y has a non-finite entry"),
    ("rung-u-non-finite", UNATTAINED,
     _cert(lambda c: _rung(c, 1, u=SymMat.diag([1, 0, np.nan]))),
     ValueError, "rung 1 U has a non-finite entry"),
    ("rung-v-non-finite", UNATTAINED,
     _cert(lambda c: _rung(c, 1, v=SymMat.diag([0, 0, np.nan]))),
     ValueError, "rung 1 V has a non-finite entry"),
    # Finite entries whose norm overflows: every tolerance would be inf.
    ("rung-u-norm-overflow", UNATTAINED,
     _cert(lambda c: _rung(c, 1, u=SymMat.diag([1e160, 0, -1]))),
     ValueError, "rung 1 U has a non-finite entry or norm"),
    ("rung-u-above-half-max", UNATTAINED,
     _cert(lambda c: _rung(c, 1, u=SymMat.diag([1.5e308, 0, -1]))),
     ValueError, "rung 1 U has a non-finite entry or norm"),
    ("ladder-too-long", UNATTAINED,
     _cert(lambda c: replace(c, ladder=c.ladder[:1] + c.ladder)),
     ShapeMismatchError, "ladder has 3 rungs, instance allows 2"),
    ("strong-y-length", DSTRONG, _point(lambda y: np.zeros(2)),
     ShapeMismatchError, "y must be an m-vector"),
    ("strong-y-non-finite", DSTRONG, _point(lambda y: np.array([0.0, 0, np.nan])),
     ValueError, "y has a non-finite entry"),
    ("strong-x-order", PSTRONG, _point(lambda x: SymMat.zero(3)),
     ShapeMismatchError, "X must have order n"),
    ("strong-x-non-finite", PSTRONG, _point(lambda x: SymMat(x.a + np.diag([np.nan, 0, 0, 0]))),
     ValueError, "X has a non-finite entry"),
    ("strong-q-non-finite", DSTRONG, _spec(q=np.diag([1.0, 1, 1, np.nan])),
     ValueError, "rotation Q has a non-finite entry"),
    ("strong-q-not-orthonormal", DSTRONG, _spec(q=np.diag([1.0, 1, 1, 2])),
     NonOrthonormalError, "exceeds"),
    ("strong-q-order", DSTRONG, _spec(q=np.eye(3)),
     ValueError, "rotation order mismatch"),
    ("strong-r-range", DSTRONG, _spec(r=5),
     ValueError, "r = 5 outside 0..4"),
    # verify_certificate without the argument its system reads.
    ("dram-cert-missing", UNATTAINED, _missing("cert"),
     ValueError, "dram needs a ladder certificate: cert is missing"),
    ("altram-cert-missing", INFEASIBLE, _missing("cert"),
     ValueError, "altram needs a ladder certificate: cert is missing"),
    ("pram-cert-missing", PRAM, _missing("cert"),
     ValueError, "pram needs a ladder certificate: cert is missing"),
    ("dstrong-spec-missing", DSTRONG, _missing("spec"),
     ValueError, "dstrong needs a spec and a point: spec is missing"),
    ("pstrong-spec-missing", PSTRONG, _missing("spec"),
     ValueError, "pstrong needs a spec and a point: spec is missing"),
    ("dstrong-point-missing", DSTRONG, _missing("point"),
     ValueError, "dstrong needs a spec and a point: point is missing"),
    ("pstrong-point-missing", PSTRONG, _missing("point"),
     ValueError, "pstrong needs a spec and a point: point is missing"),
]


@pytest.mark.parametrize("base, corrupt, exc, match",
                         [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_corruption_raises(base, corrupt, exc, match):
    inst, rc = _base(*base)
    assert verify_certificate(inst, rc.system, **_kw(rc)).ok
    bad_inst, kw = corrupt(inst, _kw(rc))
    with pytest.raises(exc, match=match):
        verify_certificate(bad_inst, rc.system, **kw)


def test_dispatch_refuses_an_unknown_system():
    inst, rc = _base(*UNATTAINED)
    with pytest.raises(ValueError, match="unknown system 'ram'"):
        verify_certificate(inst, "ram", cert=rc.cert)


def test_strong_check_refuses_an_unknown_side():
    inst, rc = _base(*DSTRONG)
    assert verify_strong(inst, rc.spec, rc.point, "dual").ok
    with pytest.raises(ValueError, match="unknown side 'sideways'"):
        verify_strong(inst, rc.spec, rc.point, "sideways")


def test_normalization_refuses_a_ladder_that_breaks_the_induction():
    # 𝒜*y^2 = -A_2 has the block [[-1, 0], [0, 0]] outside the range of
    # 𝒜*y^1 = diag(1, 0, 0).
    inst, rc = _base(*UNATTAINED)
    assert normalize_ladder(inst, rc.cert).frs_valid
    with pytest.raises(InductionBreakError, match="rung 2"):
        normalize_ladder(inst, _rung(rc.cert, 2, y=np.array([0.0, -1, 0])))


def test_normalization_refuses_a_primal_ladder():
    inst, rc = _base(*PRAM)
    with pytest.raises(ShapeMismatchError, match="certificate is for pram, not dram or altram"):
        normalize_ladder(inst, rc.cert)


class TestConstructionsRefuse:
    def test_lift_needs_an_m_vector(self):
        inst = inst_unattained()
        rr = build_rr_form(inst)
        assert verify_dram(inst, lift_from_strong(inst, np.zeros(3), rr)).ok
        with pytest.raises(ShapeMismatchError, match="y must be an m-vector"):
            lift_from_strong(inst, np.zeros(2), rr)

    def test_lift_needs_a_feasible_rr_form(self):
        inst = inst_infeasible()
        with pytest.raises(ValueError, match="needs a feasible RR form"):
            lift_from_strong(inst, np.zeros(2), build_rr_form(inst))

    def test_alt_ram_needs_an_infeasible_rr_form(self):
        inst = inst_infeasible()
        assert verify_alt_ram(inst, alt_ram_from_rr(inst, build_rr_form(inst))).ok
        feasible = inst_unattained()
        with pytest.raises(ValueError, match="needs an infeasible RR form"):
            alt_ram_from_rr(feasible, build_rr_form(feasible))


class TestInstanceBinding:
    def _text(self, field: str = "instance-sha256-f64") -> str:
        """The text with its binding line written as ``field``: "both" adds
        the legacy instance-hash line to it, "neither" drops it."""
        inst, rc = _base(GAP_RR, "exact-dual-ladder")
        text = certfile.certificate_to_text(inst, rc.system, cert=rc.cert)
        new = f"instance-sha256-f64 {certfile.number_digest(inst)}\n"
        legacy = f"instance-hash {certfile.instance_digest(inst)}\n"
        lines = {"instance-sha256-f64": new, "instance-hash": legacy,
                 "both": new + legacy, "neither": ""}
        return text.replace(new, lines[field])

    def _file(self, field: str = "instance-sha256-f64"):
        cf = certfile.parse_certificate_text(self._text(field))
        certfile.check_instance_binding(cf, registry.get(GAP_RR).instance)
        return cf

    def test_other_shape_refused(self):
        with pytest.raises(InstanceHashMismatchError, match="certificate is for n=4, m=3"):
            certfile.check_instance_binding(self._file(), inst_unattained())

    def test_same_shape_other_digest_refused(self):
        # example-2.3-gap is the same instance before its row operations:
        # n = 4 and m = 3 agree, so only the digest tells them apart.
        other = registry.get("example-2.3-gap").instance
        with pytest.raises(InstanceHashMismatchError, match="hash does not match"):
            certfile.check_instance_binding(self._file(), other)

    @pytest.mark.parametrize("field", ["instance-sha256-f64", "instance-hash"])
    def test_other_digest_refused_on_either_field(self, field):
        cf, other = self._file(field), registry.get("example-2.3-gap").instance
        with pytest.raises(InstanceHashMismatchError, match=rf"hash does not match .*\({field}\)"):
            certfile.check_instance_binding(cf, other)

    @pytest.mark.parametrize("fields", ["both", "neither"])
    def test_other_than_one_binding_field_refused(self, fields):
        match = f"{fields} of the header fields instance-sha256-f64 and instance-hash"
        with pytest.raises(certfile.CertificateFormatError, match=match):
            certfile.parse_certificate_text(self._text(fields))
