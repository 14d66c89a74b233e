"""Certificate verification, ladder normalization, and the strong-system lift."""

import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ramanasdp import (
    InductionBreakError,
    Reformulation,
    SdpInstance,
    ShapeMismatchError,
    StrongDualSpec,
    SymMat,
    alt_ram_from_rr,
    build_dram,
    build_rr_form,
    builders,
    embed_certificate,
    facial,
    lift_from_strong,
    normalize_ladder,
    pad_ladder,
    pstrong_spec_from_slack,
    reformulate,
    symmat,
    validate_frs,
    verify_alt_ram,
    verify_certificate,
    verify_dram,
    verify_pram,
    verify_strong,
)
from ramanasdp import verify as verify_module
from ramanasdp.certfile import certificate_to_text, parse_certificate_text, to_ramana_certificate
from ramanasdp.verify import LadderRung, RamanaCertificate, leading_zero_rungs

from helpers import (
    inst_gap_raw,
    inst_gap_rr,
    inst_infeasible,
    inst_unattained,
    ladder_verdicts,
    random_orthonormal,
    through_text,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402


def _z(n):
    return SymMat.zero(n)


def cert_order3():
    return RamanaCertificate(
        system="dram",
        y=np.zeros(3),
        ladder=(
            LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0]), v=_z(3)),
            LadderRung(
                y=np.array([0.0, 1, 0]),
                u=SymMat.diag([1, 1, 0]),
                v=SymMat([[-1, 0, 1], [0, 0, 0], [1, 0, 0]]),
            ),
        ),
    )


def cert_gap_rr():
    v3 = SymMat([[-6, 0, 2, 1], [0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]])
    return RamanaCertificate(
        system="dram",
        y=np.array([0.0, 0, 1]),
        ladder=(
            LadderRung(y=np.zeros(3), u=_z(4), v=_z(4)),
            LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0, 0]), v=_z(4)),
            LadderRung(y=np.array([0.0, 1, 0]), u=SymMat.diag([1, 1, 0, 0]), v=v3),
        ),
    )


def cert_gap_raw():
    v3 = SymMat([[-6, 0, 2, 1], [0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]])
    return RamanaCertificate(
        system="dram",
        y=np.array([0.0, 0, 1]),
        ladder=(
            LadderRung(y=np.zeros(3), u=_z(4), v=_z(4)),
            LadderRung(y=np.array([1.0, -3, 1]), u=SymMat.diag([1, 0, 0, 0]), v=_z(4)),
            LadderRung(y=np.array([0.0, 1, -2]), u=SymMat.diag([1, 1, 0, 0]), v=v3),
        ),
    )


def cert_alt():
    return RamanaCertificate(
        system="altram",
        y=np.array([0.0, 1.0]),
        ladder=(
            LadderRung(y=np.zeros(2), u=_z(3), v=_z(3)),
            LadderRung(y=np.array([1.0, 0]), u=SymMat.diag([1, 0, 0]), v=_z(3)),
        ),
    )


class TestVerifyDram:
    def test_reference_certificates(self):
        assert verify_dram(inst_unattained(), cert_order3()).value == pytest.approx(0.0)
        assert verify_dram(inst_gap_rr(), cert_gap_rr()).value == pytest.approx(1.0)
        assert verify_dram(inst_gap_raw(), cert_gap_raw()).value == pytest.approx(1.0)

    def test_zero_ladder_with_infeasible_y(self):
        # Slack of y = e3 has a negative eigenvalue; the final membership
        # check must fail (tan(0) = {0}, so the slack itself must be PSD).
        inst = inst_unattained()
        cert = RamanaCertificate(system="dram", y=np.array([0.0, 0, 1]), ladder=())
        out = verify_dram(inst, cert)
        assert not out.ok
        assert "head" in out.violation

    def test_corrupted_u_reported(self):
        # Flip U_1's leading entry to -1, compensating V_1 so the rung
        # decomposition still holds: the PSD check is the first to fail.
        cert = cert_order3()
        bad = RamanaCertificate(
            system="dram",
            y=cert.y,
            ladder=(
                LadderRung(
                    y=cert.ladder[0].y,
                    u=SymMat.diag([-1, 0, 0]),
                    v=SymMat.diag([2, 0, 0]),
                ),
            )
            + cert.ladder[1:],
        )
        out = verify_dram(inst_unattained(), bad)
        assert not out.ok
        assert "U_1 not PSD" in out.violation

    def test_broken_decomposition_reported(self):
        cert = cert_order3()
        bad = RamanaCertificate(
            system="dram",
            y=cert.y,
            ladder=cert.ladder[:1]
            + (
                LadderRung(
                    y=cert.ladder[1].y,
                    u=SymMat.diag([1, 0, 0]),
                    v=cert.ladder[1].v,
                ),
            ),
        )
        out = verify_dram(inst_unattained(), bad)
        assert not out.ok and "!=" in out.violation

    def test_claimed_value_mismatch_is_warning(self):
        cert = cert_order3()
        warned = RamanaCertificate(
            system="dram", y=cert.y, ladder=cert.ladder, claimed_value=5.0
        )
        out = verify_dram(inst_unattained(), warned)
        assert out.ok and out.warnings

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            verify_dram(
                inst_unattained(),
                RamanaCertificate(system="dram", y=np.zeros(2), ladder=()),
            )

    def test_front_padding(self):
        # A one-rung ladder pads at the front: the provided rung must land
        # at the last position.
        inst = inst_gap_rr()
        short = RamanaCertificate(
            system="dram",
            y=np.array([1.0, 1.0, 0.0]),
            ladder=(
                LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0, 0]), v=_z(4)),
            ),
        )
        padded = pad_ladder(short, inst)
        assert len(padded.ladder) == 3
        assert padded.ladder[2].u.allclose(SymMat.diag([1, 0, 0, 0]))
        assert verify_dram(inst, short).ok


class TestVerifyAltRam:
    def test_reference_certificate(self):
        assert verify_alt_ram(inst_infeasible(), cert_alt()).ok

    def test_scaled_certificate_fails_normalization(self):
        cert = cert_alt()
        scaled = RamanaCertificate(
            system="altram", y=2.0 * cert.y, ladder=cert.ladder
        )
        out = verify_alt_ram(inst_infeasible(), scaled)
        assert not out.ok and "<b, y> != -1" in out.violation

    def test_zero_certificate_invalid(self):
        out = verify_alt_ram(
            inst_infeasible(),
            RamanaCertificate(system="altram", y=np.zeros(2), ladder=()),
        )
        assert not out.ok


class TestVerifyPram:
    def test_appendix_certificate(self):
        inst = inst_gap_rr()
        x = np.zeros((4, 4))
        x[1, 3] = x[3, 1] = 0.5
        cert = RamanaCertificate(
            system="pram",
            x=SymMat(x),
            ladder=(
                LadderRung(y=None, u=_z(4), v=_z(4)),
                LadderRung(y=None, u=_z(4), v=_z(4)),
                LadderRung(y=None, u=SymMat.from_outer([0, 0, 0, 1.0]), v=_z(4)),
            ),
        )
        out = verify_pram(inst, cert)
        assert out.ok and out.value == pytest.approx(0.0)

    def test_psd_point_zero_ladder(self):
        inst = inst_gap_rr()
        cert = RamanaCertificate(system="pram", x=SymMat.diag([0, 0, 1, 1]), ladder=())
        out = verify_pram(inst, cert)
        assert out.ok and out.value == pytest.approx(1.0)

    def test_non_psd_point_zero_ladder_fails(self):
        inst = inst_gap_rr()
        x = np.zeros((4, 4))
        x[1, 3] = x[3, 1] = 0.5
        out = verify_pram(inst, RamanaCertificate(system="pram", x=SymMat(x), ladder=()))
        assert not out.ok


class TestVerifyStrong:
    def test_dual_side(self):
        assert verify_strong(
            inst_unattained(), StrongDualSpec(q=np.eye(3), r=1), np.zeros(3), "dual"
        ).value == pytest.approx(0.0)
        assert verify_strong(
            inst_gap_rr(), StrongDualSpec(q=np.eye(4), r=2), np.array([0.0, 0, 1]), "dual"
        ).value == pytest.approx(1.0)
        out = verify_strong(
            inst_gap_rr(), StrongDualSpec(q=np.eye(4), r=2), np.array([0.0, 0, 2]), "dual"
        )
        assert not out.ok and out.residual == pytest.approx(1.0)

    def test_primal_side(self):
        x = np.zeros((4, 4))
        x[1, 3] = x[3, 1] = 0.5
        out = verify_strong(
            inst_gap_rr(), StrongDualSpec(q=np.eye(4), r=3), SymMat(x), "primal"
        )
        assert out.ok and out.value == pytest.approx(0.0)


class TestNormalizeLadder:
    def test_already_normalized(self):
        inst = inst_gap_rr()
        cert = RamanaCertificate(
            system="dram",
            y=np.array([1.0, 1.0, 0.0]),
            ladder=(
                LadderRung(y=np.zeros(3), u=_z(4), v=_z(4)),
                LadderRung(y=np.zeros(3), u=_z(4), v=_z(4)),
                LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0, 0]), v=_z(4)),
            ),
        )
        assert verify_dram(inst, cert).value == pytest.approx(0.0)
        rep = normalize_ladder(inst, cert)
        assert rep.r == (0, 0, 1)
        assert rep.frs_valid
        assert all(rep.u_membership)
        assert np.allclose(np.abs(rep.q_total), np.eye(4))  # sign convention only

    def test_reference_ladder(self):
        rep = normalize_ladder(inst_unattained(), cert_order3())
        assert rep.r == (1, 1)
        assert rep.frs_valid and all(rep.u_membership)

    def test_rotation_covariance(self):
        # Transporting the certificate through a random rotation leaves the
        # inferred block sizes unchanged.
        rng = np.random.default_rng(83)
        inst = inst_unattained()
        cert = cert_order3()
        base = normalize_ladder(inst, cert)
        for _ in range(5):
            q = random_orthonormal(rng, 3)
            ref = Reformulation(np.eye(3), q)
            inst_rot = reformulate(inst, ref)
            ladder_rot = tuple(
                LadderRung(
                    y=r.y, u=SymMat(q.T @ r.u.a @ q), v=SymMat(q.T @ r.v.a @ q)
                )
                for r in cert.ladder
            )
            cert_rot = RamanaCertificate(system="dram", y=cert.y, ladder=ladder_rot)
            assert verify_dram(inst_rot, cert_rot).ok
            rep = normalize_ladder(inst_rot, cert_rot)
            assert rep.r == base.r
            assert rep.frs_valid and all(rep.u_membership)

    def test_induction_break_on_bogus_ladder(self):
        inst = inst_unattained()
        bogus = RamanaCertificate(
            system="dram",
            y=np.zeros(3),
            ladder=(
                LadderRung(y=np.array([0.0, 1, 0]), u=_z(3), v=_z(3)),  # 𝒜*y^1 indefinite
                LadderRung(y=np.zeros(3), u=_z(3), v=_z(3)),
            ),
        )
        with pytest.raises(InductionBreakError):
            normalize_ladder(inst, bogus)

    def test_rung_past_the_full_order(self):
        # A positive definite first rung fills the order, so the next rung
        # has no trailing block left and gets rank 0.
        inst = SdpInstance.from_arrays([np.eye(3)], [1.0], np.eye(3))
        cert = RamanaCertificate(
            system="dram",
            y=np.zeros(1),
            ladder=(
                LadderRung(y=np.ones(1), u=SymMat.identity(3), v=_z(3)),
                LadderRung(y=np.full(1, 2.0), u=SymMat.identity(3), v=SymMat.identity(3)),
            ),
        )
        rep = normalize_ladder(inst, cert)
        assert rep.r == (3, 0)
        assert rep.frs_valid and all(rep.u_membership)

    def test_requires_ladder_system(self):
        cert = RamanaCertificate(system="pram", x=SymMat.zero(3), ladder=())
        with pytest.raises(ShapeMismatchError):
            normalize_ladder(inst_unattained(), cert)


class TestLift:
    def test_lift_round_trip_on_gap_instance(self):
        inst = inst_gap_raw()
        rr = build_rr_form(inst)
        from ramanasdp import strong_spec_from_rr

        spec = strong_spec_from_rr(rr)
        y = np.array([0.0, 0.0, 1.0])
        # y must be strong-feasible for the original data.
        assert verify_strong(inst, spec, y, "dual", eps=1e-6).ok
        cert = lift_from_strong(inst, y, rr)
        out = verify_dram(inst, cert, eps=1e-6)
        assert out.ok and out.value == pytest.approx(float(inst.b @ y))
        # And back down: the lifted certificate's y is strong-feasible.
        assert verify_strong(inst, spec, cert.y, "dual", eps=1e-6).ok
        rep = normalize_ladder(inst, cert, eps=1e-6)
        assert rep.frs_valid and all(rep.u_membership)

    def test_lift_zero_ladder_when_strictly_feasible(self):
        from helpers import inst_strict

        inst = inst_strict()
        rr = build_rr_form(inst)
        cert = lift_from_strong(inst, np.array([1.0]), rr)
        assert all(r.u.allclose(_z(3)) for r in cert.ladder)
        assert verify_dram(inst, cert).value == pytest.approx(3.0)

    def test_alt_from_rr(self):
        inst = inst_infeasible()
        rr = build_rr_form(inst)
        cert = alt_ram_from_rr(inst, rr)
        assert verify_alt_ram(inst, cert).ok


class TestOrthogonalityIdentity:
    def test_accepted_certificate_orthogonal_to_feasible_points(self):
        # <X, U_i + V_i> = 0 for every accepted ladder and feasible X.
        from helpers import sample_feasible

        inst = inst_gap_rr()
        cert = cert_gap_rr()
        assert verify_dram(inst, cert).ok
        rr = build_rr_form(inst)
        for x in sample_feasible(inst, rr, count=6, seed=11):
            for rung in cert.ladder:
                s = rung.u + rung.v
                assert abs(x.inner(s)) <= 1e-6 * (1 + x.norm() * s.norm())


def _registry_certificates():
    from ramanasdp import registry

    return [
        (registry.get(eid).instance, rc)
        for eid in registry.all_ids()
        for rc in registry.get(eid).certificates
    ]


def _last_entry_set(values, bad):
    out = np.array(values, dtype=float)
    out.flat[-1] = bad
    return out


def _non_finite_variants(rc, bad):
    """Copies of a registry certificate with one entry of one record set to bad."""
    if rc.cert is None:
        point = rc.point.a if isinstance(rc.point, SymMat) else rc.point
        bad_point = _last_entry_set(point, bad)
        if isinstance(rc.point, SymMat):
            bad_point = SymMat(bad_point)
        bad_spec = StrongDualSpec(q=_last_entry_set(rc.spec.q, bad), r=rc.spec.r)
        return [dict(spec=bad_spec, point=rc.point), dict(spec=rc.spec, point=bad_point)]
    cert = rc.cert
    out = []
    if cert.y is not None:
        out.append(replace(cert, y=_last_entry_set(cert.y, bad)))
    if cert.x is not None:
        out.append(replace(cert, x=SymMat(_last_entry_set(cert.x.a, bad))))
    for i, rung in enumerate(cert.ladder):
        fields = {"u": SymMat(_last_entry_set(rung.u.a, bad)),
                  "v": SymMat(_last_entry_set(rung.v.a, bad))}
        if rung.y is not None:
            fields["y"] = _last_entry_set(rung.y, bad)
        for name, value in fields.items():
            ladder = list(cert.ladder)
            ladder[i] = replace(rung, **{name: value})
            out.append(replace(cert, ladder=tuple(ladder)))
    return [dict(cert=c) for c in out]


class TestNonFiniteRefused:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_every_verify_refuses_one_non_finite_entry(self, bad):
        systems = set()
        for inst, rc in _registry_certificates():
            assert verify_certificate(inst, rc.system, rc.cert, rc.spec, rc.point).ok
            variants = _non_finite_variants(rc, bad)
            assert variants
            for kw in variants:
                with pytest.raises(ValueError, match="non-finite"):
                    verify_certificate(inst, rc.system, **kw)
            systems.add(rc.system)
        assert systems == {"dram", "altram", "pram", "dstrong", "pstrong"}


@pytest.mark.parametrize(
    "tag, check",
    [(t, c) for t in ("dram", "altram", "pram") for c in ("dram", "altram", "pram") if t != c],
)
def test_certificate_for_another_system_refused(tag, check):
    # example-2.5-rr is feasible, so its altram-tagged certificate is a
    # relabelled copy of its dram one.
    from ramanasdp import registry

    entry = registry.get("example-2.5-rr")
    certs = {rc.system: rc.cert for rc in entry.certificates if rc.cert is not None}
    cert = replace(certs["pram" if tag == "pram" else "dram"], system=tag)
    with pytest.raises(ShapeMismatchError, match=f"certificate is for {tag}, not {check}"):
        verify_certificate(entry.instance, check, cert=cert)


def _staircase_instance(b4: float) -> SdpInstance:
    """Order 9: A_j = E_jj for j = 1..3, A_4 = E_12 + E_21, C = diag(1,1,1,0,...)."""
    n = 9
    a = [np.diag(np.eye(n)[j]) for j in range(3)]
    a4 = np.zeros((n, n))
    a4[0, 1] = a4[1, 0] = 1.0
    return SdpInstance.from_arrays(a + [a4], [0, 0, 0, b4], np.diag([1.0] * 3 + [0.0] * 6))


def _staircase_ladder(with_y: bool, first: int) -> tuple[LadderRung, ...]:
    """8 rungs, the last 3 nonzero: U_i = E_ff + ... + E_gg and V_i = -U_{i-1}
    on the coordinates first, first+1, first+2, so U_i + V_i = E_gg."""
    n = 9
    rungs = [LadderRung(y=np.zeros(4) if with_y else None, u=_z(n), v=_z(n))] * 5
    prev = np.zeros(n)
    for j in range(3):
        cur = prev.copy()
        cur[first + j] = 1.0
        y = np.eye(4)[j] if with_y else None
        rungs.append(LadderRung(y=y, u=SymMat.diag(cur), v=SymMat.diag(-prev)))
        prev = cur
    return tuple(rungs)


@pytest.fixture()
def eig_calls(monkeypatch):
    """Orders of the matrices symmat.eig decomposes, counted through every
    module that binds eig by name."""
    calls = []
    real = symmat.eig

    def counted(a):
        calls.append(a.n)
        return real(a)

    for mod in (symmat, facial, verify_module, builders):
        if hasattr(mod, "eig"):
            monkeypatch.setattr(mod, "eig", counted)
    return calls


class TestDecompositionCounts:
    # L = 8 rungs, R = 3 of them nonzero.
    L, R = 8, 3

    def _dram(self):
        return RamanaCertificate(system="dram", y=np.zeros(4), ladder=_staircase_ladder(True, 0))

    def test_verifiers_decompose_r_plus_2(self, eig_calls):
        inst = _staircase_instance(1.0)
        alt = RamanaCertificate(
            system="altram", y=np.array([0.0, 0, 0, -1]), ladder=_staircase_ladder(True, 0)
        )
        pram = RamanaCertificate(
            system="pram", x=SymMat.diag([0.0] * 6 + [1, 0, 0]), ladder=_staircase_ladder(False, 3)
        )
        cases = [
            (verify_dram, inst, self._dram()),
            (verify_alt_ram, inst, alt),
            (verify_pram, _staircase_instance(0.0), pram),
        ]
        for check, case_inst, cert in cases:
            eig_calls.clear()
            assert check(case_inst, cert).ok
            # U_0 = 0, each U_i from the first nonzero rung on, then the
            # head block.
            assert len(eig_calls) == self.R + 2

    def test_verifiers_walk_only_the_rungs_held(self, eig_calls):
        inst = _staircase_instance(1.0)
        full = self._dram()
        short = RamanaCertificate(system="dram", y=full.y, ladder=full.ladder[-self.R :])
        bad_v = SymMat.diag([0.0, 0, 0, 0, 0, 0, 0, 0, 1])  # outside tan(U_7)
        verdicts = []
        for cert in (full, short):
            mid = cert.ladder[-2]
            rung = replace(mid, u=mid.u - bad_v, v=mid.v + bad_v)
            bad = replace(cert, ladder=cert.ladder[:-2] + (rung, cert.ladder[-1]))
            verdicts.append((verify_dram(inst, cert), verify_dram(inst, bad)))
        assert verdicts[0] == verdicts[1]
        assert verdicts[1][1].violation.startswith("rung 7: U_7 not PSD")
        eig_calls.clear()
        assert verify_dram(inst, short).ok
        # U_0 = 0, the R rungs held, then the head block.
        assert len(eig_calls) == self.R + 2

    def test_normalize_ladder_decomposes_3r(self, eig_calls):
        report = normalize_ladder(_staircase_instance(1.0), self._dram())
        assert report.r == (0,) * 5 + (1, 1, 1) and report.frs_valid
        assert report.u_membership == (True,) * self.L
        # From the first nonzero rung on, one classification per rung and
        # per U, and one per member inside validate_frs.
        assert len(eig_calls) == 3 * self.R

    def test_validate_frs(self, eig_calls):
        mats = [_z(9)] * 5 + [SymMat.diag(np.eye(9)[j]) for j in range(3)]
        assert validate_frs(mats).valid
        assert len(eig_calls) == self.R

    def test_pstrong_spec_from_slack(self, eig_calls):
        spec = pstrong_spec_from_slack(SymMat.diag([2.0, 1.0, 0.0]))
        assert spec.r == 2
        assert len(eig_calls) == 1

    def test_embed_certificate(self, eig_calls):
        inst = _staircase_instance(1.0)
        sdp = build_dram(inst)
        eig_calls.clear()
        embed_certificate(sdp, inst, self._dram())
        # n = 9, m = 4: the system holds min(n - 1, m) = 4 rungs, and the
        # ladder's 4 leading zero rungs are dropped.
        assert len(eig_calls) == min(inst.n - 1, inst.m) + 1


def _workload_certificates(seed: int):
    """(name, instance, ladder) for the dram and altram certificates of the
    benchmark's verify workload, valid and with each corruption, built by
    bench/gen as bench/workloads.py builds them: padded to n - 1 rungs.
    One more corruption negates y^j of the first nonzero rung, which
    normalize_ladder refuses there with an InductionBreakError."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (8, 12):
        ranks = tuple(2 if j % 2 else 1 for j in range(n // 4))
        for system in ("dram", "altram"):
            pl = gen.planted(rng, n, ranks, 1, infeasible=system == "altram")
            made = gen.altram_certificate(pl) if system == "altram" else gen.dram_certificate(pl)
            cert = gen.padded(made, pl.inst)
            y = gen.corrupt_head_y(pl, cert.y, dual=system == "dram")
            j = leading_zero_rungs(cert.ladder)
            ladder = list(cert.ladder)
            ladder[j] = replace(ladder[j], y=-ladder[j].y)
            out += [
                (f"{system}-valid-n{n}", pl.inst, cert),
                (f"{system}-rung_u-n{n}", pl.inst, gen.corrupt_rung(pl, cert, u_not_psd=True)),
                (f"{system}-rung_v-n{n}", pl.inst, gen.corrupt_rung(pl, cert, u_not_psd=False)),
                (f"{system}-head-n{n}", pl.inst, replace(cert, y=y)),
                (f"{system}-rung_y-n{n}", pl.inst, replace(cert, ladder=tuple(ladder))),
            ]
    return out


@pytest.mark.parametrize("seed", [107, 211])
def test_workload_certificates_verify_alike(seed, monkeypatch):
    # The checks skip a ladder's leading zero rungs and the writer leaves
    # them out; both give the verdicts of a walk over every rung.
    cases = _workload_certificates(seed)
    assert all(leading_zero_rungs(cert.ladder) for _, _, cert in cases)
    skipped = [ladder_verdicts(inst, cert) for _, inst, cert in cases]
    read = [ladder_verdicts(inst, through_text(inst, cert)) for _, inst, cert in cases]
    monkeypatch.setattr(verify_module, "leading_zero_rungs", lambda ladder: 0)
    walked = [ladder_verdicts(inst, cert) for _, inst, cert in cases]
    assert skipped == walked
    assert read == walked
    for (name, _, _), (outcome, report) in zip(cases, walked):
        assert outcome.ok == ("valid" in name), (name, outcome.violation)
        if "rung_y" in name:
            assert report.startswith("rung "), (name, report)


def test_checking_a_parsed_certificate_holds_each_matrix_once():
    # An n = 24 dram certificate as the verify workload builds it, six
    # nonzero rungs: its matrix records take R = 12·24²·8 bytes.  Each
    # SymMat holds its parsed record, so assembling the ladder adds well
    # under R/4, and the rung tests build no tangent witness, so parse,
    # assembly and check peak below 2.5 R.  Copying every record into its
    # SymMat and building a witness at every tangent test peaked at 3.3 R.
    rng = np.random.default_rng(107)
    pl = gen.planted(rng, 24, (1, 2, 1, 2, 1, 2), 1)
    text = certificate_to_text(
        pl.inst, "dram", cert=gen.padded(gen.dram_certificate(pl), pl.inst)
    )
    verify_dram(pl.inst, to_ramana_certificate(parse_certificate_text(text), pl.inst))
    tracemalloc.start()
    try:
        cf = parse_certificate_text(text)
        parsed = tracemalloc.get_traced_memory()[0]
        cert = to_ramana_certificate(cf, pl.inst)
        assembled = tracemalloc.get_traced_memory()[0]
        outcome = verify_dram(pl.inst, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record_bytes = sum(a.nbytes for a in cf.matrices.values())
    assert outcome.ok and record_bytes == 12 * 24 * 24 * 8
    assert assembled - parsed < record_bytes / 4
    assert peak < 2.5 * record_bytes


def test_checks_build_no_tangent_witness(monkeypatch):
    # The rung tests ask tan_contains for membership only; the witness
    # (W, R) is for embedding alone.
    def refuse(*args):
        raise AssertionError("a check built a tangent witness")

    cases = _workload_certificates(107)
    want = [ladder_verdicts(inst, cert) for _, inst, cert in cases]
    monkeypatch.setattr(symmat, "_tangent_witness_from_eigbasis", refuse)
    assert [ladder_verdicts(inst, cert) for _, inst, cert in cases] == want
    assert sum(outcome.ok for outcome, _ in want) == 4
    with pytest.raises(AssertionError, match="built a tangent witness"):
        symmat.tangent_witness(SymMat.diag([1.0, 0.0]), SymMat([[0.0, 1.0], [1.0, 0.0]]))
