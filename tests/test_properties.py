"""Randomized property suites: ≥200 fixed-seed trials each, n ≤ 8, m ≤ 6.

Each suite is a plain function (also invoked by the acceptance module,
which additionally enforces the total runtime budget); the pytest
wrappers below run them individually.
"""

import numpy as np

from ramanasdp import (
    SdpInstance,
    SymMat,
    apply_a,
    apply_at,
    build_rr_form,
    classify_psd,
    dual_slack,
    lift_from_strong,
    normalize_ladder,
    rotate,
    solve_alternative,
    strong_spec_from_rr,
    tan_contains,
    tangent_witness,
    verify_dram,
    verify_strong,
    weak_duality_gap,
)
from ramanasdp.facial import MODE_EQ_ZERO
from ramanasdp.verify import RamanaCertificate

from helpers import (
    random_orthonormal,
    random_psd,
    random_sym,
)

TRIALS = 200


def _dims(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    return n, m


def suite_tangent_rotation_invariance(trials: int = TRIALS) -> None:
    rng = np.random.default_rng(101)
    for _ in range(trials):
        n, _ = _dims(rng)
        u = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        v = random_sym(rng, n)
        q = random_orthonormal(rng, n)
        assert (
            tan_contains(u, v).member
            == tan_contains(rotate(u, q), rotate(v, q)).member
        )


def suite_tangent_witness_soundness(trials: int = TRIALS) -> None:
    rng = np.random.default_rng(103)
    for _ in range(trials):
        n, _ = _dims(rng)
        r = int(rng.integers(1, n + 1))
        q = random_orthonormal(rng, n)
        lam = np.zeros(n)
        lam[:r] = rng.uniform(0.2, 3.0, size=r)
        u = SymMat(q @ np.diag(lam) @ q.T)
        v_rot = np.zeros((n, n))
        v_rot[:r, :] = rng.standard_normal((r, n))
        v = SymMat(q @ (v_rot + v_rot.T) @ q.T)
        assert tan_contains(u, v).member
        w = tangent_witness(u, v)
        assert np.max(np.abs(w.w + w.w.T - v.a)) <= 1e-9 * (1 + v.norm())
        assert classify_psd(w.block_matrix(u)).is_psd


def suite_adjoint_identity(trials: int = TRIALS) -> None:
    rng = np.random.default_rng(107)
    for _ in range(trials):
        n, m = _dims(rng)
        mats = tuple(random_sym(rng, n) for _ in range(m))
        inst = SdpInstance(a=mats, b=rng.standard_normal(m), c=random_sym(rng, n))
        x = random_sym(rng, n)
        y = rng.standard_normal(m)
        lhs = float(apply_a(inst, x) @ y)
        rhs = x.inner(apply_at(inst, y))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))


def suite_gap_identity(trials: int = TRIALS) -> None:
    # <C,X> - <b,y> = <C - A*y, X> for every feasible X and any y.
    rng = np.random.default_rng(109)
    for _ in range(trials):
        n, m = _dims(rng)
        mats = tuple(random_sym(rng, n) for _ in range(m))
        x0 = random_psd(rng, n)
        inst = SdpInstance(
            a=mats,
            b=np.array([ai.inner(x0) for ai in mats]),
            c=random_sym(rng, n),
        )
        y = rng.standard_normal(m)
        gap = weak_duality_gap(inst, x0, y)
        via = dual_slack(inst, y).inner(x0)
        assert abs(gap - via) <= 1e-8 * (1 + abs(gap))


def _planted_dual_feasible(rng, n, m):
    """Instance with primal-feasible X0 and dual-feasible y0."""
    mats = tuple(random_sym(rng, n) for _ in range(m))
    rank = int(rng.integers(1, n + 1))
    x0 = random_psd(rng, n, rank=rank)
    y0 = rng.standard_normal(m)
    s0 = random_psd(rng, n)
    c = SymMat(sum(y * ai.a for y, ai in zip(y0, mats)) + s0.a)
    inst = SdpInstance(a=mats, b=np.array([ai.inner(x0) for ai in mats]), c=c)
    return inst, x0, y0


def suite_containment_zero_ladder(trials: int = TRIALS) -> None:
    # Every classical-dual-feasible y extends to an exact-dual point with an
    # all-zero ladder, so the exact dual's value dominates the classical one.
    rng = np.random.default_rng(113)
    for _ in range(trials):
        n, m = _dims(rng)
        inst, _, y0 = _planted_dual_feasible(rng, n, m)
        cert = RamanaCertificate(system="dram", y=y0, ladder=())
        out = verify_dram(inst, cert)
        assert out.ok
        assert out.value == float(inst.b @ y0)


def suite_strict_feasibility_collapse(trials: int = TRIALS) -> None:
    # On strictly feasible instances no nonzero PSD combination with
    # <b, y> = 0 exists, so every accepted ladder collapses: rung 1 forces
    # U_1 ≈ 0 and inductively every U_i, V_i ≈ 0.  Operationally: the
    # alternative solver certifies NotFound and the lift produces the
    # all-zero ladder.
    rng = np.random.default_rng(127)
    for _ in range(trials):
        n, m = _dims(rng)
        mats = tuple(random_sym(rng, n) for _ in range(m))
        x0 = random_psd(rng, n) + 0.3 * SymMat.identity(n)
        inst = SdpInstance(
            a=mats, b=np.array([ai.inner(x0) for ai in mats]), c=random_sym(rng, n)
        )
        alt = solve_alternative(inst, MODE_EQ_ZERO)
        assert not alt.found
        rr = build_rr_form(inst)
        assert rr.k == 0
        y0 = np.zeros(m)
        cert = lift_from_strong(inst, y0, rr)
        for rung in cert.ladder:
            assert rung.u.norm() <= 1e-6
            assert rung.v.norm() <= 1e-6


def _lift_cases(trials: int):
    """Shared generator for the lift and normalization suites.

    Half the cases are genuinely degenerate (built on a planted face and
    scrambled by a random reformulation, so the ladder is nontrivial);
    the other half are generic: usually strictly feasible, ladder empty.
    """
    from helpers import random_degenerate_instance

    rng = np.random.default_rng(131)
    for count in range(trials):
        if count % 2 == 0:
            # Degenerate but cleanly rounding: one or two reduction rungs
            # and a trailing block of order at least two.  (Deeper cascades
            # are beyond one-shot floating-point facial reduction: the face
            # alignment error is about sqrt(machine eps) per round.)
            n = int(rng.integers(4, 7))
            m = int(rng.integers(2, min(n + 1, 7)))
            k = int(rng.integers(1, min(2, m) + 1))
            left = n - 2
            ranks = []
            for _ in range(k):
                if left <= 0:
                    break
                r = int(rng.integers(1, min(2, left) + 1))
                ranks.append(r)
                left -= r
            inst, y0, _ = random_degenerate_instance(rng, n, m, tuple(ranks))
        else:
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n + 1, 7)))
            inst, _, y0 = _planted_dual_feasible(rng, n, m)
        yield inst, y0


def suite_lift_round_trip(trials: int = TRIALS) -> None:
    # strong-feasible y -> ladder certificate -> exact-dual verification ->
    # strong verification again, with the value preserved.
    for inst, y0 in _lift_cases(trials):
        rr = build_rr_form(inst)
        assert rr.status == "feasible"
        spec = strong_spec_from_rr(rr)
        assert verify_strong(inst, spec, y0, "dual", eps=1e-6).ok
        cert = lift_from_strong(inst, y0, rr)
        out = verify_dram(inst, cert, eps=1e-6)
        assert out.ok, out.violation
        assert abs(out.value - float(inst.b @ y0)) <= 1e-9 * (1 + abs(out.value))
        assert verify_strong(inst, spec, cert.y, "dual", eps=1e-6).ok


def suite_normalize_builder_certificates(trials: int = TRIALS) -> None:
    for inst, y0 in _lift_cases(trials):
        rr = build_rr_form(inst)
        cert = lift_from_strong(inst, y0, rr)
        rep = normalize_ladder(inst, cert, eps=1e-6)
        assert rep.frs_valid
        assert all(rep.u_membership)
        assert sum(rep.r) == sum(rr.r)


ALL_SUITES = (
    suite_tangent_rotation_invariance,
    suite_tangent_witness_soundness,
    suite_adjoint_identity,
    suite_gap_identity,
    suite_containment_zero_ladder,
    suite_strict_feasibility_collapse,
    suite_lift_round_trip,
    suite_normalize_builder_certificates,
)


def test_tangent_rotation_invariance():
    suite_tangent_rotation_invariance()


def test_tangent_witness_soundness():
    suite_tangent_witness_soundness()


def test_adjoint_identity():
    suite_adjoint_identity()


def test_gap_identity():
    suite_gap_identity()


def test_containment_zero_ladder():
    suite_containment_zero_ladder()


def test_strict_feasibility_collapse():
    suite_strict_feasibility_collapse()


def test_lift_round_trip():
    suite_lift_round_trip()


def test_normalize_builder_certificates():
    suite_normalize_builder_certificates()
