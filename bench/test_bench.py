"""Self-tests of the benchmark's tracer, generators and metric catalogue.

Run from the root of the checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import ramanasdp as rs  # noqa: E402
from ramanasdp import facial, symmat, verify  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _solve(pl):
    rr = rs.build_rr_form(pl.inst)
    value = rs.primal_optimal_value(pl.inst, rr)
    cert = rs.lift_from_strong(pl.inst, pl.y0, rr)
    return rr, value, rs.verify_dram(pl.inst, cert, eps=workloads.LIFT_EPS)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_traced_and_untraced_results_identical():
    pl = gen.planted(np.random.default_rng(5), 7, (2, 1), 2)
    plain = _solve(pl)
    t = tracing.Tracer()
    t.install()
    try:
        t.active = True
        traced = _solve(pl)
        t.active = False
    finally:
        t.uninstall()
    assert t.spans, "no spans were recorded"
    (rr_a, val_a, out_a), (rr_b, val_b, out_b) = plain, traced
    assert (rr_a.status, rr_a.r, rr_a.k) == (rr_b.status, rr_b.r, rr_b.k)
    assert np.array_equal(rr_a.ref.m_rows, rr_b.ref.m_rows)
    assert np.array_equal(rr_a.ref.q, rr_b.ref.q)
    assert val_a == val_b
    assert (out_a.ok, out_a.value) == (out_b.ok, out_b.value)


def test_calls_through_by_name_bindings_are_counted(tracer):
    # facial and verify bind eig and classify_psd by name at import time.
    assert facial.eig is symmat.eig and verify.classify_psd is symmat.classify_psd
    assert getattr(facial.eig, "__wrapped__", None) is not None
    pl = gen.planted(np.random.default_rng(6), 6, (1,), 2)
    cert = gen.padded(gen.dram_certificate(pl), pl.inst)
    tracer.active = True
    rs.build_rr_form(pl.inst)
    rs.verify_dram(pl.inst, cert)
    tracer.active = False
    parents = {
        (s.key, tracer.spans[s.parent].key if s.parent >= 0 else None) for s in tracer.spans
    }
    assert ("symmat.eig", "facial.build_rr_form") in parents
    assert ("symmat.classify_psd", "verify.verify_dram") in parents
    assert ("symmat.tan_contains", "verify.verify_dram") in parents
    summary = tracing.summary(tracer.spans)
    assert summary["symmat.eig.calls"] == sum(1 for s in tracer.spans if s.key == "symmat.eig")
    assert summary["verify.verify_dram.calls"] == 1


def test_uninstall_restores_every_binding():
    originals = tracing.layer_functions()
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    for key, fn in originals.items():
        layer, name = key.split(".")
        assert getattr(sys.modules[f"ramanasdp.{layer}"], name) is fn
    assert facial.eig is originals["symmat.eig"]
    assert rs.verify_dram is originals["verify.verify_dram"]


def test_self_times_account_for_top_level_spans(tracer):
    pl = gen.planted(np.random.default_rng(7), 6, (1, 1), 0, infeasible=True)
    tracer.active = True
    rr = rs.build_rr_form(pl.inst)
    rs.verify_alt_ram(pl.inst, rs.alt_ram_from_rr(pl.inst, rr))
    tracer.active = False
    summary = tracing.summary(tracer.spans)
    layers = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(summary["spans.top_s"], rel=1e-9)
    assert summary["facial.rr_rounds"] == summary["facial.solve_alternative.calls"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_batches_pass_their_checks(name, tmp_path):
    ops = workloads.WORKLOADS[name](3, str(tmp_path))
    kinds = {}
    for op in ops:
        if op.n <= 10 and op.kind not in kinds:
            kinds[op.kind] = op
    small = list(kinds.values())
    signatures: dict = {}
    run._run_batch(small, signatures)
    run._run_batch(small, signatures)  # a second run must repeat the first
    assert len(signatures) == len(small)


def test_corrupted_certificates_are_planted_invalid():
    pl = gen.planted(np.random.default_rng(8), 9, (1, 2), 1)
    cert = gen.padded(gen.dram_certificate(pl), pl.inst)
    assert rs.verify_dram(pl.inst, cert).ok
    for u_not_psd in (True, False):
        assert not rs.verify_dram(pl.inst, gen.corrupt_rung(pl, cert, u_not_psd)).ok
    head = rs.RamanaCertificate(system="dram", y=gen.corrupt_head_y(pl, cert.y, dual=True),
                                ladder=cert.ladder)
    assert not rs.verify_dram(pl.inst, head).ok


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
