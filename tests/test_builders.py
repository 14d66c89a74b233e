"""Emission of the exact duals / alternative systems as explicit SDPs."""

import dataclasses
import hashlib
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ramanasdp import (
    DependentConstraintsError,
    IterationLimitError,
    NumericalRankAmbiguityError,
    SdpInstance,
    StrongDualSpec,
    SubsolverFailureError,
    SymMat,
    apply_a,
    build_alt_ram,
    build_dram,
    build_dstrong,
    build_pram,
    build_pstrong,
    alt_ram_from_rr,
    build_rr_form,
    classical_dual_instance,
    dram_size,
    embed_certificate,
    embed_strong_point,
    lift_from_strong,
    pstrong_spec_from_slack,
    verify_alt_ram,
    verify_dram,
    verify_strong,
)
from ramanasdp.builders import (
    Assignment,
    PsdBlock,
    max_violation,
    min_block_eigenvalue,
    objective_value,
    residuals,
)
from ramanasdp.registry import all_ids, get
from ramanasdp.sdpa import standard_form_to_sdpa_text, varmap_sidecar_text, write_sdpa
from ramanasdp.model import smat, svec, svec_index, svec_order
from ramanasdp.subsolver import maximize_lambda_min
from ramanasdp.verify import SYSTEMS, LadderRung, RamanaCertificate, dual_ladder_length, pad_ladder

from helpers import (
    dense_rows,
    inst_gap_rr,
    inst_infeasible,
    inst_unattained,
    random_degenerate_instance,
    random_orthonormal,
    reference_residuals,
    table_system,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from gen import planted  # noqa: E402


def _dram_cert_order3():
    z3 = SymMat.zero(3)
    return RamanaCertificate(
        system="dram",
        y=np.zeros(3),
        ladder=(
            LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0]), v=z3),
            LadderRung(
                y=np.array([0.0, 1, 0]),
                u=SymMat.diag([1, 1, 0]),
                v=SymMat([[-1, 0, 1], [0, 0, 0], [1, 0, 0]]),
            ),
        ),
    )


class TestDram:
    def test_size_formula_hand_count(self):
        # n = 3, m = 3: two coupling blocks of order 6, three PSD blocks of
        # order 3, and m·n = 9 free scalars.
        sdp = build_dram(inst_unattained())
        orders = sorted(b.order for b in sdp.blocks)
        assert orders == [3, 3, 3, 6, 6]
        assert sdp.n_free == 9
        assert dram_size(3, 3) == (len(sdp.blocks), sdp.n_free)

    def test_size_formula_grid(self):
        for n in range(1, 11):
            for m in range(1, 11):
                inst = SdpInstance(
                    a=tuple(SymMat.zero(n) for _ in range(m)),
                    b=np.zeros(m),
                    c=SymMat.zero(n),
                )
                sdp = build_dram(inst)
                rungs = min(n - 1, m)
                assert dram_size(n, m) == (2 * rungs + 1, m * (rungs + 1))
                assert dram_size(n, m) == (len(sdp.blocks), sdp.n_free)
                assert sum(1 for b in sdp.blocks if b.order == 2 * n) == rungs
                assert sum(1 for b in sdp.blocks if b.order == n) == rungs + 1

    def test_reference_point_embeds_feasibly(self):
        inst = inst_unattained()
        sdp = build_dram(inst)
        cert = _dram_cert_order3()
        assert verify_dram(inst, cert).ok
        asg = embed_certificate(sdp, inst, cert)
        assert max_violation(sdp, asg) <= 1e-8
        assert min_block_eigenvalue(sdp, asg) >= -1e-8
        assert objective_value(sdp, asg) == pytest.approx(0.0, abs=1e-10)

    def test_order1_degenerates_to_classical_dual(self):
        inst = SdpInstance.from_arrays([[[1.0]]], [1.0], [[2.0]])
        sdp = build_dram(inst)
        assert [b.order for b in sdp.blocks] == [1]
        assert sdp.n_free == 1
        # y = 1 gives slack 1 >= 0: one constraint P = C - y*A.
        asg = Assignment(blocks={"P": np.array([[1.0]])}, free=np.array([1.0]))
        assert max_violation(sdp, asg) <= 1e-12
        assert objective_value(sdp, asg) == pytest.approx(1.0)

    def test_order1_head_outside_psd_refused(self):
        # Order 1 splits its head like any other order: y = 3 gives the
        # slack 2 - 3 = -1, outside S₊ + tan(U_0) = S₊.
        inst = SdpInstance.from_arrays([[[1.0]]], [1.0], [[2.0]])
        cert = RamanaCertificate(system="dram", y=np.array([3.0]), ladder=())
        with pytest.raises(ValueError):
            embed_certificate(build_dram(inst), inst, cert)


class TestSharedCoefficients:
    """Coefficient matrices are made once per build, immutable, and shared."""

    N = 6

    @pytest.fixture(scope="class")
    def system(self):
        inst, y0, _ = random_degenerate_instance(np.random.default_rng(6), self.N, 4, (2, 1, 1))
        return inst, y0, build_dram(inst)

    def test_every_array_is_read_only(self, system):
        sdp = system[2]
        for field in _TABLES:
            assert not getattr(sdp, field).flags.writeable, field
        names = _names(sdp)
        ties = [r for r, name in enumerate(names) if name.startswith("tie")]
        (f,) = set(sdp.row_free[ties].tolist())  # one empty free row for every tie
        assert sdp.free_ptr[f] == sdp.free_ptr[f + 1]
        view = sdp.constraints
        with pytest.raises(ValueError, match="read-only"):
            view[names.index("rung1_decomp[0,0]")].free[0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            view[ties[0]].mats["U1"][0] += 1.0

    def test_rungs_share_their_matrices(self, system):
        sdp = system[2]
        at = {name: r for r, name in enumerate(_names(sdp))}

        def ids(name):
            lo, hi = sdp.row_ptr[at[name] : at[name] + 2]
            blocks = (sdp.blocks[b].name for b in sdp.entry_block[lo:hi])
            return dict(zip(blocks, sdp.entry_coeff[lo:hi].tolist()))

        for p, q in [(0, 0), (1, 4), (5, 5)]:
            rung1, rung2, rung3 = (ids(f"rung{i}_decomp[{p},{q}]") for i in (1, 2, 3))
            assert rung1["U1"] == rung2["U2"] == rung3["U3"]
            assert rung2["T2"] == rung3["T3"]
            assert ids(f"tie2[{p},{q}]")["T2"] == ids(f"tie3[{p},{q}]")["T3"]

    def test_distinct_matrices_grow_as_n_squared(self, system):
        sdp, n = system[2], self.N
        # Per svec entry: the rung and head matrices, their coupling
        # matrices, and the two corner-tie matrices.
        assert sdp.coeff_order.size <= 6 * n * (n + 1) // 2
        assert sdp.entry_coeff.size >= 3 * (n - 2) * n * (n + 1) // 2

    def test_embedded_certificate_residuals_unchanged(self, system):
        inst, y0, sdp = system
        cert = lift_from_strong(inst, y0, build_rr_form(inst))
        asg = embed_certificate(sdp, inst, cert)
        # The same system with its own copy of every coefficient, as each
        # constraint held before the builders shared them.
        unshared = _unshared(sdp)
        assert unshared.coeff_order.size == sdp.entry_coeff.size > 2 * sdp.coeff_order.size
        # One free row per row, and the objective's.
        assert unshared.free_ptr.size - 1 == sdp.rhs.size + 1
        assert np.array_equal(residuals(sdp, asg), residuals(unshared, asg))
        assert max_violation(sdp, asg) == max_violation(unshared, asg) <= 1e-10
        assert min_block_eigenvalue(sdp, asg) >= -1e-10


def _names(sdp):
    """The row names of sdp, in row order."""
    return [pre + label for pre, labels in sdp.sections for label in labels]


def _unshared(sdp):
    """sdp with a table entry of its own for each use of a matrix or free
    row: the entries each use reads, duplicated."""

    def copies(ptr, ids, *cols):
        lo, hi = ptr[ids], ptr[ids + 1]
        at = np.concatenate([np.zeros(0, int)] + [np.arange(a, z) for a, z in zip(lo, hi)])
        return (np.concatenate([[0], np.cumsum(hi - lo)]),) + tuple(c[at] for c in cols)

    ks = sdp.entry_coeff
    frees = np.append(sdp.row_free, sdp.objective_row)
    coeff_ptr, coeff_i, coeff_j, coeff_v = copies(
        sdp.coeff_ptr, ks, sdp.coeff_i, sdp.coeff_j, sdp.coeff_v
    )
    free_ptr, free_j, free_v = copies(sdp.free_ptr, frees, sdp.free_j, sdp.free_v)
    entries, rows = sdp.entry_coeff.size, sdp.rhs.size
    return dataclasses.replace(
        sdp, coeff_ptr=coeff_ptr, coeff_order=sdp.coeff_order[ks], coeff_i=coeff_i,
        coeff_j=coeff_j, coeff_v=coeff_v, free_ptr=free_ptr, free_j=free_j, free_v=free_v,
        entry_coeff=np.arange(entries), row_free=np.arange(rows), objective_row=rows,
    )


def _e_sym(n, p, q):
    """The dense unit matrix with <E, Y> = Y[p, q] that the dense builders
    stored."""
    e = np.zeros((n, n))
    if p == q:
        e[p, p] = 1.0
    else:
        e[p, q] = e[q, p] = 0.5
    return e


def _coupling(k):
    """[[0, K], [Kᵀ, 0]], as the dense builders made it."""
    n = k.shape[0]
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = k
    c[n:, :n] = k.T
    return c


def _utri_coeffs(a):
    """c with c·x_utri = <A, X> for the upper-triangle layout of X."""
    n = a.shape[0]
    i, j = svec_index(n)
    c = a[i, j]
    c[n:] += a[j[n:], i[n:]]
    return c


def _padded(vals, off, size):
    v = np.zeros(size)
    v[off : off + len(vals)] = vals
    return v


def _dense_ladder(inst, system):
    """{row name: (dense mats, dense free row)} and the dense objective free
    row of dram, altram or pram, by the formulas of the dense builders."""
    n, m = inst.n, inst.m
    a = [x.a for x in inst.a]
    pairs = svec_order(n)
    count = n - 1 if system == "pram" else dual_ladder_length(n, m)
    n_free = n * (n + 1) // 2 if system == "pram" else m * (count + 1)
    coupling = {i: "Thead" if i == count + 1 else f"T{i}" for i in range(2, count + 2)}

    def plus_tangent(u, t, k, sign):
        return {u: sign * k} if t is None else {u: sign * k, t: sign * _coupling(k)}

    rows = {}
    if system == "pram":
        for t in range(m):
            rows[f"primal_eq{t + 1}"] = ({}, _padded(_utri_coeffs(a[t]), 0, n_free))
        ks = [(f"a{t + 1}", a[t]) for t in range(m)] + [("c", inst.c.a)]
        for i in range(1, count + 1):
            for suffix, k in ks:
                rows[f"rung{i}_{suffix}"] = (
                    plus_tangent(f"U{i}", coupling.get(i), k, 1.0),
                    np.zeros(n_free),
                )
        head_sign, head_free = -1.0, np.eye(n_free)
        objective = _utri_coeffs(inst.c.a)
    else:
        at = [[x[p, q] for x in a] for p, q in pairs]
        for i in range(1, count + 1):
            for (p, q), col in zip(pairs, at):
                rows[f"rung{i}_decomp[{p},{q}]"] = (
                    plus_tangent(f"U{i}", coupling.get(i), _e_sym(n, p, q), -1.0),
                    _padded(col, m * i, n_free),
                )
            rows[f"rung{i}_rhs"] = ({}, _padded(inst.b, m * i, n_free))
        head_sign = 1.0 if system == "dram" else -1.0
        head_free = [_padded(col, 0, n_free) for col in at]
        b_row = _padded(inst.b, 0, n_free)
        objective = b_row if system == "dram" else np.zeros(n_free)
        if system == "altram":
            rows["head_rhs"] = ({}, b_row)
    for i, t in coupling.items():
        for p, q in pairs:
            rows[f"tie{t[1:]}[{p},{q}]"] = (
                {t: _e_sym(2 * n, p, q), f"U{i - 1}": -_e_sym(n, p, q)},
                np.zeros(n_free),
            )
    for idx, (p, q) in enumerate(pairs):
        rows[f"head_decomp[{p},{q}]"] = (
            plus_tangent("P", coupling.get(count + 1), _e_sym(n, p, q), head_sign),
            head_free[idx],
        )
    return rows, objective


def _dense_strong(inst, system, spec):
    """The same for dstrong and pstrong."""
    n, m, q = inst.n, inst.m, spec.q
    nn = n * (n + 1) // 2
    dual = system == "dstrong"
    split = n - spec.r if dual else spec.r
    rows = {}
    for idx, (p, qq) in enumerate(svec_order(n)):
        c = (1.0 if dual else -1.0) * np.outer(q[p], q[qq]) + 0.0
        k11, k22 = c[:split, :split], c[split:, split:]
        k12 = (c[:split, split:] + c[split:, :split].T).reshape(-1)
        if dual:
            free = np.concatenate([[x.a[p, qq] for x in inst.a], _utri_coeffs(k11), k12])
            mats = {"V22": (k22 + k22.T) / 2.0} if np.any(k22) else {}
            rows[f"slack_eq[{p},{qq}]"] = (mats, free)
        else:
            free = np.concatenate([np.eye(nn)[idx], _utri_coeffs(k22), k12])
            mats = {"V11": (k11 + k11.T) / 2.0} if np.any(k11) else {}
            rows[f"shape_eq[{p},{qq}]"] = (mats, free)
    n_free = free.size
    if dual:
        return rows, _padded(inst.b, 0, n_free)
    for t, x in enumerate(inst.a):
        rows[f"primal_eq{t + 1}"] = ({}, _padded(_utri_coeffs(x.a), 0, n_free))
    return rows, _padded(_utri_coeffs(inst.c.a), 0, n_free)


_SPARSE_CASES = [f"registry-{i}" for i in all_ids()] + ["random-n6-m4", "random-n9-m9"]
_SPARSE_BUILDERS = ("dram", "altram", "pram", "dstrong", "pstrong")


def _sparse_case(case, builder):
    """(sparse system, dense rows, dense objective free row)."""
    if case.startswith("registry-"):
        inst = get(case[len("registry-"):]).instance
    else:
        n, m = (int(t[1:]) for t in case.split("-")[1:])
        inst = random_degenerate_instance(np.random.default_rng(n), n, m, (2, 1, 1))[0]
    spec = StrongDualSpec(q=random_orthonormal(np.random.default_rng(1), inst.n), r=inst.n // 2)
    if builder in ("dram", "altram", "pram"):
        sdp = {"dram": build_dram, "altram": build_alt_ram, "pram": build_pram}[builder](inst)
        want = _dense_ladder(inst, builder)
    else:
        sdp = (build_dstrong if builder == "dstrong" else build_pstrong)(inst, spec)
        want = _dense_strong(inst, builder, spec)
    return (sdp,) + want


@pytest.mark.parametrize("builder", _SPARSE_BUILDERS)
def test_every_builder_emits_a_system_of_verify(builder):
    # verify owns the system tags: each builder's system is one of them.
    assert sorted(_SPARSE_BUILDERS) == sorted(SYSTEMS)
    assert _sparse_case("registry-example-2.5-rr", builder)[0].system == builder


class TestSparseForm:
    """Every emitted coefficient is held as its nonzeros and reads as the
    dense matrix or row the dense builders stored."""

    @pytest.mark.parametrize("builder", _SPARSE_BUILDERS)
    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_coefficients_equal_the_dense_construction(self, case, builder):
        sdp, rows, objective_free = _sparse_case(case, builder)
        got, objective = dense_rows(sdp)
        assert sorted(got) == sorted(rows)
        for name, row in got.items():
            mats, free = rows[name]
            assert row.mats.keys() == mats.keys(), name
            for b, k in mats.items():
                assert np.array_equal(row.mats[b], k), (name, b)
            assert np.array_equal(row.free, free), name
        assert np.array_equal(objective.free, objective_free)

    @pytest.mark.parametrize("builder", _SPARSE_BUILDERS)
    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_values_equal_the_dense_products(self, case, builder):
        sdp, rows, objective_free = _sparse_case(case, builder)
        rng = np.random.default_rng(5)
        blocks = {}
        for b in sdp.blocks:
            y = rng.standard_normal((b.order, b.order))
            blocks[b.name] = y + y.T
        asg = Assignment(blocks=blocks, free=rng.standard_normal(sdp.n_free))

        def check(value, mats, free):
            want = free @ asg.free + sum(np.sum(k * blocks[b]) for b, k in mats.items())
            scale = np.linalg.norm(free) * np.linalg.norm(asg.free)
            scale += sum(np.linalg.norm(k) * np.linalg.norm(blocks[b]) for b, k in mats.items())
            assert abs(value - want) <= 1e-14 * (1.0 + scale)

        for (name, row), res in zip(dense_rows(sdp)[0].items(), residuals(sdp, asg)):
            check(res + row.rhs, *rows[name])
        check(objective_value(sdp, asg), {}, objective_free)

    def test_size_and_nonzero_count_read_the_stored_entries(self):
        # What the benchmark's tracer reads of each row of the view: here
        # the coupling matrix of E_13 of order 4 and a free row.
        k, v = _coupling(_e_sym(4, 1, 3)), [0.0, 3.0, -1.0]
        sdp = table_system([PsdBlock("T", 8)], 3, [k], [v], [("c", [(0, 0)], 0, 0, 0.0)], 0)
        (row,) = sdp.constraints
        assert (row.mats["T"].size, int((row.mats["T"] != 0).sum())) == (2, 2)
        assert (row.free.size, int((row.free != 0).sum())) == (2, 2)

    def test_row_that_does_not_fit_its_system_is_refused(self):
        # A free row longer than n_free would be written into the negated
        # half of the free block; a matrix of another order than its block
        # would be written outside it.  The objective is a free row alone;
        # each case gives (mats, free row 0, the row's blocks, its free row
        # id, the objective's).
        blocks = (PsdBlock("A", 2),)
        long_free = [0.0, 0.0, 0.0, 1.0]
        cases = {
            "constraint c does not fit the system: free length 4 for n_free 2": (
                [np.eye(2)], long_free, [(0, 0)], 0, 1
            ),
            "constraint c does not fit the system: free length 2 for n_free 2, matrix orders "
            "{'A': 3} for blocks {'A': 2}": ([np.eye(3)], [0.0, 1.0], [(0, 0)], 0, 1),
            "an id outside its table": ([np.eye(2)], [0.0, 1.0], [(1, 0)], 0, 1),
            "the objective does not fit the system: free length 4 for n_free 2, matrix orders "
            "{} for blocks {}": ([np.eye(2)], long_free, [(0, 0)], 1, 0),
        }
        for msg, (mats, free, cols, row_free, objective) in cases.items():
            rows = [("c", cols, row_free, 0, 0.0)]
            with pytest.raises(ValueError, match=re.escape(msg)):
                table_system(blocks, 2, mats, [free, []], rows, objective)
        # The objective's free row id past the free table.
        with pytest.raises(ValueError, match="an id outside its table"):
            table_system(blocks, 2, [np.eye(2)], [[0.0, 1.0], []], [], 2)

    def test_inner_product_reads_both_triangles(self):
        # <K, Y> = Σ K_ij Y_ij over every entry, as the dense product was,
        # also for a Y that is not symmetric.
        a = np.array([[1.0, -2.0, 0.0], [-2.0, 0.0, 0.5], [0.0, 0.5, 3.0]])
        y = np.arange(9.0).reshape(3, 3) ** 2
        sdp = table_system(
            (PsdBlock("A", 3), PsdBlock("T", 6)), 0, [a, _coupling(a)], [[]],
            [("k", [(0, 0)], 0, 0, 0.0), ("t", [(1, 1)], 0, 0, 0.0)], 0,
        )
        asg = Assignment(blocks={"A": y, "T": _coupling(y)}, free=np.zeros(0))
        want = [np.sum(a * y), np.sum(_coupling(a) * _coupling(y))]
        assert residuals(sdp, asg).tolist() == want

    def test_build_dram_holds_little_memory(self):
        # The emit benchmark's peak op builds dram at n = 18, m = 5: 7.9 MB
        # of dense coefficients, 0.99 MB held as one object per row, 0.27
        # MB as row tables of coefficient objects, 0.13 MB as one
        # coordinate table.  Its view counts the stored entries it did as
        # row tables of objects.
        inst = random_degenerate_instance(np.random.default_rng(0), 18, 5, (2, 1, 1))[0]
        sdp, held = _held(build_dram, inst)
        view = sdp.constraints
        stored = sum(con.free.size + sum(k.size for k in con.mats.values()) for con in view)
        nonzeros = sum(
            int((con.free != 0).sum()) + sum(int((k != 0).sum()) for k in con.mats.values())
            for con in view
        )
        assert (len(view), stored, nonzeros) == (1886, 9511, 9511)
        assert held <= 0.15e6

    def test_build_and_write_dram_peak_little_memory(self, tmp_path):
        # The same system built and written after a first build and write,
        # which fill the caches: its peak was 0.74 MB when the system held
        # row tables of coefficient objects, set by the build.
        inst = random_degenerate_instance(np.random.default_rng(0), 18, 5, (2, 1, 1))[0]
        path = str(tmp_path / "dram.dat-s")
        write_sdpa(build_dram(inst), path)
        tracemalloc.start()
        try:
            write_sdpa(build_dram(inst), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6e6

    def test_exact_dual_at_n_30_holds_at_most_4_mb(self):
        # 13.5 MB when each row was its own objects, 2.0 MB as row tables.
        inst = random_degenerate_instance(np.random.default_rng(0), 30, 30, (2, 1, 1))[0]
        sdp, held = _held(build_dram, inst)
        assert sdp.rhs.size == 29 * 466 + 29 * 465 + 465
        assert held <= 4e6


def _registry_embeddings(eid):
    """(certificate name, system, assignment) of each registry certificate
    of entry eid, embedded in its system."""
    entry = get(eid)
    inst = entry.instance
    build = {"dram": build_dram, "altram": build_alt_ram, "pram": build_pram}
    for rc in entry.certificates:
        if rc.system in build:
            sdp = build[rc.system](inst)
            yield rc.name, sdp, embed_certificate(sdp, inst, rc.cert)
        else:
            sdp = (build_dstrong if rc.system == "dstrong" else build_pstrong)(inst, rc.spec)
            yield rc.name, sdp, embed_strong_point(sdp, inst, rc.spec, rc.point)


@pytest.mark.parametrize("eid", all_ids())
def test_residuals_agree_with_the_reference_loop_on_the_registry(eid):
    # The gather and bincount over the tables against one product per
    # stored entry, at every registry certificate's embedding.
    for name, sdp, asg in _registry_embeddings(eid):
        want, scale = reference_residuals(sdp, asg)
        got = residuals(sdp, asg)
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (eid, name)
        assert max_violation(sdp, asg) == np.max(np.abs(got), initial=0.0)


def _held(build, inst):
    """The system build(inst) and the memory it holds, from a second build
    alone."""
    build(inst)
    tracemalloc.start()
    try:
        sdp = build(inst)
        return sdp, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


_TABLES = (
    "coeff_ptr", "coeff_order", "coeff_i", "coeff_j", "coeff_v", "free_ptr", "free_j", "free_v",
    "row_ptr", "entry_block", "entry_coeff", "row_free", "row_offset", "rhs",
)


class TestRowTables:
    """The constraints view reads the tables: row by row, as slices of
    coeff_v and free_v, with the sizes and nonzeros of the dense rows."""

    @pytest.mark.parametrize("builder", _SPARSE_BUILDERS)
    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_view_reads_the_tables(self, case, builder):
        sdp, rows = _sparse_case(case, builder)[:2]
        view = sdp.constraints
        assert [con.name for con in view] == _names(sdp) == list(dense_rows(sdp)[0])
        assert [con.rhs for con in view] == sdp.rhs.tolist()
        # Every matrix is used by a row, every free row by a row or by the
        # objective.
        assert np.array_equal(np.unique(sdp.entry_coeff), np.arange(sdp.coeff_order.size))
        frees = np.append(sdp.row_free, sdp.objective_row)
        assert np.array_equal(np.unique(frees), np.arange(sdp.free_ptr.size - 1))
        # The view copies nothing; an empty slice shares no memory.
        for con in view:
            for x, table in [(con.free, sdp.free_v)] + [(k, sdp.coeff_v) for k in con.mats.values()]:
                assert x.size == 0 or np.shares_memory(x, table), con.name
        # What the benchmark's tracer reads of the view: each slice's size
        # and its nonzeros, both the nonzeros of the dense rows.
        dense = sum(
            np.count_nonzero(free) + sum(np.count_nonzero(np.triu(k)) for k in ks.values())
            for ks, free in rows.values()
        )
        for count in (lambda x: x.size, lambda x: int((x != 0).sum())):
            assert sum(count(c.free) + sum(map(count, c.mats.values())) for c in view) == dense

    def test_tables_are_read_only_and_checked(self):
        inst = random_degenerate_instance(np.random.default_rng(3), 5, 3, (2, 1, 1))[0]
        sdp = build_dram(inst)  # blocks U1, U2, U3, T2, T3, Thead, P; n_free 12
        for field in _TABLES:
            with pytest.raises(ValueError, match="read-only"):
                getattr(sdp, field)[0] = 1
        ids = sdp.entry_coeff.copy()
        for bad in (-1, sdp.coeff_order.size):
            ids[0] = bad
            with pytest.raises(ValueError, match="outside its table"):
                dataclasses.replace(sdp, entry_coeff=ids)
        with pytest.raises(ValueError, match="unequal lengths"):
            dataclasses.replace(sdp, rhs=sdp.rhs[1:])
        swapped = sdp.entry_block.copy()
        lo = sdp.row_ptr[np.flatnonzero(np.diff(sdp.row_ptr) == 2)[0]]
        swapped[lo : lo + 2] = swapped[lo : lo + 2][::-1]
        with pytest.raises(ValueError, match="block order"):
            dataclasses.replace(sdp, entry_block=swapped)
        # The first row's order-5 matrix moved to T2, of order 10.
        moved = sdp.entry_block.copy()
        moved[0] = 3
        msg = (
            "constraint rung1_decomp[0,0] does not fit the system: free length 12 for "
            "n_free 12, matrix orders {'T2': 5} for blocks {'T2': 10}"
        )
        with pytest.raises(ValueError, match=re.escape(msg)):
            dataclasses.replace(sdp, entry_block=moved)
        # An objective whose one entry, at 12, is past n_free.
        msg = "the objective does not fit the system: free length 13 for n_free 12"
        with pytest.raises(ValueError, match=re.escape(msg)):
            dataclasses.replace(
                sdp, free_ptr=np.append(sdp.free_ptr, sdp.free_ptr[-1] + 1),
                free_j=np.append(sdp.free_j, 12), free_v=np.append(sdp.free_v, 1.0),
                objective_row=sdp.free_ptr.size - 1,
            )
        # The first row's free row, entries at 0..2, placed at 11 of 12.
        msg = "constraint rung1_decomp[0,0] does not fit the system: free length 14 for n_free 12"
        offsets = sdp.row_offset.copy()
        offsets[0] = 11
        with pytest.raises(ValueError, match=re.escape(msg)):
            dataclasses.replace(sdp, row_offset=offsets)
        # A table entry below the diagonal, one past its order, two out of
        # row-major order, two at one place, a zero value, nan or inf in a
        # matrix, a negative, a falling and a repeated free index, inf in a
        # free row and nan in rhs.
        lo = sdp.coeff_ptr[np.flatnonzero(np.diff(sdp.coeff_ptr) == 2)[0]]
        pair = slice(lo, lo + 2)
        at = sdp.free_ptr[np.flatnonzero(np.diff(sdp.free_ptr) >= 2)[0]]
        two = slice(at, at + 2)
        cases = [
            {"coeff_i": (lo, sdp.coeff_j[lo] + 1)}, {"coeff_j": (0, sdp.coeff_order[0])},
            {"coeff_i": (pair, sdp.coeff_i[pair][::-1]), "coeff_j": (pair, sdp.coeff_j[pair][::-1])},
            {"coeff_i": (pair, sdp.coeff_i[lo]), "coeff_j": (pair, sdp.coeff_j[lo])},
            {"coeff_v": (0, 0.0)}, {"free_v": (0, -0.0)}, {"coeff_v": (0, np.nan)},
            {"coeff_v": (0, np.inf)}, {"free_j": (0, -1)}, {"free_j": (two, sdp.free_j[two][::-1])},
            {"free_j": (two, sdp.free_j[at])}, {"free_v": (0, -np.inf)}, {"rhs": (0, np.nan)},
        ]
        for case in cases:
            fields = {field: getattr(sdp, field).copy() for field in case}
            for field, (at, value) in case.items():
                fields[field][at] = value
            with pytest.raises(ValueError, match="a table holds an entry outside the upper triangle"):
                dataclasses.replace(sdp, **fields)


class TestAltRam:
    def test_infeasible_reference_point(self):
        inst = inst_infeasible()
        sdp = build_alt_ram(inst)
        cert = RamanaCertificate(
            system="altram",
            y=np.array([0.0, 1.0]),
            ladder=(
                LadderRung(y=np.zeros(2), u=SymMat.zero(3), v=SymMat.zero(3)),
                LadderRung(y=np.array([1.0, 0]), u=SymMat.diag([1, 0, 0]), v=SymMat.zero(3)),
            ),
        )
        assert verify_alt_ram(inst, cert).ok
        asg = embed_certificate(sdp, inst, cert)
        assert max_violation(sdp, asg) <= 1e-8
        assert min_block_eigenvalue(sdp, asg) >= -1e-8

    def test_feasible_instance_alternative_unreachable(self):
        # For a feasible instance the alternative system must be infeasible:
        # candidate certificates fail verification.
        from ramanasdp import build_rr_form

        inst = inst_unattained()
        assert build_rr_form(inst).status == "feasible"
        rng = np.random.default_rng(67)
        for _ in range(10):
            cert = RamanaCertificate(
                system="altram", y=rng.standard_normal(3), ladder=()
            )
            assert not verify_alt_ram(inst, cert).ok

    def test_order1(self):
        inst = SdpInstance.from_arrays([[[1.0]]], [-1.0], [[0.0]])
        sdp = build_alt_ram(inst)
        cert = RamanaCertificate(system="altram", y=np.array([1.0]), ladder=())
        assert verify_alt_ram(inst, cert).ok
        asg = embed_certificate(sdp, inst, cert)
        assert max_violation(sdp, asg) <= 1e-12


class TestPram:
    def test_appendix_point(self):
        inst = inst_gap_rr()
        sdp = build_pram(inst)
        x = np.zeros((4, 4))
        x[1, 3] = x[3, 1] = 0.5
        cert = RamanaCertificate(
            system="pram",
            x=SymMat(x),
            ladder=(
                LadderRung(y=None, u=SymMat.zero(4), v=SymMat.zero(4)),
                LadderRung(y=None, u=SymMat.zero(4), v=SymMat.zero(4)),
                LadderRung(y=None, u=SymMat.from_outer([0, 0, 0, 1.0]), v=SymMat.zero(4)),
            ),
        )
        asg = embed_certificate(sdp, inst, cert)
        assert max_violation(sdp, asg) <= 1e-8
        assert min_block_eigenvalue(sdp, asg) >= -1e-8
        assert objective_value(sdp, asg) == pytest.approx(0.0, abs=1e-10)

    def test_order1_degenerates_to_primal(self):
        inst = SdpInstance.from_arrays([[[1.0]]], [2.0], [[3.0]])
        sdp = build_pram(inst)
        asg = Assignment(blocks={"P": np.array([[2.0]])}, free=np.array([2.0]))
        assert max_violation(sdp, asg) <= 1e-12
        assert objective_value(sdp, asg) == pytest.approx(6.0)

    def test_dependent_constraints_rejected(self):
        a = SymMat.diag([1, 0])
        inst = SdpInstance(a=(a, SymMat(2 * a.a)), b=np.zeros(2), c=SymMat.identity(2))
        with pytest.raises(DependentConstraintsError):
            build_pram(inst)

    def test_ladder_constraints_match_span_characterization(self):
        # 𝒜Y = 0 and <C, Y> = 0 iff Y = Σ λ_j D_j with Σ λ_j <D_j, C> = 0.
        inst = inst_gap_rr()
        red = classical_dual_instance(inst)
        rng = np.random.default_rng(71)
        d = red.b
        for _ in range(20):
            lam = rng.standard_normal(red.m)
            if np.linalg.norm(d) > 0:
                lam -= (lam @ d) / (d @ d) * d  # orthogonality to the values
            y = SymMat(sum(l * dj.a for l, dj in zip(lam, red.a)))
            assert np.max(np.abs(apply_a(inst, y))) <= 1e-9
            assert abs(inst.c.inner(y)) <= 1e-9
            # Perturb off the span: the characterization must fail.
            y_bad = y + 0.5 * inst.a[0]
            assert np.max(np.abs(apply_a(inst, y_bad))) > 1e-6


class TestStrong:
    def test_dstrong_origin_feasible(self):
        inst = inst_unattained()
        spec = StrongDualSpec(q=np.eye(3), r=1)
        sdp = build_dstrong(inst, spec)
        asg = embed_strong_point(sdp, inst, spec, np.zeros(3))
        assert max_violation(sdp, asg) <= 1e-12
        assert min_block_eigenvalue(sdp, asg) >= -1e-12
        assert objective_value(sdp, asg) == pytest.approx(0.0)

    def test_dstrong_gap_value_one(self):
        inst = inst_gap_rr()
        spec = StrongDualSpec(q=np.eye(4), r=2)
        sdp = build_dstrong(inst, spec)
        y = np.array([0.0, 0.0, 1.0])
        asg = embed_strong_point(sdp, inst, spec, y)
        assert max_violation(sdp, asg) <= 1e-12
        assert min_block_eigenvalue(sdp, asg) >= -1e-12
        assert objective_value(sdp, asg) == pytest.approx(1.0)

    def test_dstrong_full_rank_is_classical_dual(self):
        inst = inst_unattained()
        spec = StrongDualSpec(q=np.eye(3), r=3)
        sdp = build_dstrong(inst, spec)
        # y = 0 embeds with V = C, whose PSD-required block is all of it;
        # C is indefinite so the assignment violates block positivity,
        # matching the classical dual's infeasibility at strict tolerance.
        asg = embed_strong_point(sdp, inst, spec, np.zeros(3))
        assert max_violation(sdp, asg) <= 1e-12
        assert min_block_eigenvalue(sdp, asg) < -1e-3
        out = verify_strong(inst, spec, np.zeros(3), "dual")
        assert not out.ok

    def test_pstrong_appendix_point(self):
        inst = inst_gap_rr()
        spec = pstrong_spec_from_slack(inst.c)
        assert spec.r == 3 and np.allclose(spec.q, np.eye(4))
        sdp = build_pstrong(inst, spec)
        x = np.zeros((4, 4))
        x[1, 3] = x[3, 1] = 0.5
        asg = embed_strong_point(sdp, inst, spec, SymMat(x))
        assert max_violation(sdp, asg) <= 1e-12
        assert min_block_eigenvalue(sdp, asg) >= -1e-12
        assert objective_value(sdp, asg) == pytest.approx(0.0)

    def test_pstrong_full_rank_is_primal(self):
        inst = inst_gap_rr()
        spec = StrongDualSpec(q=np.eye(4), r=4)
        out = verify_strong(inst, spec, SymMat.diag([0, 0, 1, 1]), "primal")
        assert out.ok and out.value == pytest.approx(1.0)
        x_bad = np.zeros((4, 4))
        x_bad[1, 3] = x_bad[3, 1] = 0.5
        assert not verify_strong(inst, spec, SymMat(x_bad), "primal").ok

    def test_pstrong_reembedded_reduced_solutions(self):
        # Random instances feasible on a planted face: interior points of
        # the face re-embed into feasible strong-primal assignments.
        from ramanasdp import build_rr_form

        from helpers import random_feasible_instance, random_psd, sample_feasible

        rng = np.random.default_rng(73)
        for _ in range(3):
            inst, _ = random_feasible_instance(rng, 4, 2, strictly=False)
            inst = SdpInstance(a=inst.a, b=inst.b, c=random_psd(rng, 4))
            rr = build_rr_form(inst)
            if rr.status != "feasible":
                continue
            rr_red = build_rr_form(classical_dual_instance(inst))
            if rr_red.status != "feasible":
                continue
            slack = SymMat(rr_red.ref.q @ rr_red.maxrank_x.a @ rr_red.ref.q.T)
            spec = pstrong_spec_from_slack(slack)
            for x in sample_feasible(inst, rr, count=3, seed=5):
                out = verify_strong(inst, spec, x, "primal", eps=1e-6)
                assert out.ok


class TestRed:
    """The classical dual's equality form over its slack Z, as the
    instance classical_dual_instance makes."""

    def test_objective_matrix_slack_satisfies_equalities(self):
        inst = inst_unattained()
        red = classical_dual_instance(inst)
        assert red.m == 3
        assert np.max(np.abs(apply_a(red, inst.c) - red.b)) <= 1e-10

    def test_full_row_rank_no_equalities(self):
        inst = SdpInstance.from_arrays([[[1.0]]], [1.0], [[1.0]])
        red = classical_dual_instance(inst)
        assert red.m == 0 and red.b.size == 0

    def test_value_shift_constant(self):
        # <X0, Z> + <y, b> = <X0, C> for every dual point y, Z = C - 𝒜*y.
        from ramanasdp import dual_slack

        inst = inst_gap_rr()
        red = classical_dual_instance(inst)
        const = red.c.inner(inst.c)
        rng = np.random.default_rng(79)
        for _ in range(10):
            y = np.array([rng.uniform(-3, 1), 0.0, 0.0])  # dual-feasible family
            z = dual_slack(inst, y)
            assert np.max(np.abs(apply_a(red, z) - red.b)) <= 1e-8
            lhs = red.c.inner(z) + float(y @ inst.b)
            assert lhs == pytest.approx(const, abs=1e-8)


class TestVarMapRoundTrip:
    def test_extraction_reproduces_certificate(self):
        # Converse of emission soundness: reading the embedded assignment
        # back through the variable map reproduces a verifying certificate.
        from ramanasdp.builders import extract

        inst = inst_unattained()
        sdp = build_dram(inst)
        cert = _dram_cert_order3()
        asg = embed_certificate(sdp, inst, cert)
        y = extract(sdp, asg, "y")
        rungs = []
        for i in range(1, 3):
            yi = extract(sdp, asg, f"y{i}")
            u = SymMat(extract(sdp, asg, f"U{i}"))
            v = SymMat(extract(sdp, asg, "V2")) if i == 2 else SymMat.zero(3)
            rungs.append(LadderRung(y=yi, u=u, v=v))
        rebuilt = RamanaCertificate(system="dram", y=y, ladder=tuple(rungs))
        out = verify_dram(inst, rebuilt)
        assert out.ok and out.value == pytest.approx(0.0)

    def test_witness_slots_resolve(self):
        from ramanasdp.builders import extract

        inst = inst_unattained()
        sdp = build_dram(inst)
        asg = embed_certificate(sdp, inst, _dram_cert_order3())
        w = extract(sdp, asg, "W2")
        r = extract(sdp, asg, "R2")
        v = extract(sdp, asg, "V2")
        assert np.allclose(w + w.T, v)
        assert np.linalg.eigvalsh(r)[0] > 0

    def test_free_sym_slot_resolves(self):
        # pstrong holds X in the free vector's upper-triangle layout.
        from ramanasdp.builders import extract

        inst = inst_gap_rr()
        spec = pstrong_spec_from_slack(inst.c)
        sdp = build_pstrong(inst, spec)
        x = np.zeros((4, 4))
        x[1, 3] = x[3, 1] = 0.5
        assert np.array_equal(extract(sdp, embed_strong_point(sdp, inst, spec, SymMat(x)), "X"), x)


class TestBuilderRefusals:
    """One row per refusal of a builder-side entry point."""

    def test_extract_refuses_an_unknown_slot_kind(self):
        from ramanasdp.builders import VarSlot, extract

        inst = inst_unattained()
        sdp = build_dram(inst)
        sdp.var_map["Z"] = VarSlot(kind="bogus")
        with pytest.raises(ValueError, match="unknown slot kind 'bogus'"):
            extract(sdp, embed_certificate(sdp, inst, _dram_cert_order3()), "Z")

    def test_pstrong_spec_refuses_a_slack_that_is_not_psd(self):
        with pytest.raises(ValueError, match="max-rank slack must be PSD"):
            pstrong_spec_from_slack(SymMat.diag([1.0, -1.0]))

    def test_embed_certificate_refuses_another_systems_certificate(self):
        inst = inst_unattained()
        with pytest.raises(ValueError, match="certificate is for dram, SDP is pram"):
            embed_certificate(build_pram(inst), inst, _dram_cert_order3())

    def test_embed_strong_point_refuses_a_system_that_is_not_strong(self):
        inst = inst_unattained()
        with pytest.raises(ValueError, match="not a strong system: dram"):
            embed_strong_point(build_dram(inst), inst, StrongDualSpec(q=np.eye(3), r=1), np.zeros(3))


class TestStrictExactDualRemark:
    def test_pd_ladder_head_forces_zero_primal(self):
        # When the exact dual has a point whose first ladder matrix is PD,
        # the only primal-feasible point is X = 0.
        from ramanasdp import build_rr_form, verify_dram
        from ramanasdp.verify import RamanaCertificate as RC

        from helpers import sample_feasible

        a1 = SymMat.identity(3)
        a2 = SymMat.diag([1, 2, 3])
        inst = SdpInstance(a=(a1, a2), b=np.zeros(2), c=SymMat.identity(3))
        cert = RC(
            system="dram",
            y=np.zeros(2),
            ladder=(
                LadderRung(y=np.array([1.0, 0.0]), u=a1, v=SymMat.zero(3)),
                LadderRung(y=np.zeros(2), u=SymMat.zero(3), v=SymMat.zero(3)),
            ),
        )
        out = verify_dram(inst, cert)
        assert out.ok  # U_1 positive definite is accepted
        rr = build_rr_form(inst)
        assert rr.status == "feasible"
        for x in sample_feasible(inst, rr, count=5, seed=7):
            assert x.norm() <= 1e-8


def _slice_lambda(sdp):
    """(the largest λ_min of the PSD blocks, held as one block diagonal, over
    the affine slice of sdp's rows, ‖S0‖_F at the slice's particular point)
    with ridge 1e-8: lstsq gives the point and an SVD the null basis, over
    (svec of each PSD block, free vector)."""
    rows = dense_rows(sdp)[0].values()
    sizes = [b.order * (b.order + 1) // 2 for b in sdp.blocks]

    def coeffs(row):
        parts = [
            svec(SymMat(row.mats[b.name])) if b.name in row.mats else np.zeros(k)
            for b, k in zip(sdp.blocks, sizes)
        ]
        return np.concatenate(parts + [row.free])

    a = np.array([coeffs(row) for row in rows])
    x0 = np.linalg.lstsq(a, np.array([row.rhs for row in rows]), rcond=None)[0]
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > s[0] * max(a.shape) * np.finfo(float).eps))

    def block_diag(x):
        out, at, off = np.zeros((sum(b.order for b in sdp.blocks),) * 2), 0, 0
        for b, k in zip(sdp.blocks, sizes):
            out[off : off + b.order, off : off + b.order] = smat(x[at : at + k], b.order).a
            at, off = at + k, off + b.order
        return out

    s0 = block_diag(x0)
    result = maximize_lambda_min(s0, [block_diag(z) for z in vt[rank:]], reg=1e-8)
    return result.value, np.linalg.norm(s0)


def _unit_instance(n, a):
    return SdpInstance.from_arrays([a], [0.0], np.eye(n))


class TestStrictDualForcesZeroPrimal:
    """If Ramana's dual is strictly feasible, the primal's only feasible
    solution is 0 (Ramana 1997): an emitted dram whose primal has a nonzero
    feasible X has no point with every PSD block positive definite, and
    one whose primal feasible set is {0} has one."""

    @pytest.mark.parametrize("eid", [e for e in all_ids() if get(e).facts.feasible])
    def test_feasible_registry_primal_leaves_no_strict_dual(self, eid):
        lam, scale = _slice_lambda(build_dram(get(eid).instance))
        assert lam <= 1e-8 * (1.0 + scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_corner_leaves_no_strict_dual(self, n):
        # X = E_nn is feasible for A_1 = E_11, b = 0.
        lam, scale = _slice_lambda(build_dram(_unit_instance(n, np.diag([1.0] + [0.0] * (n - 1)))))
        assert lam <= 1e-8 * (1.0 + scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_trace_primal_has_a_strict_dual(self, n):
        # tr X = 0 leaves only X = 0 in the PSD cone.
        lam, _ = _slice_lambda(build_dram(_unit_instance(n, np.eye(n))))
        assert lam >= 1.0


class TestNonFiniteCoefficients:
    """A coefficient that is the sum a_ij + a_ji of two finite entries can
    pass the largest float; the system holding it is refused, not written
    with inf."""

    BIG = 1.5e308

    def test_constraint_sum_past_the_largest_float_is_refused(self):
        a = [[1.0, self.BIG], [self.BIG, 0.0]]
        inst = SdpInstance.from_arrays([a], [1.0], np.eye(2))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            build_pstrong(inst, StrongDualSpec(q=np.eye(2), r=1))

    def test_objective_sum_past_the_largest_float_is_refused(self):
        c = [[0.0, self.BIG], [self.BIG, 0.0]]
        inst = SdpInstance.from_arrays([np.eye(2)], [1.0], c)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            build_pram(inst)


def _golden_systems():
    """Every registry instance's dram, altram and pram (all registry A_i are
    independent), each registry strong certificate's system, and one
    order-1 instance per ladder system."""
    for eid in all_ids():
        entry = get(eid)
        inst = entry.instance
        yield f"{eid}/dram", build_dram(inst)
        yield f"{eid}/altram", build_alt_ram(inst)
        yield f"{eid}/pram", build_pram(inst)
        for rc in entry.certificates:
            if rc.system == "dstrong":
                yield f"{eid}/{rc.name}", build_dstrong(inst, rc.spec)
            elif rc.system == "pstrong":
                yield f"{eid}/{rc.name}", build_pstrong(inst, rc.spec)
    order1 = SdpInstance.from_arrays([[[1.0]], [[-2.0]]], [1.0, 0.5], [[2.0]])
    yield "order1/dram", build_dram(order1)
    yield "order1/altram", build_alt_ram(order1)
    yield "order1/pram", build_pram(SdpInstance.from_arrays([[[1.0]]], [2.0], [[3.0]]))


# SHA-256 of the SDPA text followed by the .varmap text of each system.
GOLDEN_EMISSION = {
    "example-1.1-unattained/dram": (
        "8d416a0df17e90a81e61493115dd20a9e49b8a89df1468fd51bd341b6ee5a548"
    ),
    "example-1.1-unattained/altram": (
        "a9c4f86072224e7fdcf474640d9ba258a969064089f30df35424ff02138f9d04"
    ),
    "example-1.1-unattained/pram": (
        "c14cbd75673459d97083ebd253176b70599e2877bdeee9f584f2a7bac0ed29d6"
    ),
    "example-1.1-unattained/strong-dual-origin": (
        "cd6a5c7f413fe0116af04dcb23527d7486847455f51fac0b2b9da0dc572aef5a"
    ),
    "example-2.15-infeasible/dram": (
        "f63c0c26cbb3de50d1a054624fcf7aa56fb36898734fb6669add48863164a699"
    ),
    "example-2.15-infeasible/altram": (
        "34eb8cc8934bd302bd69cbbaf2a03b57aa8375bf727027640fac5d1444ae7505"
    ),
    "example-2.15-infeasible/pram": (
        "cef3989b6850a89037d9b05fa9017861858d04200335a6179298aa4640b6d021"
    ),
    "example-2.3-gap/dram": (
        "69be4b5a78285cfff399f94c79df0c9f6938ba69a6ad07c4322f213697fe4583"
    ),
    "example-2.3-gap/altram": (
        "52e206ca3e9065227b69ba18629208571ad2f2b3df048ac9ec10bdbb93f0690b"
    ),
    "example-2.3-gap/pram": (
        "d1364a0e95368b80f8ef49619920cdeb47693570f5bca62ccba193eea9111628"
    ),
    "example-2.5-rr/dram": (
        "4c9a3892027afa1cbec077fb87b4fd7d64bdfc67f64a9db42f08dec48a999b06"
    ),
    "example-2.5-rr/altram": (
        "821e3ca4be7164dddab2dd4e00ca708405fbfcd7a9fa494fe8a3c5fa5397ff38"
    ),
    "example-2.5-rr/pram": (
        "77c96cc5e372965736d481ccebcfd7321f10063c37ebc1847a457ca92818dcdf"
    ),
    "example-2.5-rr/strong-dual-trailing2": (
        "f1c0b3cc4efd47140aa3e45ac7f599552f34f4e14824bc7b7df2f7cce7523750"
    ),
    "example-2.5-rr/strong-primal-leading3": (
        "bc7497303295bf30a2ff7a1b1c9433ecc180c468219417df79b1745d90efe38d"
    ),
    "example-identity-strict/dram": (
        "8f1c1fd270cd02427b500ced475db3ea4a17fed4b448e4c68495672c58d18e88"
    ),
    "example-identity-strict/altram": (
        "6caff4729751a9873c8cc9435d5cf042e8abd220f3d78403917f3131fe236abd"
    ),
    "example-identity-strict/pram": (
        "527f725e60868e9f9b77a221b86b176cc5f1968b44872c066f2a42021a2d1e19"
    ),
    "order1/dram": (
        "ba22cb37af8c771ba5b83a392132210c4cdf5de4ea793e7f7270ee3d97be0506"
    ),
    "order1/altram": (
        "ea06912ae3a440489b58036e9c5cc1bc6575a908f44279f946fe53f439ef2c9f"
    ),
    "order1/pram": (
        "b1b831c835fa92be36c7337d239d14b8a35cdba93f7b51d498e89aa0bfa878a2"
    ),
}


def test_golden_emission_is_byte_identical():
    digests = {
        key: hashlib.sha256(
            (standard_form_to_sdpa_text(sdp) + varmap_sidecar_text(sdp)).encode()
        ).hexdigest()
        for key, sdp in _golden_systems()
    }
    assert digests == GOLDEN_EMISSION


class TestShortLadder:
    """dram and altram hold L = min(n - 1, m) rungs, and every certificate
    build_rr_form leads to fits them."""

    REFUSALS = (NumericalRankAmbiguityError, SubsolverFailureError, IterationLimitError)

    @staticmethod
    def _embeds(inst, cert):
        rungs = min(inst.n - 1, inst.m)
        assert len(cert.ladder) == rungs
        build = build_dram if cert.system == "dram" else build_alt_ram
        sdp = build(inst)
        asg = embed_certificate(sdp, inst, cert)
        assert max_violation(sdp, asg) <= 1e-9
        # Relative to each block's norm: the head's coupling block carries
        # R = t·I with t = ‖V‖²/λ_min⁺(U) + 1, up to 1.3e13 on the
        # infeasible probe seeds, where eigvalsh's own rounding is 1e-3.
        for block in sdp.blocks:
            a = asg.blocks[block.name]
            assert np.linalg.eigvalsh(a)[0] >= -1e-9 * (1.0 + np.linalg.norm(a, 2))
        return sdp, asg

    def _rr_certificate(self, inst, y):
        rr = build_rr_form(inst)
        if rr.status == "feasible":
            return lift_from_strong(inst, y, rr)
        return alt_ram_from_rr(inst, rr)

    def test_registry_certificates_embed(self):
        for eid in all_ids():
            entry = get(eid)
            # The strictly feasible identity example has no ladder
            # certificate; y = 1 is dual feasible there.
            y = next(
                (rc.cert.y for rc in entry.certificates if rc.system == "dram"), np.ones(1)
            )
            self._embeds(entry.instance, self._rr_certificate(entry.instance, y))

    # (instance, y or None) per seed.  "probe" is tools/cascade_probe.py's
    # shape, n = 7 and blocks (2, 1, 1, 2), whose m ≥ n - 1 (6 rows when
    # feasible; 4 staircase, 1 terminal and 2 generic rows when infeasible)
    # keeps n - 1 rungs; "n9-m4" has 4 rungs where the parent had 8.
    CASES = {
        "probe-feasible": lambda rng: random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))[:2],
        "probe-infeasible": lambda rng: (planted(rng, 7, (2, 1, 1, 2), 2, infeasible=True).inst,
                                         None),
        "n9-m4-feasible": lambda rng: random_degenerate_instance(rng, 9, 4, (2, 1))[:2],
        "n9-m4-infeasible": lambda rng: (planted(rng, 9, (2, 1), 1, infeasible=True).inst, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_seed_certificates_embed(self, case):
        answered = 0
        for seed in range(50):
            inst, y = self.CASES[case](np.random.default_rng(seed))
            try:
                cert = self._rr_certificate(inst, y)
            except self.REFUSALS:
                continue
            assert cert.system == ("dram" if case.endswith("-feasible") else "altram")
            self._embeds(inst, cert)
            answered += 1
        # The probe measures refusals; today 26 of the 50 probe-infeasible
        # seeds are answered.
        assert answered >= 20

    def _long_ladder(self):
        """n = 8 and m = 3: a lifted certificate of three rungs, not seven,
        and the same ladder padded to seven."""
        inst, y, _ = random_degenerate_instance(np.random.default_rng(3), 8, 3, (2, 1))
        short = lift_from_strong(inst, y, build_rr_form(inst))
        return inst, short, pad_ladder(short, inst)

    def test_rr_certificate_embeds_where_m_is_below_n_minus_1(self):
        inst, short, _ = self._long_ladder()
        sdp, _ = self._embeds(inst, short)
        assert dram_size(8, 3) == (len(sdp.blocks), sdp.n_free) == (7, 12)

    def test_leading_zero_rungs_are_dropped(self):
        inst, short, long = self._long_ladder()
        assert len(long.ladder) == inst.n - 1 > len(short.ladder)
        sdp = build_dram(inst)
        want, got = embed_certificate(sdp, inst, short), embed_certificate(sdp, inst, long)
        assert np.array_equal(want.free, got.free)
        assert want.blocks.keys() == got.blocks.keys()
        assert all(np.array_equal(want.blocks[k], got.blocks[k]) for k in want.blocks)

    def test_one_rung_too_many_is_refused(self):
        inst, short, long = self._long_ladder()
        rungs = len(short.ladder)
        j = inst.n - 2 - rungs  # the last zero rung before the short ladder
        unit = SymMat.diag([1.0] + [0.0] * (inst.n - 1))
        ladder = list(long.ladder)
        ladder[j] = LadderRung(y=np.zeros(inst.m), u=unit, v=-unit)
        cert = RamanaCertificate(system="dram", y=long.y, ladder=tuple(ladder))
        with pytest.raises(
            ValueError,
            match=f"ladder has {rungs + 1} rungs from its first nonzero one; "
            f"the dram system holds {rungs}",
        ):
            embed_certificate(build_dram(inst), inst, cert)
