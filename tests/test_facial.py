"""Facial reduction sequences, RR-form recognition and construction."""

import importlib.util
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ramanasdp import (
    EPS_PSD,
    Reformulation,
    SdpInstance,
    SymMat,
    apply_a,
    apply_at,
    build_rr_form,
    classify_psd,
    is_rr_form,
    primal_optimal_value,
    reformulate,
    registry,
    solve_alternative,
    validate_frs,
)
from ramanasdp.facial import (
    CERT_INFEASIBILITY,
    CERT_STRICT_ONLY,
    MODE_EQ_ZERO,
    MODE_LEQ_ZERO,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    NumericalRankAmbiguityError,
    SubsolverFailureError,
    _face_rows,
    _interior_of_reduced,
    _pd_combination,
    _polish_on_face,
    _rank_split,
    _reduced_instance,
    classical_alternative_feasible,
)
from ramanasdp.model import constraint_stack, smat, smat_stack
from ramanasdp.subsolver import face_solve

from helpers import (
    inst_gap_raw,
    inst_gap_rr,
    inst_infeasible,
    inst_strict,
    inst_unattained,
    max_rank_zero_pattern,
    random_degenerate_instance,
    random_feasible_instance,
    random_orthonormal,
    sample_feasible,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from gen import planted  # noqa: E402


class TestValidateFrs:
    def test_order3_pair_valid(self):
        inst = inst_unattained()
        val = validate_frs(inst.a[:2])
        assert val.valid and val.seq.r == (1, 1)

    def test_rr_pair_valid(self):
        inst = inst_gap_rr()
        val = validate_frs(inst.a[:2])
        assert val.valid and val.seq.r == (1, 1)

    def test_zero_member(self):
        val = validate_frs([SymMat.zero(3)])
        assert val.valid and val.seq.r == (0,)

    def test_mixed_orders_invalid(self):
        val = validate_frs([SymMat.diag([1.0, 0, 0]), SymMat.zero(2)])
        assert not val.valid and val.reason == "members have mixed orders"

    def test_swapped_pair_invalid(self):
        inst = inst_gap_rr()
        val = validate_frs([inst.a[1], inst.a[0]])
        assert not val.valid

    def test_raw_pair_invalid(self):
        inst = inst_gap_raw()
        assert not validate_frs(inst.a[:2]).valid

    @pytest.mark.parametrize("members, r", [
        # A PD block need not be diagonal.
        ([[[2, 1, 0], [1, 2, 0], [0, 0, 0]], [[5, 7, 1], [7, 0, 2], [1, 2, 3]]], (2, 1)),
        # A full-rank first member leaves no trailing block, so the next
        # member steps past the full order with rank 0.
        ([[[2, 1], [1, 2]], [[5, 7], [7, 0]]], (2, 0)),
    ], ids=["non-diagonal-block", "past-the-full-order"])
    def test_inferred_ranks(self, members, r):
        val = validate_frs([SymMat(y) for y in members])
        assert val.valid and val.seq.r == r

    def test_block_permutation_invariance(self):
        # Rotating within a diagonal PD block keeps the sequence valid.
        rng = np.random.default_rng(53)
        inst = inst_gap_rr()
        for _ in range(10):
            g = random_orthonormal(rng, 1)
            q = np.eye(4)
            q[0:1, 0:1] = g
            rotated = [SymMat(q.T @ a.a @ q) for a in inst.a[:2]]
            assert validate_frs(rotated).valid


def _rr_of_2_5():
    """example-2.5-rr's RR form: the reformulated instance, k = 2 and the
    witness diag(0, 0, 1, t), t about 3.2e4, as an array."""
    rr = build_rr_form(registry.get("example-2.5-rr").instance)
    return rr.reformulated, rr.k, rr.maxrank_x.a


def _set(*entries):
    """The corruption setting the witness's entries (i, j, value), both
    triangles."""

    def corrupt(inst, x):
        for i, j, v in entries:
            x[i, j] = x[j, i] = v
        return inst, x

    return corrupt


def _b1_nonzero(inst, x):
    return SdpInstance(a=inst.a, b=np.concatenate([[1e-5], inst.b[1:]]), c=inst.c), x


# (id, corruption (inst, x) -> (inst, x), is_rr_form's answer).  The A_i
# vanish at (1, 2) and A_2, A_3 at (3, 3), so those entries break one check
# alone.  b_1 = 1e-5 passes eps·(1 + ‖b‖) but not the residual's tolerance,
# which also scales with ‖X‖ ≈ 3.2e4.
IS_RR_ROWS = [
    ("uncorrupted", lambda inst, x: (inst, x), True),
    ("b-k-nonzero", _b1_nonzero, False),
    ("witness-outside-trailing-block", _set((1, 2, 0.5)), False),
    ("trailing-block-not-pd", _set((3, 3, 0.0)), False),
    ("residual-too-large", _set((2, 2, 2.0)), False),
]


class TestIsRrForm:
    def test_order3_instance(self):
        inst = inst_unattained()
        assert is_rr_form(inst, 2, SymMat.diag([0, 0, 1]))

    def test_gap_rr_instance(self):
        inst = inst_gap_rr()
        assert is_rr_form(inst, 2, SymMat.diag([0, 0, 1, 1]))

    def test_raw_data_is_not_rr(self):
        inst = inst_gap_raw()
        assert not is_rr_form(inst, 2, SymMat.diag([0, 0, 1, 1]))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            is_rr_form(inst_unattained(), 5, SymMat.zero(3))

    def test_witness_of_the_wrong_order_is_refused(self):
        inst, k, x = _rr_of_2_5()
        with pytest.raises(ValueError, match="witness order mismatch"):
            is_rr_form(inst, k, SymMat(x[:3, :3]))

    @pytest.mark.parametrize("corrupt, ok", [row[1:] for row in IS_RR_ROWS],
                             ids=[row[0] for row in IS_RR_ROWS])
    def test_each_check_rejects_its_corruption(self, corrupt, ok):
        inst, k, x = _rr_of_2_5()
        assert k == 2 and is_rr_form(inst, k, SymMat(x))
        inst, x = corrupt(inst, x.copy())
        assert is_rr_form(inst, k, SymMat(x)) is ok



class TestSolveAlternative:
    def test_order3_certificate(self):
        inst = inst_unattained()
        res = solve_alternative(inst, MODE_EQ_ZERO)
        assert res.found
        y = res.certificate.y
        z = apply_at(inst, y)
        assert classify_psd(z).is_psd
        assert abs(float(inst.b @ y)) <= 1e-8
        assert np.trace(z.a) == pytest.approx(1.0)
        # The only certificate direction is the first constraint matrix.
        assert np.allclose(z.a, inst.a[0].a, atol=1e-6)

    def test_strictly_feasible_not_found(self):
        res = solve_alternative(inst_strict(), MODE_EQ_ZERO)
        assert not res.found

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown mode 'lt_zero'"):
            solve_alternative(inst_strict(), "lt_zero")

    @pytest.mark.parametrize("mode", [MODE_EQ_ZERO, MODE_LEQ_ZERO])
    def test_no_rows_no_certificate(self, mode):
        inst = SdpInstance(a=(), b=np.zeros(0), c=SymMat.identity(2))
        res = solve_alternative(inst, mode)
        assert not res.found and res.max_lambda_min is None

    def test_leq_zero_on_infeasible_instance(self):
        # The first certificate keeps <b, y> = 0; the negative one appears
        # later in the loop (covered by build_rr_form below).
        inst = inst_infeasible()
        res = solve_alternative(inst, MODE_LEQ_ZERO)
        assert res.found
        assert res.certificate.mode == CERT_STRICT_ONLY
        assert np.allclose(apply_at(inst, res.certificate.y).a, inst.a[0].a, atol=1e-6)

    def test_leq_zero_negative_branch(self):
        # Reduced stage of the infeasible instance: only <b,y> < 0 remains.
        a1 = SymMat.zero(2)
        a2 = SymMat.diag([1, 0])
        red = SdpInstance(a=(a1, a2), b=np.array([0.0, -1.0]), c=SymMat.zero(2))
        res = solve_alternative(red, MODE_LEQ_ZERO)
        assert res.found
        assert res.certificate.mode == CERT_INFEASIBILITY
        assert float(red.b @ res.certificate.y) < 0

    def test_far_certificate_found(self):
        # y = (-1, 50) has <b, y> = -1 and A*y = diag(0, 0, 1) ⪰ 0.  In the
        # <b, y> = -1 search this optimum, lambda_min = 0, sits at ‖w‖ = 50,
        # where the ridge (1e-8/2)·50² is larger than the band: an early
        # exit on the ridged objective alone would call it NotFound.
        a2 = SymMat(np.diag([1.0, -1.0, 1.0]) / 50.0)
        inst = SdpInstance(
            a=(SymMat.diag([1, -1, 0]), a2), b=np.array([1.0, 0.0]), c=SymMat.zero(3)
        )
        res = solve_alternative(inst, MODE_LEQ_ZERO)
        assert res.found
        assert res.certificate.mode == CERT_INFEASIBILITY
        assert res.certificate.y == pytest.approx([-1.0, 50.0], abs=1e-6)
        assert build_rr_form(inst).status == STATUS_INFEASIBLE


class TestBuildRrForm:
    def test_gap_instance(self):
        inst = inst_gap_raw()
        rr = build_rr_form(inst)
        assert rr.status == STATUS_FEASIBLE
        assert rr.k == 2 and rr.r == (1, 1)
        assert rr.maxrank_x is not None
        lam = np.linalg.eigvalsh(rr.maxrank_x.a)
        assert int(np.sum(lam > 1e-8)) == 2
        assert is_rr_form(rr.reformulated, rr.k, rr.maxrank_x)
        # Witness transport back to the original instance.
        q = rr.ref.q
        x_orig = SymMat(q @ rr.maxrank_x.a @ q.T)
        assert np.max(np.abs(apply_a(inst, x_orig) - inst.b)) <= 1e-7

    def test_strictly_feasible_k0(self):
        rr = build_rr_form(inst_strict())
        assert rr.status == STATUS_FEASIBLE and rr.k == 0
        assert classify_psd(rr.maxrank_x).is_positive_definite

    def test_infeasible_instance(self):
        rr = build_rr_form(inst_infeasible())
        assert rr.status == STATUS_INFEASIBLE
        assert rr.k <= 2
        assert float(rr.reformulated.b[rr.k - 1]) == pytest.approx(-1.0, abs=1e-6)
        val = validate_frs(rr.reformulated.a[: rr.k])
        assert val.valid
        assert np.max(np.abs(rr.reformulated.b[: rr.k - 1])) <= 1e-8 if rr.k > 1 else True

    def test_invariance_under_reformulation(self):
        # k and the multiset of block sizes are invariant under a random
        # pre-applied reformulation of the input.
        rng = np.random.default_rng(59)
        inst = inst_gap_raw()
        base = build_rr_form(inst)
        for _ in range(3):
            m = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            q = random_orthonormal(rng, 4)
            pre = reformulate(inst, Reformulation(m, q))
            rr = build_rr_form(pre)
            assert rr.status == base.status
            assert rr.k == base.k
            assert sorted(rr.r) == sorted(base.r)

    def test_certified_zero_pattern_on_samples(self):
        inst = inst_gap_raw()
        rr = build_rr_form(inst)
        p = sum(rr.r)
        pts = sample_feasible(inst, rr, count=6, seed=1)
        q = rr.ref.q
        for x in pts:
            assert np.max(np.abs(apply_a(inst, x) - inst.b)) <= 1e-6
            assert classify_psd(x).is_psd
            x_ref = q.T @ x.a @ q
            assert np.max(np.abs(x_ref[:p, :])) <= 1e-6

    def test_full_rank_zero_solution_collapses(self):
        # Only feasible point is X = 0: certified blocks fill the order and
        # the sequence collapses to one positive definite equation.
        a1 = SymMat.diag([1, 0])
        a2 = SymMat([[0, 1], [1, 1]])
        inst = SdpInstance(a=(a1, a2), b=np.zeros(2), c=SymMat.identity(2))
        rr = build_rr_form(inst)
        assert rr.status == STATUS_FEASIBLE
        assert rr.k == 1 and rr.r == (2,)
        assert classify_psd(rr.reformulated.a[0]).is_positive_definite
        assert rr.maxrank_x.allclose(SymMat.zero(2))

    def test_svec_overflow_is_named(self):
        # 1.5e308 is finite, but svec scales it by √2 past DBL_MAX: the
        # refusal names the overflow at entry, before any barrier runs on
        # the raw entries, and numpy warns of nothing.
        inst = SdpInstance.from_arrays([[[1.0, 1.5e308], [1.5e308, 0.0]]], [1.0], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"svec\(A_1\) overflows: .* exceeds DBL_MAX/√2"):
                build_rr_form(inst)


def _merged(mats, coeffs):
    return SymMat(sum(c * y.a for c, y in zip(coeffs, mats)))


def _stacked(mats) -> np.ndarray:
    return np.array([y.a for y in mats])


class TestMergeToBound:
    """build_rr_form's merge to k ≤ n - 1: _pd_combination's weights of a
    sequence whose blocks fill the order."""

    def test_full_rank_collapse(self):
        # Schur bound: lam * diag(1,0) + [[0,1],[1,1]] is PD for lam > 1.
        mats = (SymMat.diag([1, 0]), SymMat([[0, 1], [1, 1]]))
        coeffs = _pd_combination(_stacked(mats), (1, 1), EPS_PSD)
        assert classify_psd(_merged(mats, coeffs)).is_positive_definite
        assert coeffs[0] > 1.0  # exceeds the hand-computed bound

    def test_escalates_past_tight_schur_bound(self):
        # The bound 4 - 1e-7 rounds up to lam = 4, where 4·Y1 + Y2 has
        # determinant 1e-7 and is not PD to tolerance; doubling to 8 is.
        e = np.sqrt(4.0 - 1e-7)
        mats = (SymMat([[1, 0], [0, 0]]), SymMat([[0, e], [e, 1]]))
        coeffs = _pd_combination(_stacked(mats), (1, 1), EPS_PSD)
        assert classify_psd(_merged(mats, coeffs)).is_positive_definite
        assert coeffs.tolist() == [8.0, 1.0]

    def test_deep_collapse_with_junk_rows(self):
        # Members carrying data in the leading-row band beyond the next
        # diagonal block still combine to a PD matrix.
        y1 = SymMat.diag([1, 0, 0])
        y2 = SymMat([[0, 5, 9], [5, 1, 0], [9, 0, 0]])
        y3 = SymMat.diag([0, 0, 1])
        coeffs = _pd_combination(_stacked((y1, y2, y3)), (1, 1, 1), EPS_PSD)
        assert classify_psd(_merged((y1, y2, y3), coeffs)).is_positive_definite
        assert np.all(coeffs > 0)

    @pytest.mark.parametrize("lead, off", [(1.0, 1e300), (1e-300, 1e10)])
    def test_schur_bound_past_the_float_range_is_refused(self, lead, off):
        # ‖E₁₂‖² = 1e600 overflows, and 1e20 / λ₁ = 1e320 does: both are
        # refused by name, not raised as OverflowError.
        mats = (SymMat.diag([lead, 0.0]), SymMat([[0.0, off], [off, 1.0]]))
        with pytest.raises(SubsolverFailureError, match="merge: Schur bound inf is not below 2"):
            _pd_combination(_stacked(mats), (1, 1), EPS_PSD)

    @pytest.mark.parametrize("members, ranks, match", [
        ([[1.0, 0.0]], [2], "single member not positive definite"),
        ([[0.0, 0.0], [0.0, 1.0]], [1, 1], "inner combination lost definiteness"),
    ])
    def test_member_that_is_not_definite_is_refused(self, members, ranks, match):
        # The recursion's last member, diag(1, 0), is singular; and the
        # leading block of diag(0, 0) is, under a definite inner member.
        with pytest.raises(SubsolverFailureError, match=f"merge: {match}"):
            _pd_combination(np.array([np.diag(d) for d in members]), ranks, 1e-8)



class TestMergeInBuildRrForm:
    """build_rr_form's merge, on the deep infeasible cascade (n = 7, blocks
    (2, 1, 1, 2)) that tools/cascade_probe.py --infeasible probes."""

    @staticmethod
    def _inst(seed):
        return planted(np.random.default_rng(seed), 7, (2, 1, 1, 2), 2, infeasible=True).inst

    def test_merges_into_one_pd_row(self, monkeypatch):
        from ramanasdp import alt_ram_from_rr, facial, verify_alt_ram

        calls = []
        real = facial._pd_combination

        def spy(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(facial, "_pd_combination", spy)
        inst = self._inst(0)
        rr = build_rr_form(inst)
        assert calls
        assert (rr.status, rr.k, rr.r) == (STATUS_INFEASIBLE, 2, (7, 0))
        lead = classify_psd(rr.reformulated.a[0])
        assert lead.is_positive_definite
        assert lead.evidence == pytest.approx(2.5e-3, rel=0.05)
        assert verify_alt_ram(inst, alt_ram_from_rr(inst, rr)).ok

    def test_failed_escalation_is_a_refusal(self):
        from ramanasdp import SubsolverFailureError

        with pytest.raises(SubsolverFailureError, match="merge: Schur bound escalation failed"):
            build_rr_form(self._inst(2))


class TestRankSplit:
    # eps = 1e-8 at scale 2: an eigenvalue counts above 2e-6, is zero at or
    # below 2e-8 and at or above -2e-8, and is refused in between.
    EPS, SCALE = 1e-8, 2.0

    def test_counts_eigenvalues_above_the_band(self):
        lam = np.array([3.0, 2.0000001e-6, 2e-8, 0.0, -2e-8])
        assert _rank_split(lam, self.EPS, self.SCALE) == 2

    @pytest.mark.parametrize("inside", [2.0000001e-8, 1e-7, 2e-6])
    def test_eigenvalue_inside_the_band_is_ambiguous(self, inside):
        lam = np.array([3.0, inside, 0.0])
        band = re.escape("lie inside (2.000e-08, 2.000e-06]")
        with pytest.raises(NumericalRankAmbiguityError, match=band):
            _rank_split(lam, self.EPS, self.SCALE)

    def test_eigenvalue_below_the_band_is_a_failure(self):
        lam = np.array([3.0, 0.0, -2.0000001e-8])
        with pytest.raises(SubsolverFailureError, match="negative eigenvalue -2.000e-08"):
            _rank_split(lam, self.EPS, self.SCALE)


class TestMaxRankZeroPattern:
    def test_trivial_self(self):
        x = SymMat.diag([0, 0, 1])
        assert max_rank_zero_pattern(x, x)

    def test_order3_pattern(self):
        x_max = SymMat.diag([0, 0, 1])
        assert max_rank_zero_pattern(x_max, SymMat.diag([0, 0, 0.5]))
        assert not max_rank_zero_pattern(x_max, SymMat.diag([1, 0, 1]))

    def test_sampled_points_respect_pattern(self):
        inst = inst_gap_rr()
        rr = build_rr_form(inst)
        x_max = rr.maxrank_x
        for x in sample_feasible(inst, rr, count=5, seed=3):
            x_ref = SymMat(rr.ref.q.T @ x.a @ rr.ref.q)
            assert max_rank_zero_pattern(x_max, x_ref, eps=1e-6)


class TestPrimalValue:
    def test_values(self):
        assert primal_optimal_value(inst_unattained()) == pytest.approx(0.0, abs=1e-6)
        assert primal_optimal_value(inst_gap_raw()) == pytest.approx(1.0, abs=1e-6)
        assert primal_optimal_value(inst_gap_rr()) == pytest.approx(1.0, abs=1e-6)
        assert primal_optimal_value(inst_strict()) == pytest.approx(3.0, abs=1e-6)
        assert primal_optimal_value(inst_infeasible()) == float("inf")

    def test_zero_face_of_full_order(self):
        # tr X = 0 leaves only X = 0: the certificate I fills the order
        # (p = n), and the value is 0 with no face to solve.  With b = 0
        # the slice <b, y> = -1 of the classical alternative is empty.
        inst = SdpInstance.from_arrays([np.eye(2)], [0.0], np.eye(2))
        rr = build_rr_form(inst)
        assert (rr.status, rr.r) == (STATUS_FEASIBLE, (2,))
        assert primal_optimal_value(inst, rr) == 0.0
        assert not classical_alternative_feasible(inst)

    def test_unbounded_below_is_refused(self):
        # min <diag(-1, 1), X> s.t. X₁₂ = 0 is strictly feasible at I and
        # unbounded below along diag(1, 0): the face solve cannot converge,
        # and no finite value is returned.
        inst = SdpInstance(a=(SymMat(np.array([[0.0, 1.0], [1.0, 0.0]])),), b=np.zeros(1),
                           c=SymMat(np.diag([-1.0, 1.0])))
        with np.errstate(all="ignore"), pytest.raises(
                SubsolverFailureError, match="face solve stopped at error"):
            primal_optimal_value(inst)

    @pytest.mark.parametrize("b", [1e7, 1e8, 1e12])
    @pytest.mark.parametrize("n", [1, 2])
    def test_interior_of_a_face_of_large_scale(self, n, b):
        # The reduced instance X₁₁ = b itself (p = s = 0): its interior
        # point is the center diag(b, 1), however large b.
        a = np.zeros((n, n))
        a[0, 0] = 1.0
        inst = SdpInstance(a=(SymMat(a),), b=np.array([b]), c=SymMat(np.eye(n)))
        x = _interior_of_reduced(inst, 0, 0).a
        assert x == pytest.approx(np.diag([b, 1.0][:n]), rel=1e-12)

    def test_random_feasible_value_bounded_by_points(self):
        # PSD objective matrices keep the value finite (bounded below by 0).
        from helpers import random_psd

        rng = np.random.default_rng(61)
        for _ in range(5):
            inst, x0 = random_feasible_instance(rng, 4, 3)
            inst = SdpInstance(a=inst.a, b=inst.b, c=random_psd(rng, 4))
            val = primal_optimal_value(inst)
            assert val >= -1e-6
            assert val <= inst.c.inner(x0) + 1e-6 * (1 + abs(inst.c.inner(x0)))

    @pytest.mark.parametrize("n, value, bound", [
        (18, -31.614236848428845, 0.15e6),
        (32, -534.6285302191973, 1e6),
    ], ids=["n18", "n32"])
    def test_face_path_holds_little_memory(self, n, value, bound):
        # build_rr_form and primal_optimal_value on a planted instance of
        # reduced order n - 4.  The face kernels hold the (m', n', n')
        # stack of the reduced face's few orthonormal rows, not the
        # n'(n'+1)/2 - m' matrices of its null space: the peaks are about
        # 0.10 MB and 0.29 MB, from 0.40 MB and 5.3 MB with the null-space
        # family.  The values are those of the null-space barrier path.
        inst = planted(np.random.default_rng(5), n, (2, 1, 1), 2).inst
        assert primal_optimal_value(inst) == pytest.approx(value, rel=1e-7)
        tracemalloc.start()
        try:
            primal_optimal_value(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestEdgeCases:
    def test_infeasible_collapse_corner(self):
        # Two facial-reduction rungs exhaust the order before a terminal
        # zero-matrix equation appears; the leading pair collapses to one
        # positive definite member, leaving k = 2 with rhs (0, -1).
        a1 = SymMat.diag([1, 0])
        a2 = SymMat([[0, 1], [1, 1]])
        a3 = SymMat.zero(2)
        inst = SdpInstance(a=(a1, a2, a3), b=np.array([0.0, 0.0, -1.0]), c=SymMat.zero(2))
        rr = build_rr_form(inst)
        assert rr.status == STATUS_INFEASIBLE
        assert rr.k == 2
        assert rr.r == (2, 0)
        assert classify_psd(rr.reformulated.a[0]).is_positive_definite
        assert float(rr.reformulated.b[0]) == pytest.approx(0.0, abs=1e-9)
        assert float(rr.reformulated.b[1]) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("call", [0, 1], ids=["round", "tail"])
    def test_singular_m_is_a_refusal(self, monkeypatch, call):
        # The collapse corner reformulates twice: after its one round and
        # in the tail branch.  An M singular to tolerance at either is a
        # refusal with the reason, not a ValueError for bad input.
        from ramanasdp import SingularMError, SubsolverFailureError, facial

        real, calls = facial.reformulate, []

        def singular_once(inst, ref):
            calls.append(ref)
            if len(calls) == call + 1:
                raise SingularMError("M is singular to tolerance (planted)")
            return real(inst, ref)

        a1 = SymMat.diag([1, 0])
        a2 = SymMat([[0, 1], [1, 1]])
        inst = SdpInstance(
            a=(a1, a2, SymMat.zero(2)), b=np.array([0.0, 0.0, -1.0]), c=SymMat.zero(2)
        )
        monkeypatch.setattr(facial, "reformulate", singular_once)
        with pytest.raises(SubsolverFailureError, match="singular to tolerance"):
            build_rr_form(inst)

    def test_rank_ambiguity_refused(self):
        # An eigenvalue ratio of ~3e-7 lands inside the (eps, 100·eps) band;
        # the subsolver refuses to decide rather than guessing a rank.
        from ramanasdp import IterationLimitError, SubsolverFailureError

        inst = SdpInstance(
            a=(SymMat.diag([1.0, 3e-7]),), b=np.array([0.0]), c=SymMat.identity(2)
        )
        with pytest.raises(IterationLimitError):
            solve_alternative(inst, MODE_EQ_ZERO)
        with pytest.raises(SubsolverFailureError):
            build_rr_form(inst)

    def test_no_constraints_instance(self):
        inst = SdpInstance(a=(), b=np.zeros(0), c=SymMat.identity(3))
        rr = build_rr_form(inst)
        assert rr.status == STATUS_FEASIBLE and rr.k == 0
        assert classify_psd(rr.maxrank_x).is_positive_definite
        assert primal_optimal_value(inst, rr) == pytest.approx(0.0, abs=1e-6)


class TestFaceTolerance:
    @pytest.mark.parametrize("seed", [9, 37])
    def test_raised_face_tolerance_certifies_deep_cascade(self, seed):
        # Deep cascades (n = 7, blocks (2, 1, 1, 2), two generic rows) whose
        # alternative-system optimum keeps small positive eigenvalues: the
        # face tolerance raised just above them polishes the optimum onto a
        # clean certificate, while the base 1e-5·scale alone makes the
        # construction refuse.
        rng = np.random.default_rng(seed)
        inst, _, planted = random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))
        rr = build_rr_form(inst)
        assert rr.status == STATUS_FEASIBLE
        assert sum(rr.r) == planted


class TestPolishInCone:
    @pytest.mark.parametrize("seed", [6, 7, 15])
    def test_steps_stop_at_the_cone_boundary(self, seed):
        # 𝒜*y has eigenvalues 0.01, 0.03, 1, 2 and the one row b·y = b·y0
        # is nearly parallel to the face row of the 0.01, so flattening it
        # takes a long step.  The plain polish trades it for a negative
        # eigenvalue inside its near-PSD slack; the in-cone polish cuts each
        # step where λ_min reaches zero and ends on the cone's boundary.
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        mats = [q @ np.diag([0.01, 0.03, 1.0, 2.0]) @ q.T]
        mats += [(x + x.T) / 2 for x in rng.standard_normal((3, 4, 4))]
        face_row = np.array([q[:, 0] @ a @ q[:, 0] for a in mats])
        b = face_row + 1e-2 * rng.standard_normal(4)
        inst = SdpInstance.from_arrays(mats, b, np.eye(4))
        y0, rows = np.eye(4)[0], b.reshape(1, -1)
        lam = {}
        for in_cone in (False, True):
            y = _polish_on_face(inst, y0, rows, rows @ y0, 0.02, in_cone=in_cone)
            assert rows @ y == pytest.approx(rows @ y0, abs=1e-12)
            lam[in_cone] = np.linalg.eigvalsh(apply_at(inst, y).a)
        assert lam[False][0] < -0.02
        assert lam[True][0] == pytest.approx(0.0, abs=1e-12)
        assert lam[True][1] > 0.01


class TestDeepCascadeSoundness:
    def test_deep_reductions_never_lie(self):
        # Beyond one or two rungs the face alignment error (~sqrt machine
        # eps per round) makes reductions numerically delicate.  The
        # construction must stay sound there: either the certified rank is
        # exactly the planted one, or it refuses with a diagnostic error —
        # never a false feasibility status, never silent under-reduction.
        from ramanasdp import NumericalRankAmbiguityError, SubsolverFailureError

        rng = np.random.default_rng(777)
        correct = refused = 0
        for _ in range(60):
            n = int(rng.integers(4, 8))
            m = int(rng.integers(3, min(n + 1, 7)))
            k = int(rng.integers(2, min(3, m) + 1))
            left = n - 1
            ranks = []
            for _ in range(k):
                if left <= 0:
                    break
                r = int(rng.integers(1, min(2, left) + 1))
                ranks.append(r)
                left -= r
            inst, _, planted = random_degenerate_instance(rng, n, m, tuple(ranks))
            try:
                rr = build_rr_form(inst)
            except (NumericalRankAmbiguityError, SubsolverFailureError):
                refused += 1
                continue
            assert rr.status == STATUS_FEASIBLE
            assert sum(rr.r) == planted
            correct += 1
        assert correct >= 50  # refusals stay rare


class TestCertificateStrength:
    @pytest.mark.parametrize("seed", [0, 299])
    def test_thin_face_phantom_is_not_a_certificate(self, seed):
        # The last round of these cascades sees an order-1 block on which
        # the two generic rows are parallel only to rounding.  The slice
        # then holds a y of norm ~1e5 to 1e7 with λ_min(𝒜*y) = 1: far from
        # the band, but weaker than √eps against ‖(|y_i|·s_i)_i‖, s_i the
        # rows' full-order norms.  It is NotFound, so the planted face is
        # certified instead of a failed merge.  At seed 299 one of the two
        # rows is cut to a trailing block of norm 0.01 from a full-order
        # norm above 10: weighed by that 0.01, the phantom would pass.
        rng = np.random.default_rng(seed)
        inst, _, planted = random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))
        rr = build_rr_form(inst)
        assert rr.status == STATUS_FEASIBLE
        assert rr.r == (2, 1, 1, 2) and sum(rr.r) == planted

    @pytest.mark.parametrize("row", [0, 3])
    @pytest.mark.parametrize("scale", [1e5, 1e-5, 1e8])
    @pytest.mark.parametrize("seed", range(5))
    def test_strength_does_not_depend_on_row_scale(self, seed, scale, row):
        # Scaling one row and its b_j by f rescales its y_j by 1/f: the
        # certificates are the same, and so is the RR form.  So cleanup may
        # not cut a y_j for being small against max|y|, and the slice test
        # may not read a slice with a large least-norm point as empty.
        rng = np.random.default_rng(seed)
        inst, _, _ = random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))
        a, b = [x.a for x in inst.a], inst.b.copy()
        a[row], b[row] = scale * a[row], scale * b[row]
        rr = build_rr_form(SdpInstance.from_arrays(a, b, inst.c.a))
        assert (rr.status, rr.r, rr.k) == (STATUS_FEASIBLE, (2, 1, 1, 2), 4)

    @pytest.mark.parametrize("seed, scale", [(28, 1e-5), (0, 1e-8)])
    def test_a_center_off_its_face_is_refused(self, seed, scale):
        # Row 0 and b_0 times a small f: the λ_min search finds no
        # certificate, and the answer would be feasible with r = (), short of
        # the planted (2, 1, 1, 2).  The center it would stand on is not
        # positive definite, so no interior point backs that answer.
        rng = np.random.default_rng(seed)
        inst, _, _ = random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))
        a, b = [x.a for x in inst.a], inst.b.copy()
        a[0], b[0] = scale * a[0], scale * b[0]
        with pytest.raises(SubsolverFailureError, match="center is not interior to its face"):
            build_rr_form(SdpInstance.from_arrays(a, b, inst.c.a))

    def test_rank_one_certificate_beside_a_large_row(self):
        # diag(1, 0) with b = 0 is a rank-one certificate, whatever the
        # scale of the other row.
        tiny = SdpInstance.from_arrays(
            [np.diag([1.0, 0.0]), 1e5 * np.array([[0.0, 1.0], [1.0, 0.0]])], [0.0, 0.0], np.eye(2)
        )
        rr = build_rr_form(tiny)
        assert (rr.status, rr.r) == (STATUS_FEASIBLE, (1,))


class TestStackedFamilies:
    @pytest.mark.parametrize("seed", range(3))
    def test_face_rows_match_the_pairwise_definition(self, seed):
        # Row (a, b), a ≤ b in np.triu_indices order, column j: v_aᵀ A_j v_b.
        rng = np.random.default_rng(seed)
        n, m, p = 6, 5, 3
        mats = np.array([(x + x.T) / 2 for x in rng.standard_normal((m, n, n))])
        v = np.linalg.qr(rng.standard_normal((n, p)))[0]
        pairwise = [[v[:, a] @ mats[j] @ v[:, b] for j in range(m)]
                    for a in range(p) for b in range(a, p)]
        assert _face_rows(mats, v) == pytest.approx(np.array(pairwise), abs=1e-12)
        assert _face_rows(mats, v[:, :0]).shape == (0, m)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_smat_family_is_smat_per_column(self, n):
        cols = np.random.default_rng(n).standard_normal((n * (n + 1) // 2, 3))
        fam = smat_stack(cols, n)
        assert fam.shape == (3, n, n)
        for j in range(3):
            assert np.array_equal(fam[j], smat(cols[:, j], n).a)
        assert smat_stack(cols[:, :0], n).shape == (0, n, n)


class TestSolveWorkloadDecisions:
    def test_seed_101_decisions_are_pinned(self):
        # tools/solve_probe.py on the benchmark's solve ops of seed 101:
        # the digest of every op's (status, r, k, refusal).  A change that
        # alters any decision on the benchmark's own op shapes fails here.
        spec = importlib.util.spec_from_file_location(
            "solve_probe", Path(__file__).resolve().parents[1] / "tools" / "solve_probe.py"
        )
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)
        records = probe.probe(range(101, 102))
        assert len(records) == 25
        assert [rec for rec in records if rec["refusal"] or rec["wrong"]] == []
        assert probe.digest(records) == (
            "0c8ae2109bcd613932bdd936a468a5f3a3184d3df62b2939b54f4696fe0f94c4"
        )

    def test_seed_101_values_are_pinned_and_dual_certified(self, tmp_path):
        # The feasible solve ops of seed 101: primal_optimal_value within
        # 1e-7 relative of the values the null-space barrier path gave, and
        # the face kernel's own dual y' on the reduced face feasible to
        # rounding, C' - 𝒜'*y' ⪰ -1e-9·‖C'‖, with <b', y'> equal to the
        # value to 1e-7·(1 + |value|).
        ran = set()
        for op in workloads.setup_solve(101, str(tmp_path)):
            if op.name not in SEED_101_VALUES:
                continue
            rr, value, _ = op.run()
            assert value == pytest.approx(SEED_101_VALUES[op.name], rel=1e-7)
            p = sum(rr.r)
            red = _reduced_instance(rr.reformulated, p, rr.k)
            sol = face_solve(red.c.a, constraint_stack(red), red.b, rr.maxrank_x.a[p:, p:])
            assert sol.value == value
            slack = red.c.a - apply_at(red, sol.y).a
            assert np.linalg.eigvalsh(slack)[0] >= -1e-9 * red.c.norm()
            assert abs(float(red.b @ sol.y) - value) <= 1e-7 * (1.0 + abs(value))
            ran.add(op.name)
        assert ran == set(SEED_101_VALUES)

    def test_seed_25_deep_cascade_is_answered(self, tmp_path):
        # Op 17 of seed 25, a (2, 2, 2, 2) cascade at n = 9: a certificate
        # of one round has entries below 1e-6·max|y| that it cannot do
        # without.  The planted face is certified, and the op's check holds.
        op = workloads.setup_solve(25, str(tmp_path))[17]
        assert op.name == "17-deep-n9"
        result = op.run()
        op.check(result)
        assert (result[0].status, result[0].r) == (STATUS_FEASIBLE, (2, 2, 2, 2))


# primal_optimal_value on the feasible solve ops of seed 101, as the
# null-space barrier path computed it (the deep ops' faces are one point).
SEED_101_VALUES = {
    "00-degenerate-n6": 87.81147326168139,
    "01-deep-n5": 0.8176690620508131,
    "02-strict-n6": 142.14840631373227,
    "04-degenerate-n8": -45.19425627589226,
    "05-deep-n6": 4.707067041294116,
    "06-strict-n7": 101.31432390748523,
    "08-degenerate-n10": 29.132426761556417,
    "09-deep-n7": 18.439830554400825,
    "10-strict-n8": 92.54499295866117,
    "12-degenerate-n12": 8.867406617850065,
    "13-deep-n8": 6.882117012832015,
    "14-strict-n9": 58.2761681266129,
    "16-degenerate-n13": 116.0319546139799,
    "17-deep-n9": 15.580465455318535,
    "18-strict-n10": -32.89022839674726,
    "20-degenerate-n14": 81.63701064838096,
    "21-deep-n10": 38.25116780000769,
    "22-strict-n10": 50.29563963925466,
    "24-degenerate-n11": 113.58266481105238,
}
