"""Facial reduction sequences, RR-form recognition and construction."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ramanasdp import (
    Reformulation,
    SdpInstance,
    SymMat,
    apply_a,
    apply_at,
    build_rr_form,
    classify_psd,
    is_rr_form,
    max_rank_zero_pattern,
    merge_to_bound,
    primal_optimal_value,
    reformulate,
    sample_feasible,
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
    FrSequence,
    _face_rows,
    _polish_on_face,
    _smat_family,
)
from ramanasdp.model import smat

from helpers import (
    inst_gap_raw,
    inst_gap_rr,
    inst_infeasible,
    inst_strict,
    inst_unattained,
    random_degenerate_instance,
    random_feasible_instance,
    random_orthonormal,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
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

    def test_swapped_pair_invalid(self):
        inst = inst_gap_rr()
        val = validate_frs([inst.a[1], inst.a[0]])
        assert not val.valid

    def test_raw_pair_invalid(self):
        inst = inst_gap_raw()
        assert not validate_frs(inst.a[:2]).valid

    def test_normalization_rotation_diagonalizes(self):
        # Non-diagonal PD blocks are accepted; the reported rotation makes
        # them diagonal without breaking the staircase.
        y1 = SymMat([[2, 1, 0], [1, 2, 0], [0, 0, 0]])
        y2 = SymMat([[5, 7, 1], [7, 0, 2], [1, 2, 3]])
        val = validate_frs([y1, y2])
        assert val.valid and val.seq.r == (2, 1)
        rot = [SymMat(val.q_norm.T @ y.a @ val.q_norm) for y in (y1, y2)]
        val2 = validate_frs(rot)
        assert val2.valid and val2.seq.r == (2, 1)
        lead = rot[0].a[:2, :2]
        assert np.max(np.abs(lead - np.diag(np.diag(lead)))) <= 1e-10

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


class TestMergeToBound:
    def test_drop_zero_blocks(self):
        mats = (
            SymMat.diag([1, 0, 0]),
            SymMat.zero(3),
            SymMat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        )
        seq = FrSequence(mats=mats, r=(1, 0, 1))
        merged, rows = merge_to_bound(seq)
        assert merged.r == (1, 1)
        assert merged.k == 2
        assert rows.shape == (2, 3)

    def test_full_rank_collapse(self):
        # Schur bound: lam * diag(1,0) + [[0,1],[1,1]] is PD for lam > 1.
        seq = FrSequence(
            mats=(SymMat.diag([1, 0]), SymMat([[0, 1], [1, 1]])), r=(1, 1)
        )
        merged, coeffs = merge_to_bound(seq)
        assert merged.k == 1 and merged.r == (2,)
        assert classify_psd(merged.mats[0]).is_positive_definite
        assert coeffs[0, 0] > 1.0  # exceeds the hand-computed bound

    def test_escalates_past_tight_schur_bound(self):
        # The bound 4 - 1e-7 rounds up to lam = 4, where 4·Y1 + Y2 has
        # determinant 1e-7 and is not PD to tolerance; doubling to 8 is.
        e = np.sqrt(4.0 - 1e-7)
        seq = FrSequence(
            mats=(SymMat([[1, 0], [0, 0]]), SymMat([[0, e], [e, 1]])), r=(1, 1)
        )
        merged, coeffs = merge_to_bound(seq)
        assert merged.k == 1 and merged.r == (2,)
        assert classify_psd(merged.mats[0]).is_positive_definite
        assert coeffs.tolist() == [[8.0, 1.0]]

    def test_empty_sequence_unchanged(self):
        merged, rows = merge_to_bound(FrSequence(mats=(), r=()))
        assert merged.k == 0

    def test_deep_collapse_with_junk_rows(self):
        # Members carrying data in the leading-row band beyond the next
        # diagonal block still combine to a PD matrix.
        y1 = SymMat.diag([1, 0, 0])
        y2 = SymMat([[0, 5, 9], [5, 1, 0], [9, 0, 0]])
        y3 = SymMat.diag([0, 0, 1])
        seq = FrSequence(mats=(y1, y2, y3), r=(1, 1, 1))
        merged, coeffs = merge_to_bound(seq)
        assert merged.k == 1
        assert classify_psd(merged.mats[0]).is_positive_definite
        assert np.all(coeffs > 0)

    def test_preserves_certified_rows(self):
        seq = FrSequence(
            mats=(SymMat.diag([1, 0, 0]), SymMat.zero(3)), r=(1, 0)
        )
        merged, _ = merge_to_bound(seq)
        assert merged.prefix_rank() == seq.prefix_rank()



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

    def test_strength_does_not_depend_on_row_scale(self):
        # Scaling one row by 1e5 rescales its y_i by 1e-5: the certificates
        # are the same, and so is the RR form.
        rng = np.random.default_rng(0)
        inst, _, _ = random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))
        a = [x.a for x in inst.a]
        a[0], b = 1e5 * a[0], inst.b * np.r_[1e5, np.ones(inst.m - 1)]
        rr = build_rr_form(SdpInstance.from_arrays(a, b, inst.c.a))
        assert (rr.status, rr.r, rr.k) == (STATUS_FEASIBLE, (2, 1, 1, 2), 4)
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
        fam = _smat_family(cols, n)
        assert fam.shape == (3, n, n)
        for j in range(3):
            assert np.array_equal(fam[j], smat(cols[:, j], n).a)
        assert _smat_family(cols[:, :0], n).shape == (0, n, n)
