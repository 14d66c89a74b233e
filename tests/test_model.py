"""Instance operator, slack, duality bookkeeping, reformulations, the dual's
equality-form rewrite."""

import re

import numpy as np
import pytest

from ramanasdp import (
    DependentConstraintsError,
    DimensionMismatchError,
    InconsistentRhsError,
    InfeasibleInputError,
    Reformulation,
    SdpInstance,
    SingularMError,
    SymMat,
    apply_a,
    apply_at,
    build_pram,
    classical_dual_instance,
    dual_slack,
    instances_close,
    reformulate,
    weak_duality_gap,
)

from ramanasdp.model import svec

from helpers import (
    inst_gap_raw,
    inst_gap_rr,
    inst_unattained,
    loop_apply_a,
    loop_apply_at,
    loop_constraint_stack,
    loop_reformulate,
    random_instance,
    random_orthonormal,
    random_sym,
)


class TestOperator:
    def test_feasible_point_hits_rhs(self):
        inst = inst_unattained()
        assert np.allclose(apply_a(inst, SymMat.diag([0, 0, 1])), inst.b)

    def test_zero_maps_to_zero(self):
        inst = inst_unattained()
        assert np.allclose(apply_a(inst, SymMat.zero(3)), 0.0)

    def test_rr_witness_hits_rhs(self):
        inst = inst_gap_rr()
        assert np.allclose(apply_a(inst, SymMat.diag([0, 0, 1, 1])), inst.b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_a(inst_unattained(), SymMat.zero(2))

    def test_adjoint_unit_vectors(self):
        inst = inst_unattained()
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert apply_at(inst, e).allclose(inst.a[i], tol=0.0)

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(29)
        inst = random_instance(rng, 5, 4)
        for _ in range(20):
            x = random_sym(rng, 5)
            y = rng.standard_normal(4)
            lhs = float(apply_a(inst, x) @ y)
            rhs = x.inner(apply_at(inst, y))
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


class TestSlack:
    def test_zero_y_gives_objective_matrix(self):
        inst = inst_unattained()
        assert dual_slack(inst, np.zeros(3)).allclose(inst.c, tol=0.0)

    def test_general_slack_structure(self):
        # Slack of the order-3 instance is [[-y1, 1, -y2], [1, -y2, 0], [-y2, 0, -y3]].
        inst = inst_unattained()
        rng = np.random.default_rng(31)
        for _ in range(5):
            y = rng.standard_normal(3)
            s = dual_slack(inst, y).a
            expect = np.array(
                [[-y[0], 1, -y[1]], [1, -y[1], 0], [-y[1], 0, -y[2]]]
            )
            assert np.allclose(s, expect)

    def test_gap_instance_slack_display(self):
        inst = inst_gap_rr()
        s = dual_slack(inst, np.array([1.0, 1.0, 0.0])).a
        expect = np.array(
            [[5, 0, -2, -1], [0, 0, 0, 0], [-2, 0, 1, 0], [-1, 0, 0, 0]], dtype=float
        )
        assert np.allclose(s, expect)


class TestWeakDuality:
    def test_attained_zero_gap(self):
        inst = inst_unattained()
        assert weak_duality_gap(inst, SymMat.diag([0, 0, 1]), np.zeros(3)) == 0.0

    def test_gap_instance_gap_one(self):
        inst = inst_gap_rr()
        gap = weak_duality_gap(inst, SymMat.diag([0, 0, 1, 1]), np.zeros(3))
        assert gap == pytest.approx(1.0)

    def test_zero_y_gap_is_objective(self):
        rng = np.random.default_rng(37)
        inst = inst_gap_rr()
        x = SymMat.diag([0, 0, 1, 1])
        assert weak_duality_gap(inst, x, np.zeros(3)) == pytest.approx(inst.c.inner(x))

    def test_infeasible_point_rejected(self):
        inst = inst_unattained()
        with pytest.raises(InfeasibleInputError):
            weak_duality_gap(inst, SymMat.identity(3), np.zeros(3))

    def test_identity_violated_by_a_residual_times_a_large_y(self):
        # X misses b = 0 by 1e-12, inside the feasibility tolerance; y = 1e12
        # turns that into a gap of 1 between <C,X> - <b,y> and <C - 𝒜*y, X>.
        inst = SdpInstance.from_arrays([[[1.0]]], [0.0], [[1.0]])
        x = SymMat([[1e-12]])
        assert weak_duality_gap(inst, x, [1.0]) == 1e-12
        with pytest.raises(ArithmeticError, match="duality identity violated"):
            weak_duality_gap(inst, x, [1e12])


class TestReformulate:
    def test_identity(self):
        inst = inst_gap_raw()
        out = reformulate(inst, Reformulation.identity(3, 4))
        assert instances_close(inst, out, tol=0.0)

    def test_row_operations_reach_rr_form(self):
        # (A1,b1) <- (A1,b1) - 3(A2,b2) + (A3,b3); (A2,b2) <- (A2,b2) - 2(A3,b3).
        inst = inst_gap_raw()
        m = np.array([[1.0, -3.0, 1.0], [0.0, 1.0, -2.0], [0.0, 0.0, 1.0]])
        out = reformulate(inst, Reformulation(m, np.eye(4)))
        assert instances_close(out, inst_gap_rr(), tol=0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng, 5, 4)
        m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        q = random_orthonormal(rng, 5)
        ref = Reformulation(m, q)
        back = reformulate(reformulate(inst, ref), ref.inverse())
        assert instances_close(inst, back)

    def test_singular_m_rejected(self):
        inst = inst_unattained()
        m = np.ones((3, 3))
        with pytest.raises(SingularMError):
            reformulate(inst, Reformulation(m, np.eye(3)))

    def test_primal_transport(self):
        # Feasible X maps to QᵀXQ feasible for the reformulated instance.
        rng = np.random.default_rng(43)
        for _ in range(10):
            n, m = 4, 3
            from helpers import random_feasible_instance

            inst, x0 = random_feasible_instance(rng, n, m)
            mm = rng.standard_normal((m, m)) + 3 * np.eye(m)
            q = random_orthonormal(rng, n)
            ref = Reformulation(mm, q)
            out = reformulate(inst, ref)
            x_new = SymMat(q.T @ x0.a @ q)
            assert np.max(np.abs(apply_a(out, x_new) - out.b)) <= 1e-8 * (
                1 + float(np.linalg.norm(out.b))
            )

    def test_dual_transport(self):
        # y feasible before iff M^{-T} y feasible after (slack classification).
        from ramanasdp import classify_psd

        rng = np.random.default_rng(47)
        from helpers import random_dual_feasible_instance

        for _ in range(10):
            inst, y0 = random_dual_feasible_instance(rng, 4, 3)
            mm = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            q = random_orthonormal(rng, 4)
            ref = Reformulation(mm, q)
            out = reformulate(inst, ref)
            y_new = ref.transport_dual(y0)
            assert classify_psd(dual_slack(inst, y0)).is_psd
            assert classify_psd(dual_slack(out, y_new)).is_psd


class TestComplement:
    """classical_dual_instance: its A_j are the D_j, its b the <D_j, C>
    and its C the minimum-norm X0."""

    def test_no_constraints(self):
        inst = SdpInstance(a=(), b=np.zeros(0), c=SymMat.identity(3))
        red = classical_dual_instance(inst)
        assert red.m == 6
        assert red.c.allclose(SymMat.zero(3), tol=0.0)
        gram = np.array([[d1.inner(d2) for d2 in red.a] for d1 in red.a])
        assert np.allclose(gram, np.eye(6), atol=1e-12)

    def test_orthogonality_order3(self):
        inst = inst_unattained()
        red = classical_dual_instance(inst)
        assert red.m == 3
        for ai in inst.a:
            for dj in red.a:
                assert abs(ai.inner(dj)) <= 1e-10

    def test_min_norm_solution_order4(self):
        inst = inst_gap_rr()
        red = classical_dual_instance(inst)
        assert red.m == 7
        assert np.max(np.abs(apply_a(inst, red.c) - inst.b)) <= 1e-9

    def test_d_values(self):
        inst = inst_gap_rr()
        red = classical_dual_instance(inst)
        assert np.allclose(red.b, [dj.inner(inst.c) for dj in red.a])

    def test_dependent_constraints_detected(self):
        a1 = SymMat.diag([1, 0])
        inst = SdpInstance(a=(a1, 2.0 * a1), b=np.array([0.0, 0.0]), c=SymMat.identity(2))
        with pytest.raises(DependentConstraintsError):
            classical_dual_instance(inst)

    @pytest.mark.parametrize("call", [classical_dual_instance, build_pram])
    def test_numerically_dependent_constraints_detected(self, call):
        # Independent in exact arithmetic, dependent below INDEP_TOL; and
        # more constraints than S^n has dimensions.  Both callers of the
        # rank rule give its one message.
        a1 = SymMat.diag([1.0, 0.0])
        a2 = SymMat([[1.0, 1e-10], [1e-10, 0.0]])
        inst = SdpInstance(a=(a1, a2), b=np.zeros(2), c=SymMat.identity(2))
        with pytest.raises(DependentConstraintsError, match="numerical rank 1 < m = 2"):
            call(inst)
        inst = SdpInstance.from_arrays([[[1.0]], [[2.0]]], [1.0, 2.0], [[0.0]])
        with pytest.raises(DependentConstraintsError, match="numerical rank 1 < m = 2"):
            call(inst)

    @pytest.mark.parametrize("call", [classical_dual_instance, build_pram])
    def test_svec_overflow_is_named(self, call):
        # 1.5e308 is finite, but svec scales it by √2 past DBL_MAX: the
        # refusal names A_2 and the overflow, not a dependence.
        big = [[1.0, 1.5e308], [1.5e308, 0.0]]
        inst = SdpInstance.from_arrays([np.eye(2), big], [1.0, 1.0], np.eye(2))
        with pytest.raises(ValueError, match=r"svec\(A_2\) overflows: .* exceeds DBL_MAX/√2") as err:
            call(inst)
        assert not isinstance(err.value, DependentConstraintsError)

    def test_every_complement_direction_is_found(self):
        # Past the rank check the Gram-Schmidt finds all n(n+1)/2 - m
        # directions, for every m from 0 to n(n+1)/2.
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 4):
            nn = n * (n + 1) // 2
            for m in range(nn + 1):
                inst = random_instance(rng, n, m)
                red = classical_dual_instance(inst)
                assert red.m == len(red.a) == nn - m
                gram = np.array([[di.inner(dj) for dj in red.a] for di in red.a])
                assert np.allclose(gram.reshape(nn - m, nn - m), np.eye(nn - m), atol=1e-12)
                for d in red.a:
                    assert all(abs(d.inner(a)) <= 1e-10 * (1 + a.norm()) for a in inst.a)

    def test_inconsistent_rhs_detected(self):
        a1 = SymMat.diag([1, 0])
        inst = SdpInstance(a=(a1, SymMat(2.0 * a1.a)), b=np.array([0.0, 1.0]), c=SymMat.identity(2))
        with pytest.raises((DependentConstraintsError, InconsistentRhsError)):
            classical_dual_instance(inst)


class TestIngestion:
    def test_symmetrization_flag(self):
        inst = SdpInstance.from_arrays(
            [[[1, 2], [0, 1]]], [0.0], [[0, 0], [0, 0]]
        )
        assert inst.symmetrized
        assert inst.a[0].a[0, 1] == inst.a[0].a[1, 0] == 1.0

    def test_exact_input_not_flagged(self):
        inst = inst_unattained()
        assert not inst.symmetrized

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b", "C"])
    def test_non_finite_data_refused(self, where, bad):
        a, b, c = [[[1.0, 0.0], [0.0, 0.0]]], [1.0], [[0.0, 0.0], [0.0, 1.0]]
        if where == "A":
            a[0][1][1] = bad
        elif where == "b":
            b[0] = bad
        else:
            c[0][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SdpInstance.from_arrays(a, b, c)


def _frozen_stack(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m random symmetric matrices of order n as an owned, read-only stack,
    with exact zeros and -0.0 entries; past order 1 every A_i is -0.0 at
    (0, 1), so a sum over i not started from +0.0 shows."""
    g = rng.standard_normal((m, n, n))
    g[rng.random(g.shape) < 0.3] = 0.0
    a = g + g.transpose(0, 2, 1)
    neg = rng.random(a.shape) < 0.2
    a[neg | neg.transpose(0, 2, 1)] = -0.0
    if n > 1:
        a[:, 0, 1] = a[:, 1, 0] = -0.0
    a.flags.writeable = False
    return a


def _with_zeros(rng: np.random.Generator, shape) -> np.ndarray:
    w = rng.standard_normal(shape)
    w[rng.random(shape) < 0.3] = 0.0
    return w


class TestOneStack:
    """An instance holds its A_i once, in one read-only stack; the operators
    on it keep the bits of the per-matrix loops of tests/helpers.py."""

    # n = 1 with m ≥ 5 is where einsum sums in another order.
    @pytest.mark.parametrize("m, n", [(6, 1), (9, 1), (5, 2), (7, 4), (12, 9), (3, 16)])
    def test_operators_keep_the_bits_of_the_per_matrix_loops(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        inst = SdpInstance(a=_frozen_stack(rng, m, n), b=rng.standard_normal(m),
                           c=random_sym(rng, n))
        y = _with_zeros(rng, m)
        y[0] = 0.0
        x = random_sym(rng, n)
        assert apply_at(inst, y).a.tobytes() == loop_apply_at(inst, y).a.tobytes()
        assert apply_a(inst, x).tobytes() == loop_apply_a(inst, x).tobytes()
        assert svec(inst.stack).tobytes() == loop_constraint_stack(inst).tobytes()
        m_rows = _with_zeros(rng, (m, m)) + 4.0 * np.eye(m)
        q = random_orthonormal(rng, n)
        got = reformulate(inst, Reformulation(m_rows, q))
        want = loop_reformulate(inst, m_rows, q)
        assert got.stack.tobytes() == want.stack.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
        assert got.c.a.tobytes() == want.c.a.tobytes()

    def test_a_is_made_when_read(self):
        # The stack is the only stored form; each read of ``a`` makes new
        # SymMats that own their data and keep the stack's bits.
        inst = random_instance(np.random.default_rng(3), 4, 3)
        assert inst.stack.shape == (3, 4, 4) and inst.stack.flags.owndata
        assert set(vars(inst)) == {"stack", "b", "c", "symmetrized"}
        a = inst.a
        assert a[0] is not inst.a[0]
        for ai, si in zip(a, inst.stack):
            assert ai.a.flags.owndata and not np.shares_memory(ai.a, inst.stack)
            assert ai.a.tobytes() == si.tobytes()

    @pytest.mark.parametrize("target", ["stack", "a_i"])
    def test_writing_to_the_stack_is_refused(self, target):
        inst = random_instance(np.random.default_rng(5), 3, 2)
        arr = inst.stack if target == "stack" else inst.a[1].a
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0

    def test_an_owned_frozen_array_is_held(self):
        a = _frozen_stack(np.random.default_rng(7), 3, 4)
        inst = SdpInstance(a=a, b=np.zeros(3), c=SymMat.identity(4))
        assert inst.stack is a and inst.a[2].a.tobytes() == a[2].tobytes()

    @pytest.mark.parametrize("case", ["writable", "view", "list"])
    def test_other_inputs_are_copied(self, case):
        a = _frozen_stack(np.random.default_rng(11), 3, 4)
        x = {"writable": lambda: a[1:].copy(), "view": lambda: a[1:],
             "list": lambda: [SymMat(ai) for ai in a[1:]]}[case]()
        inst = SdpInstance(a=x, b=np.zeros(2), c=SymMat.identity(4))
        assert inst.stack.flags.owndata and not inst.stack.flags.writeable
        assert not np.shares_memory(inst.stack, a)
        assert inst.stack.tobytes() == a[-2:].tobytes()

    @pytest.mark.parametrize("other", [1.0, 0.0], ids=["value", "signed-zero"])
    def test_an_array_that_is_not_bitwise_symmetric_is_refused(self, other):
        a = np.zeros((2, 3, 3))
        a[1, 0, 2], a[1, 2, 0] = -0.0, other
        with pytest.raises(ValueError, match="A_2 is not bitwise symmetric"):
            SdpInstance(a=a, b=np.zeros(2), c=SymMat.identity(3))

    def test_the_first_matrix_not_bitwise_symmetric_is_named(self):
        a = np.zeros((3, 2, 2))
        a[1, 0, 1] = a[2, 1, 0] = 1.0
        with pytest.raises(ValueError, match="A_2 is not bitwise symmetric"):
            SdpInstance(a=a, b=np.zeros(3), c=SymMat.identity(2))

    @pytest.mark.parametrize("change", ["order", "m", "b", "c", "a"])
    def test_instances_close_tells_each_part(self, change):
        inst = random_instance(np.random.default_rng(13), 3, 2)
        a, b, c = inst.stack, inst.b, inst.c
        bump = np.zeros((3, 3))
        bump[1, 1] = 1e-6
        other = {
            "order": lambda: random_instance(np.random.default_rng(13), 4, 2),
            "m": lambda: SdpInstance(a=a[:1], b=b[:1], c=c),
            "b": lambda: SdpInstance(a=a, b=b + [0.0, 1e-6], c=c),
            "c": lambda: SdpInstance(a=a, b=b, c=c + SymMat(bump)),
            "a": lambda: SdpInstance(a=a + [np.zeros((3, 3)), bump], b=b, c=c),
        }[change]()
        assert instances_close(inst, SdpInstance(a=a, b=b, c=c), tol=0.0)
        assert not instances_close(inst, other)


# (id, call, message): one row per shape refusal of model.py.  Each call
# gets data of the right kind but of one wrong size.
SHAPE_ROWS = [
    ("len-a-not-len-b", lambda: SdpInstance(a=(SymMat.identity(2),), b=np.zeros(2), c=SymMat.identity(2)),
     "len(A) must equal len(b)"),
    ("a-order", lambda: SdpInstance(a=(SymMat.identity(3),), b=np.zeros(1), c=SymMat.identity(2)),
     "A_1 has order 3, expected 2"),
    ("a-stack-shape", lambda: SdpInstance(a=np.zeros((1, 3, 3)), b=np.zeros(1), c=SymMat.identity(2)),
     "A has shape (1, 3, 3), expected (m, 2, 2)"),
    ("y-length", lambda: apply_at(inst_unattained(), [1.0, 2.0]),
     "y has length 2, instance has m = 3"),
    ("m-shape", lambda: reformulate(inst_unattained(), Reformulation(np.eye(2), np.eye(3))),
     "M must be m×m"),
    ("q-shape", lambda: reformulate(inst_unattained(), Reformulation(np.eye(3), np.eye(4))),
     "Q must be n×n"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in SHAPE_ROWS],
                         ids=[row[0] for row in SHAPE_ROWS])
def test_shape_refusal(call, message):
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        call()
