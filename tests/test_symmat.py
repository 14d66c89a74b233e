"""Symmetric-matrix core: eigensolver, PSD classification, rotations, tangents."""

import hashlib
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ramanasdp import (
    NonOrthonormalError,
    NotPsdInputError,
    PsdTag,
    SpectralDecomp,
    SymMat,
    classify_psd,
    eig,
    facial,
    psd_plus_tan_contains,
    registry,
    rotate,
    split_psd_plus_tan,
    symmat,
    tan_contains,
    tangent_witness,
)

from helpers import (
    canonical_basis_reference,
    eager_eig_reference,
    random_orthonormal,
    random_psd,
    random_sym,
)


def char_poly_roots(a: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients, then companion-matrix roots."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-8
    return np.sort(roots.real)[::-1]


class TestEig:
    def test_identity(self):
        dec = eig(SymMat.identity(3))
        assert np.allclose(dec.lam, [1, 1, 1])
        assert np.allclose(dec.q.T @ dec.q, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        dec = eig(SymMat.diag([3, -1]))
        assert np.allclose(dec.lam, [3, -1])

    def test_against_char_poly_oracle(self):
        a2 = np.array(
            [[-5, 0, 2, 1], [0, 1, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]], dtype=float
        )
        expected = char_poly_roots(a2)
        dec = eig(SymMat(a2))
        assert np.allclose(dec.lam, expected, atol=1e-10)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = random_sym(rng, n, scale=rng.uniform(0.1, 10))
            dec = eig(a)
            recon = dec.q @ np.diag(dec.lam) @ dec.q.T
            assert np.max(np.abs(recon - a.a)) <= 1e-10 * (1 + a.norm())
            assert np.max(np.abs(dec.q.T @ dec.q - np.eye(n))) <= 1e-10
            assert np.all(np.diff(dec.lam) <= 1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(11)
        a = random_sym(rng, 6)
        d1, d2 = eig(a), eig(a)
        assert np.array_equal(d1.lam, d2.lam)
        assert np.array_equal(d1.q, d2.q)

    def test_sign_convention(self):
        dec = eig(SymMat([[0, 1], [1, 0]]))
        for j in range(2):
            col = dec.q[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] > 0

    def test_sign_convention_random(self):
        # Each column's first entry above 1e-12 in magnitude is positive,
        # also when the leading entries are nonzero but below 1e-12: a
        # rotation by 1e-13 radians in the (0, k) plane puts entries of
        # that size in row 0 of the eigenvectors of a block-diagonal matrix.
        rng = np.random.default_rng(11)
        tiny_leads = 0
        for n in range(1, 10):
            for _ in range(4):
                basis = np.eye(n)
                if n > 1:
                    basis[1:, 1:] = random_orthonormal(rng, n - 1)
                    k = int(rng.integers(1, n))
                    givens = np.eye(n)
                    c, s = np.cos(1e-13), np.sin(1e-13)
                    givens[[0, 0, k, k], [0, k, 0, k]] = c, -s, s, c
                    basis = givens @ basis
                lam = rng.permutation(np.arange(1.0, n + 1.0)) * rng.choice([-1.0, 1.0], n)
                dec = eig(SymMat(basis @ np.diag(lam) @ basis.T))
                for j in range(n):
                    col = dec.q[:, j]
                    nz = np.nonzero(np.abs(col) > 1e-12)[0]
                    assert col[nz[0]] > 0
                    tiny_leads += bool(0 < abs(col[0]) <= 1e-12)
        assert tiny_leads > 0

    def test_canonical_basis_of_coordinate_eigenspace(self):
        # A zero cluster on coordinates 4..6 gets e4, e5, e6 in order, and so
        # does a repeated eigenvalue between B's largest and smallest.
        rng = np.random.default_rng(5)
        b = random_sym(rng, 3).a
        b = b @ b.T + np.eye(3)
        a = np.zeros((6, 6))
        a[:3, :3] = b
        dec = eig(SymMat(a))
        assert np.allclose(dec.lam[3:], 0.0, atol=1e-12)
        assert np.allclose(dec.q[:, 3:], np.eye(6)[:, 3:], rtol=0, atol=1e-14)
        lam_b = np.linalg.eigvalsh(b)
        mid = float(lam_b[2] + lam_b[1]) / 2.0
        a[3:5, 3:5] = mid * np.eye(2)
        dec = eig(SymMat(a))
        assert np.allclose(dec.lam[1:3], mid, atol=1e-12)
        assert np.allclose(dec.q[:, 1:3], np.eye(6)[:, 3:5], rtol=0, atol=1e-14)
        assert np.allclose(dec.q[:, 5], np.eye(6)[:, 5], rtol=0, atol=1e-14)

    def test_canonical_basis_depends_only_on_eigenspace(self):
        # The same matrix assembled from two bases of its repeated
        # eigenspace: eig returns one basis for both.
        rng = np.random.default_rng(17)
        u = random_orthonormal(rng, 5)
        t = 0.7
        u2 = u.copy()
        u2[:, 1:3] = u[:, 1:3] @ np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        lam = np.diag([4.0, 1.5, 1.5, 1.5, -2.0])
        d1, d2 = eig(SymMat(u @ lam @ u.T)), eig(SymMat(u2 @ lam @ u2.T))
        assert np.allclose(d1.q, d2.q, atol=1e-10)
        cluster = d1.q[:, 1:4]
        assert np.allclose(cluster @ cluster.T, u[:, 1:4] @ u[:, 1:4].T, atol=1e-10)

    def test_canonical_basis_matches_the_deflation_loop(self):
        # The in-place deflation gives the bits of a loop that subtracts a
        # new np.outer each column, on random subspaces, on coordinate
        # subspaces (P a 0/1 diagonal) and on spans of (e_i ± e_j)/√2,
        # whose P has ties of 1/2 on its diagonal; each basis is rotated
        # within its span so the input is not already canonical.
        rng = np.random.default_rng(31)
        for trial in range(300):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(2, n + 1))
            kind = trial % 3
            if kind == 0:
                v = random_orthonormal(rng, n)[:, :k]
            elif kind == 1:
                v = np.eye(n)[:, np.sort(rng.choice(n, k, replace=False))]
            else:
                k = min(k, n // 2)
                idx = rng.permutation(n)
                v = np.zeros((n, k))
                for c in range(k):
                    v[idx[2 * c], c] = np.sqrt(0.5)
                    v[idx[2 * c + 1], c] = np.sqrt(0.5) * rng.choice([-1.0, 1.0])
            if k == 1:
                continue
            v = v @ random_orthonormal(rng, k)
            got = symmat._canonical_basis(v)
            want = canonical_basis_reference(v)
            assert got.tobytes() == want.tobytes(), (trial, kind, n, k)

    @pytest.mark.parametrize("n", [1, 3, 8, 24])
    def test_zero_matrix_short_cut(self, n, monkeypatch):
        # The zero matrix gives (0, I) without building a canonical basis,
        # bit for bit what the general path gives; -0.0 entries take that path.
        def refuse(v):
            raise AssertionError("canonical basis built for the zero matrix")

        general = eig(SymMat(np.full((n, n), -0.0)))
        general.q  # made on first read, so before _canonical_basis refuses
        monkeypatch.setattr(symmat, "_canonical_basis", refuse)
        dec = eig(SymMat.zero(n))
        assert dec.lam.tobytes() == np.zeros(n).tobytes()
        assert dec.q.tobytes() == np.eye(n).tobytes() == general.q.tobytes()
        assert np.array_equal(dec.lam, general.lam)
        assert not dec.lam.flags.writeable and not dec.q.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        for a in (SymMat([[bad]]), SymMat([[bad, 0], [0, 1]])):
            with pytest.raises(ValueError, match="non-finite"):
                eig(a)
            with pytest.raises(ValueError, match="non-finite"):
                classify_psd(a)
            with pytest.raises(ValueError, match="non-finite"):
                tan_contains(a, SymMat.zero(a.n))


def _planted_clusters() -> list[SymMat]:
    """The planted-cluster families of TestEig: repeated eigenvalues on
    coordinate and on rotated eigenspaces, the sign-convention family, and
    the all-zero, all -0.0, identity and random matrices."""
    rng = np.random.default_rng(5)
    b = random_sym(rng, 3).a
    b = b @ b.T + np.eye(3)
    coord = np.zeros((6, 6))
    coord[:3, :3] = b
    mid = coord.copy()
    lam_b = np.linalg.eigvalsh(b)
    mid[3:5, 3:5] = float(lam_b[2] + lam_b[1]) / 2.0 * np.eye(2)
    rng = np.random.default_rng(17)
    u = random_orthonormal(rng, 5)
    u2 = u.copy()
    u2[:, 1:3] = u[:, 1:3] @ np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    lam = np.diag([4.0, 1.5, 1.5, 1.5, -2.0])
    mats = [SymMat(coord), SymMat(mid), SymMat(u @ lam @ u.T), SymMat(u2 @ lam @ u2.T)]
    rng = np.random.default_rng(11)
    for n in range(1, 10):
        basis = np.eye(n)
        if n > 1:
            basis[1:, 1:] = random_orthonormal(rng, n - 1)
        lam = rng.permutation(np.arange(1.0, n + 1.0)) * rng.choice([-1.0, 1.0], n)
        mats.append(SymMat(basis @ np.diag(lam) @ basis.T))
        mats.append(SymMat(basis @ np.diag(np.repeat(lam[:1], n)) @ basis.T))
        mats.append(random_psd(rng, n, rank=n // 2))
    mats += [SymMat.zero(4), SymMat(np.full((4, 4), -0.0)), SymMat.identity(4)]
    return mats + [random_sym(rng, n) for n in (1, 2, 7, 24)]


def _assert_eager_bits(a: SymMat) -> None:
    lam, q = eager_eig_reference(a)
    dec = eig(a)
    assert dec.lam.tobytes() == lam.tobytes()
    assert dec.q.tobytes() == q.tobytes()


class TestLazyBasis:
    """eig cuts the clusters; the first read of ``q`` builds their bases
    and fixes the signs, bit for bit what the eager eig returned."""

    def test_a_decision_builds_no_basis(self, monkeypatch):
        # Rank 2 of order 5: a zero eigenvalue of multiplicity 3 on a
        # rotated eigenspace, whose basis a read of q would build.
        a = random_psd(np.random.default_rng(3), 5, rank=2)

        def refuse(v):
            raise AssertionError("canonical basis built for a decision")

        monkeypatch.setattr(symmat, "_canonical_basis", refuse)
        cls = classify_psd(a)
        assert (cls.tag, cls.rank) == (PsdTag.PSD_RANK_DEFICIENT, 2)
        assert abs(cls.evidence) <= 1e-12 * a.scale_factor()
        assert np.allclose(cls.dec.lam[2:], 0.0, atol=1e-12 * a.scale_factor())
        monkeypatch.undo()
        assert cls.dec.q.tobytes() == eager_eig_reference(a)[1].tobytes()

    @pytest.mark.parametrize("a", _planted_clusters())
    def test_q_is_the_eager_basis(self, a):
        _assert_eager_bits(a)

    def test_q_of_a_verify_op_is_the_eager_basis(self, tmp_path, monkeypatch):
        # Every matrix that one op of the benchmark's verify workload
        # decomposes: the rungs, their trailing blocks and the head.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        op = next(op for op in workloads.setup_verify(107, str(tmp_path))
                  if op.name == "07-normalize-valid-n22")
        seen, real = [], symmat.eig

        def recording(a):
            seen.append(a)
            return real(a)

        monkeypatch.setattr(symmat, "eig", recording)
        monkeypatch.setattr(facial, "eig", recording)
        op.check(op.run())
        monkeypatch.undo()
        assert len(seen) > 10
        for a in seen:
            _assert_eager_bits(a)

    def test_two_reads_give_one_read_only_array(self):
        dec = eig(random_psd(np.random.default_rng(3), 5, rank=2))
        q = dec.q
        assert dec.q is q and not q.flags.writeable and not dec.lam.flags.writeable
        with pytest.raises(AttributeError, match="SpectralDecomp is immutable"):
            dec.lam = dec.lam

    def test_a_given_basis_is_held(self):
        q, lam = np.eye(3), np.array([2.0, 1.0, 0.0])
        dec = SpectralDecomp(q=q, lam=lam)
        assert dec.q is q and dec.lam is lam and q.flags.writeable

    def test_threads_reading_q_at_once_get_the_eager_basis(self):
        # Four threads read the q of the same fresh decompositions,
        # switching often: each read must wait for the thread that makes
        # the basis, not make it a second time in place.
        mats = [m for m in _planted_clusters() if m.n > 3]
        want = [eager_eig_reference(a)[1].tobytes() for a in mats]
        decs = [eig(a) for a in mats]
        start, got = threading.Barrier(4, timeout=10), [[] for _ in range(4)]

        def read(out):
            start.wait()
            out.extend(dec.q.tobytes() for dec in decs)

        threads = [threading.Thread(target=read, args=(out,)) for out in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4


def _frozen(entries, dtype=float) -> np.ndarray:
    """An owned, read-only copy of ``entries``."""
    a = np.array(entries, dtype=dtype)
    a.flags.writeable = False
    return a


def _frozen_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, which stays writable."""
    v = a[:]
    v.flags.writeable = False
    return v


class TestStorage:
    """A SymMat holds a read-only, owned, C-contiguous, bitwise-symmetric
    float64 array within ±DBL_MAX/2 as it is; it copies and averages every
    other input as (A + Aᵀ)/2 in float64, halving first where A + Aᵀ would
    overflow."""

    def test_frozen_symmetric_array_is_held(self):
        rng = np.random.default_rng(37)
        g = rng.standard_normal((5, 5))
        a = g + g.T
        a[0, 1] = a[1, 0] = -0.0
        a[2, 3] = a[3, 2] = 5e-324
        a[4, 4] = np.finfo(float).max / 2.0
        a = _frozen(a)
        s = SymMat(a)
        assert s.a is a and SymMat(s.a).a is a
        assert s.a.tobytes() == ((a + a.T) / 2.0).tobytes()

    def test_view_of_a_frozen_array_is_copied_bit_for_bit(self):
        g = np.random.default_rng(41).standard_normal((4, 4))
        owner = _frozen(np.stack([g + g.T, np.eye(4)]))
        for x in (owner[0], owner[:][1]):
            s = SymMat(x)
            assert s.a.flags.owndata and not np.shares_memory(s.a, owner)
            assert s.a.tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "case", ["writable", "view_of_writable", "strided_view", "float32", "nonsymmetric",
                 "above_half_max", "list"]
    )
    def test_other_inputs_are_copied_and_averaged(self, case):
        rng = np.random.default_rng(41)
        g = rng.standard_normal((4, 4))
        sym = g + g.T
        big = np.nextafter(np.finfo(float).max / 2.0, np.inf)
        x = {
            "writable": lambda: sym.copy(),
            "view_of_writable": lambda: _frozen_view(sym.copy()),
            "strided_view": lambda: _frozen(np.stack([sym, sym], axis=1))[:, 0],
            "float32": lambda: _frozen(sym, np.float32),
            "nonsymmetric": lambda: _frozen(g),
            "above_half_max": lambda: _frozen(np.diag([big, 1.0, 2.0, 3.0])),
            "list": lambda: sym.tolist(),
        }[case]()
        if case != "list":
            assert x.flags.writeable == (case == "writable")
        want = np.array(x, dtype=float)
        with np.errstate(over="ignore"):
            want = (want + want.T) / 2.0
            s = SymMat(x)
        assert s.a is not x and not np.shares_memory(s.a, np.asarray(x))
        if case == "above_half_max":  # halved before the sum, which overflows
            want[0, 0] = big
        assert s.a.tobytes() == want.tobytes()
        assert not s.a.flags.writeable

    @pytest.mark.parametrize("entries, message", [
        (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.zeros((0, 0)), "matrix order must be at least 1"),
    ], ids=["not-square", "order-0"])
    def test_refuses_entries_of_the_wrong_shape(self, entries, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SymMat(entries)

    @pytest.mark.parametrize("name", ["_a", "a", "other"])
    def test_attributes_cannot_be_set(self, name):
        s = SymMat.identity(2)
        with pytest.raises(AttributeError, match="SymMat is immutable"):
            setattr(s, name, np.zeros((2, 2)))
        assert s.a.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_repr_names_the_order(self):
        assert repr(SymMat.zero(3)) == "SymMat(n=3)"

    def test_writing_to_the_input_leaves_the_matrix(self):
        x = np.array([[1.0, 2.0], [2.0, 3.0]])
        s = SymMat(x)
        x[0, 1] = x[1, 0] = 7.0
        x[0, 0] = -1.0
        assert s.a.tolist() == [[1.0, 2.0], [2.0, 3.0]]


class TestClassify:
    def test_rank_deficient(self):
        cls = classify_psd(SymMat.diag([1, 1, 0]))
        assert cls.tag == PsdTag.PSD_RANK_DEFICIENT
        assert cls.rank == 2

    def test_indefinite_objective_matrix(self):
        # Closed form: eigenvalues of [[0,1,0],[1,0,0],[0,0,0]] are 1, -1, 0.
        c = SymMat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.allclose(eig(c).lam, [1, 0, -1], atol=1e-12)
        cls = classify_psd(c)
        assert cls.tag == PsdTag.NOT_PSD
        assert cls.evidence == pytest.approx(-1.0)

    def test_identity_positive_definite(self):
        cls = classify_psd(SymMat.identity(4))
        assert cls.tag == PsdTag.POSITIVE_DEFINITE

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            q = random_orthonormal(rng, n)
            c1, c2 = classify_psd(a), classify_psd(rotate(a, q))
            assert (c1.tag, c1.rank) == (c2.tag, c2.rank)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_psd(SymMat.identity(2), eps_psd=0.0)


class TestRotate:
    def test_identity_rotation(self):
        a = SymMat([[1, 2], [2, 3]])
        assert rotate(a, np.eye(2)).allclose(a, tol=0.0)

    def test_permutation(self):
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = rotate(SymMat.diag([0, 1]), perm)
        assert np.allclose(out.a, np.diag([1.0, 0.0]))

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            s, t = random_sym(rng, n), random_sym(rng, n)
            q = random_orthonormal(rng, n)
            assert rotate(s, q).inner(rotate(t, q)) == pytest.approx(
                s.inner(t), abs=1e-10 * (1 + s.norm() * t.norm())
            )

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NonOrthonormalError):
            rotate(SymMat.identity(2), np.array([[1.0, 0.0], [0.5, 1.0]]))

    @pytest.mark.parametrize("q, error, message", [
        (np.eye(3)[:, :2], NonOrthonormalError, "rotation must be square, got shape (3, 2)"),
        (np.eye(3), ValueError, "rotation order does not match matrix order"),
    ], ids=["not-square", "wrong-order"])
    def test_rejects_a_rotation_of_the_wrong_shape(self, q, error, message):
        with pytest.raises(error, match=re.escape(message)):
            rotate(SymMat.identity(2), q)


class TestTangent:
    def test_zero_always_member(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            u = random_psd(rng, 4, rank=int(rng.integers(0, 5)))
            assert tan_contains(u, SymMat.zero(4)).member

    def test_structured_member(self):
        u1 = SymMat.diag([1, 0, 0])
        v2 = SymMat([[-1, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert tan_contains(u1, v2).member
        w = tangent_witness(u1, v2)
        assert np.max(np.abs(w.w + w.w.T - v2.a)) <= 1e-10 * (1 + v2.norm())
        assert classify_psd(w.block_matrix(u1)).is_psd

    def test_tangent_of_zero_is_zero(self):
        u = SymMat.zero(3)
        v = SymMat.from_outer([1, 0, 0])
        res = tan_contains(u, v)
        assert not res.member
        i, j, mag = res.violation
        assert (i, j) == (0, 0) and mag == pytest.approx(1.0)

    def test_not_psd_input_rejected(self):
        with pytest.raises(NotPsdInputError):
            tan_contains(SymMat.diag([1, -1]), SymMat.zero(2))

    def test_planted_violations(self):
        # Plant one entry in the trailing block of U's eigenbasis: NotMember;
        # zero it out: Member.  Construction guarantees the ground truth.
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n))
            q = random_orthonormal(rng, n)
            lam = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
            lam[r:] = 0.0
            u = SymMat(q @ np.diag(lam) @ q.T)
            v_rot = np.zeros((n, n))
            v_rot[:r, :] = rng.standard_normal((r, n))
            v_rot = (v_rot + v_rot.T) / 2  # member pattern in the eigenbasis
            i = int(rng.integers(r, n))
            j = int(rng.integers(r, n))
            planted = v_rot.copy()
            planted[i, j] = planted[j, i] = rng.uniform(0.5, 2.0)
            v_bad = SymMat(q @ planted @ q.T)
            v_good = SymMat(q @ v_rot @ q.T)
            assert not tan_contains(u, v_bad).member
            assert tan_contains(u, v_good).member
            w = tangent_witness(u, v_good)
            assert np.max(np.abs(w.w + w.w.T - v_good.a)) <= 1e-9 * (1 + v_good.norm())
            assert classify_psd(w.block_matrix(u)).is_psd

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            u = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            v = random_sym(rng, n)
            q = random_orthonormal(rng, n)
            assert tan_contains(u, v).member == tan_contains(
                rotate(u, q), rotate(v, q)
            ).member

    def test_pd_leading_block_accepts_bordered(self):
        # U with PD leading block accepts exactly the matrices supported on
        # the leading rows/columns (both directions of the shape result).
        rng = np.random.default_rng(23)
        for _ in range(20):
            n, k = 5, int(rng.integers(1, 5))
            u_lead = random_psd(rng, k) + 0.1 * SymMat.identity(k)
            u = u_lead.embed(n, 0)
            v = np.zeros((n, n))
            v[:k, :] = rng.standard_normal((k, n))
            v = SymMat(v + v.T)
            assert tan_contains(u, v).member

    @pytest.mark.parametrize("rank", ["full", "partial", "zero"])
    def test_class_stands_for_its_matrix(self, rank):
        # Each tangent-space test gives the same result for U and for
        # classify_psd(U): members and non-members of tan(U) and of S₊ + tan(U).
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            r = {"full": n, "partial": int(rng.integers(1, n)), "zero": 0}[rank]
            u = random_psd(rng, n, rank=r)
            ucls = classify_psd(u)
            m = rng.standard_normal((n, n))
            member = SymMat(u.a @ m + m.T @ u.a)  # Qₙᵀ(UM + MᵀU)Qₙ = 0
            for v in (member, random_sym(rng, n)):
                got, want = tan_contains(ucls, v), tan_contains(u, v)
                assert got.member == want.member and got.violation == want.violation
                if want.member:
                    got_w, want_w = tangent_witness(ucls, v), tangent_witness(u, v)
                    assert np.array_equal(got_w.w, want_w.w)
                    assert np.array_equal(got_w.r.a, want_w.r.a)
            z = random_psd(rng, n) + member
            for cand in (z, random_sym(rng, n)):
                assert psd_plus_tan_contains(ucls, cand) == psd_plus_tan_contains(u, cand)
            (p1, v1), (p2, v2) = split_psd_plus_tan(ucls, z), split_psd_plus_tan(u, z)
            assert np.array_equal(p1.a, p2.a) and np.array_equal(v1.a, v2.a)

    def test_witness_bits_on_the_registry_rungs(self):
        # SHA-256 of W then R for each rung V_i ∈ tan(U_{i-1}) of every
        # registry ladder (U_0 = 0), as tan_contains(...).witness gave them
        # when the membership test built the witness.
        digest = hashlib.sha256()
        count = 0
        for eid in registry.all_ids():
            entry = registry.get(eid)
            for rc in entry.certificates:
                if rc.cert is None:
                    continue
                prev = SymMat.zero(entry.instance.n)
                for rung in rc.cert.ladder:
                    w = tangent_witness(prev, rung.v)
                    digest.update(w.w.tobytes())
                    digest.update(w.r.a.tobytes())
                    count += 1
                    prev = rung.u
        assert count == 16
        assert digest.hexdigest() == (
            "e959ae5701e9734d82191e9eddefe733679e268c0f5b0d3b656583d22ed78de0"
        )

    def test_witness_of_a_non_member_refused(self):
        u = SymMat.diag([1, 0, 0])
        for v in (SymMat.diag([0, 0, 1]), SymMat.diag([0, 1, 0])):
            assert not tan_contains(u, v).member
            with pytest.raises(
                ValueError, match="certificate rung fails tangent membership; cannot embed"
            ):
                tangent_witness(u, v)
            with pytest.raises(ValueError, match="cannot embed"):
                tangent_witness(classify_psd(u), v)
        with pytest.raises(ValueError, match="cannot embed"):
            tangent_witness(SymMat.zero(3), SymMat.identity(3))

    def test_class_refusals(self):
        not_psd = classify_psd(SymMat.diag([1, -1]))
        order3 = classify_psd(SymMat.diag([1, 0, 0]))
        for op in (tan_contains, psd_plus_tan_contains, split_psd_plus_tan):
            with pytest.raises(NotPsdInputError):
                op(not_psd, SymMat.zero(2))
            with pytest.raises(ValueError, match="same order"):
                op(order3, SymMat.zero(2))
