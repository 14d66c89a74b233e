"""SDPA sparse files and certificate files."""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from ramanasdp import (
    ParseError,
    SdpInstance,
    SymMat,
    UnsupportedBlockStructureError,
    build_dram,
    dram_size,
    instance_digest,
    instances_close,
    number_digest,
    read_sdpa,
    write_sdpa,
)
from ramanasdp.certfile import (
    CertificateFormatError,
    InstanceHashMismatchError,
    check_instance_binding,
    certificate_to_text,
    parse_certificate_text,
    read_certificate,
    to_ramana_certificate,
    to_strong_point,
    write_certificate,
)
from ramanasdp import certfile, sdpa
from ramanasdp.builders import (
    Assignment,
    PsdBlock,
    build_alt_ram,
    build_dstrong,
    build_pram,
    embed_certificate,
    objective_value,
    residuals,
)
from ramanasdp.sdpa import (
    instance_to_sdpa_text,
    read_sdpa_text,
    standard_form_to_sdpa_text,
    varmap_sidecar_text,
)
from ramanasdp import (
    StrongDualSpec, build_rr_form, lift_from_strong, pad_ladder, registry, verify_certificate,
    verify_dram,
)
from ramanasdp.verify import LadderRung, RamanaCertificate, ShapeMismatchError, leading_zero_rungs

from helpers import (
    dense_rows,
    inst_gap_raw,
    inst_gap_rr,
    inst_unattained,
    ladder_verdicts,
    padded_certificate_text,
    random_degenerate_instance,
    random_instance,
    random_orthonormal,
    random_psd,
    reference_residuals,
    random_sym,
    read_bound,
    table_system,
    through_text,
)


class TestSdpaRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        inst = inst_unattained()
        path = tmp_path / "a.dat-s"
        write_sdpa(inst, str(path))
        back = read_sdpa(str(path))
        assert instances_close(inst, back, tol=0.0)

    def test_round_trip_all_registry_instances(self, tmp_path):
        for make in (inst_unattained, inst_gap_raw, inst_gap_rr):
            inst = make()
            path = tmp_path / "x.dat-s"
            write_sdpa(inst, str(path))
            assert instances_close(inst, read_sdpa(str(path)), tol=0.0)

    def test_fractional_values_round_trip(self, tmp_path):
        inst = SdpInstance.from_arrays(
            [[[0.1, 1 / 3], [1 / 3, 0]]], [0.7], [[1e-17, 0], [0, -2.5]]
        )
        path = tmp_path / "f.dat-s"
        write_sdpa(inst, str(path))
        assert instances_close(inst, read_sdpa(str(path)), tol=0.0)

    def test_write_deterministic(self, tmp_path):
        inst = inst_gap_raw()
        p1, p2 = tmp_path / "1.dat-s", tmp_path / "2.dat-s"
        write_sdpa(inst, str(p1))
        write_sdpa(inst, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSdpaParse:
    def test_handwritten_order1(self):
        text = "1\n1\n1\n5.0\n0 1 1 1 2.0\n1 1 1 1 1.0\n"
        inst = read_sdpa_text(text)
        assert inst.n == 1 and inst.m == 1
        assert inst.c.a[0, 0] == 2.0
        assert inst.a[0].a[0, 0] == 1.0
        assert inst.b[0] == 5.0

    def test_lower_triangle_entry_rejected(self):
        text = "1\n1\n2\n0.0\n1 1 2 1 1.0\n"
        with pytest.raises(ParseError) as err:
            read_sdpa_text(text)
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1\n1\n2\n1.0\n1 1 0 1 5.0\n", 5),  # row index 0 would wrap to -1
            ("3\n1\n2\n1.0 2.0\n", 4),  # right-hand side runs out
            ("1\n1\n1\nnan\n1 1 1 1 1.0\n", 4),
            ("2\n1\n1\n1.0\n-inf\n1 1 1 1 1.0\n", 5),
            ("1\n1\n1\n1.0\n1 1 1 1 inf\n", 5),
            ("1\n1\n1\n1.0\n0 1 1 1 1e400\n", 5),  # overflows to inf
            ("1\n1\n2\n1.0\n0 1 1 2 1.0\n1 1 1 1 2.0\n0 1 1 2 2.0\n", 7),
            (",\n1\n1\n1.0\n1 1 1 1 1.0\n", 1),  # nothing left once "," is removed
            ("1\n,\n1\n1.0\n1 1 1 1 1.0\n", 2),
        ],
        ids=[
            "row-index-zero",
            "truncated-rhs",
            "nan-rhs",
            "inf-rhs-second-line",
            "inf-entry",
            "overflowing-entry",
            "repeated-entry",
            "empty-constraint-count",
            "empty-block-count",
        ],
    )
    def test_malformed_input_rejected(self, text, line):
        with pytest.raises(ParseError) as err:
            read_sdpa_text(text)
        assert err.value.line == line

    def test_comments_skipped(self):
        text = '* comment\n"another\n1\n1\n1\n0.0\n1 1 1 1 1.0\n'
        inst = read_sdpa_text(text)
        assert inst.m == 1

    def test_diagonal_blocks(self):
        # Two diagonal blocks of sizes 2 and 1: order-3 diagonal matrices.
        text = "1\n2\n-2 -1\n1.0\n0 1 1 1 3.0\n0 2 1 1 4.0\n1 1 2 2 5.0\n"
        inst = read_sdpa_text(text)
        assert inst.n == 3
        assert np.allclose(inst.c.a, np.diag([3.0, 0.0, 4.0]))
        assert np.allclose(inst.a[0].a, np.diag([0.0, 5.0, 0.0]))

    def test_multi_dense_blocks_unsupported(self):
        text = "1\n2\n2 2\n0.0\n1 1 1 1 1.0\n"
        with pytest.raises(UnsupportedBlockStructureError):
            read_sdpa_text(text)

    def test_braced_block_sizes(self):
        text = "1\n2\n{-2, -1}\n1.0\n1 1 1 1 1.0\n"
        inst = read_sdpa_text(text)
        assert inst.n == 3

    def test_missing_file(self):
        with pytest.raises(IOError):
            read_sdpa("/nonexistent/path.dat-s")


class TestEmittedSdpa:
    def test_block_count_matches_formula(self, tmp_path):
        inst = inst_unattained()
        sdp = build_dram(inst)
        path = tmp_path / "dram.dat-s"
        write_sdpa(sdp, str(path))
        lines = path.read_text().splitlines()
        nblocks = int(lines[1])
        psd_blocks, free = dram_size(3, 3)
        assert nblocks == psd_blocks + 1  # one diagonal block for free scalars
        sizes = [int(t) for t in lines[2].split()]
        assert sizes[-1] == -2 * free
        assert (tmp_path / "dram.dat-s.varmap").exists()

    def test_emitted_write_deterministic(self, tmp_path):
        sdp = build_dram(inst_gap_rr())
        p1, p2 = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
        write_sdpa(sdp, str(p1))
        write_sdpa(sdp, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.dat-s.varmap").read_bytes() == (
            tmp_path / "b.dat-s.varmap"
        ).read_bytes()


def _reference_entries(matno, blkno, mat, out):
    rows, cols = np.nonzero(np.triu(mat))
    for i, j, v in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()):
        out.append(f"{matno} {blkno} {i + 1} {j + 1} {v!r}")


def _reference_instance_text(inst):
    """The per-matrix writer that the chunked core replaced."""
    out = [str(inst.m), "1", str(inst.n), " ".join(repr(float(v)) for v in inst.b)]
    for t, mat in enumerate((inst.c,) + tuple(inst.a)):
        _reference_entries(t, 1, mat.a, out)
    return "\n".join(out) + "\n"


def _reference_system_text(sdp):
    """The same writer for emitted systems.  It formats the dense matrices
    and free rows of each row, and the objective's free row."""
    rows, objective = dense_rows(sdp)
    sizes = [str(b.order) for b in sdp.blocks] + ([str(-2 * sdp.n_free)] if sdp.n_free else [])
    out = [str(len(rows)), str(len(sizes)), " ".join(sizes)]
    out.append(" ".join(repr(row.rhs) for row in rows.values()))
    sign = 1.0 if sdp.sense == "max" else -1.0
    index = {b.name: i + 1 for i, b in enumerate(sdp.blocks)}
    for t, (row, s) in enumerate([(objective, sign)] + [(row, 1.0) for row in rows.values()]):
        for name in sorted(row.mats, key=index.get):
            _reference_entries(t, index[name], s * row.mats[name], out)
        for j in np.flatnonzero(row.free).tolist():
            c, blk, jj = s * float(row.free[j]), len(sdp.blocks) + 1, sdp.n_free + j + 1
            out += [f"{t} {blk} {j + 1} {j + 1} {c!r}", f"{t} {blk} {jj} {jj} {-c!r}"]
    return "\n".join(out) + "\n"


# Repeated values, signed zeros and values without a short decimal form.
_VALUES = np.array([0.0, -0.0, 0.0, 1.0, -2.5, 0.1, 1 / 3, -1e-17, 7.0])


def _value_matrix(rng, order):
    a = rng.choice(_VALUES, (order, order))
    lower = np.tril_indices(order, -1)
    a[lower] = a.T[lower]  # copying keeps the signed zeros of the upper triangle
    return a


def _hand_system(rng, n_cons, n_free, sense, objective_free):
    """Constraints whose first half is all zero, so that a chunk of the
    writer reaches its row bound, and whose second half cycles through an
    all-zero row, a row with an empty free row, a row on every block, and
    a row with no blocks.  Each row has matrices and a free row of its own,
    and the objective a free row of its own."""
    blocks = (PsdBlock("A", 3), PsdBlock("B", 1), PsdBlock("C", 4))
    mats, frees, rows = [], [], []

    def add(table, x):
        table.append(x)
        return len(table) - 1

    for t in range(n_cons):
        kind = t % 4 if 2 * t >= n_cons else 0
        if kind == 0:
            cols, free = [(0, np.zeros((3, 3))), (2, -np.zeros((4, 4)))], -np.zeros(n_free)
        elif kind == 1:
            cols, free = [(2, _value_matrix(rng, 4))], np.zeros(0)
        elif kind == 2:
            cols = [(b, _value_matrix(rng, blocks[b].order)) for b in range(3)]
            free = rng.choice(_VALUES, n_free)
        else:
            cols, free = [], rng.choice(_VALUES, n_free)
        cols = [(b, add(mats, k)) for b, k in cols]
        rows.append((f"c{t}", cols, add(frees, free), 0, float(rng.choice(_VALUES))))
    return table_system(blocks, n_free, mats, frees, rows, add(frees, objective_free), sense)


_BUILDERS = {
    "dram": build_dram,
    "altram": build_alt_ram,
    "pram": build_pram,
    "dstrong": lambda inst: build_dstrong(
        inst, StrongDualSpec(q=random_orthonormal(np.random.default_rng(1), inst.n), r=2)
    ),
}


class TestChunkedWriter:
    @pytest.mark.parametrize("builder", sorted(_BUILDERS))
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_builder_output_matches_reference(self, builder, n):
        inst = random_degenerate_instance(np.random.default_rng(n), n, n, (1, 1))[0]
        sdp = _BUILDERS[builder](inst)
        assert standard_form_to_sdpa_text(sdp) == _reference_system_text(sdp)
        assert instance_to_sdpa_text(inst) == _reference_instance_text(inst)

    @pytest.mark.parametrize("sense", ["max", "min"])
    @pytest.mark.parametrize("objective_free", ["zero", "nonzero"])
    def test_hand_built_system_matches_reference(self, sense, objective_free):
        rng = np.random.default_rng(7)
        n_free = 5
        free = rng.choice(_VALUES, n_free) if objective_free == "nonzero" else np.zeros(n_free)
        sdp = _hand_system(rng, 2 * sdpa._CHUNK_ROWS + 3, n_free, sense, free)
        text = standard_form_to_sdpa_text(sdp)
        assert text == _reference_system_text(sdp)
        written = {line.rsplit(" ", 1)[1] for line in text.splitlines()[4:]}
        assert not written & {"0.0", "-0.0"}

    def test_rows_sharing_arrays_across_chunks(self):
        # One sparse matrix and one sparse free vector, each used by more
        # than 2·_CHUNK_ROWS constraints (the matrix in either block), the
        # free vector also, negated, by the objective, between all-zero and
        # -0.0 rows: text formatted for one row or chunk must not leak into
        # another.
        rng = np.random.default_rng(11)
        mat, free = _value_matrix(rng, 3), [0.1, -2.5, 0.0, 1 / 3, 0.1, -1e-17]
        # Matrix 0 and free row 0 are mat and free; matrix 1 and free row 1
        # are all zero.
        cycle = [([(0, 0), (1, 1)], 0), ([(0, 1)], 1), ([(0, 1), (1, 0)], 0), ([], 1)]
        rows = [(f"c{t}", *cycle[t % 4], 0, 1.0) for t in range(5 * sdpa._CHUNK_ROWS)]
        sdp = table_system(
            (PsdBlock("A", 3), PsdBlock("B", 3)), len(free), [mat, -np.zeros((3, 3))],
            [free, np.zeros(len(free))], rows, 0,
        )
        uses = np.count_nonzero(sdp.entry_coeff == 0)
        assert uses > 2 * sdpa._CHUNK_ROWS and np.count_nonzero(sdp.row_free == 0) == uses
        assert standard_form_to_sdpa_text(sdp) == _reference_system_text(sdp)

    def test_free_values_at_the_float_edges(self):
        # The writer flips the sign of a value's text for its -c_j line; the
        # reference formats -c_j itself.
        free = np.array([5e-324, -1e-320, 1e308, -0.1, 1 / 3, 0.0])
        one = np.ones((1, 1))
        sdp = table_system(
            (PsdBlock("A", 1),), free.size, [one], [free], [("c", [(0, 0)], 0, 0, 1.0)], 0,
        )
        assert standard_form_to_sdpa_text(sdp) == _reference_system_text(sdp)

    @pytest.mark.parametrize("kind", ["several-chunks", "all-zero"])
    def test_instance_matches_reference(self, kind):
        rng = np.random.default_rng(3)
        if kind == "all-zero":
            inst = SdpInstance.from_arrays([-np.zeros((2, 2))] * 3, np.zeros(3), np.zeros((2, 2)))
        else:
            mats = [_value_matrix(rng, 3) for _ in range(sdpa._CHUNK_ROWS + 1)]
            mats.append(-np.zeros((3, 3)))
            inst = SdpInstance.from_arrays(
                mats, rng.choice(_VALUES, len(mats)), _value_matrix(rng, 3)
            )
        assert instance_to_sdpa_text(inst) == _reference_instance_text(inst)

    def test_streamed_file_equals_text(self, tmp_path):
        inst = random_degenerate_instance(np.random.default_rng(5), 8, 8, (2, 1))[0]
        sdp = build_dram(inst)
        write_sdpa(sdp, str(tmp_path / "s.dat-s"))
        assert (tmp_path / "s.dat-s").read_bytes() == standard_form_to_sdpa_text(sdp).encode()
        assert (tmp_path / "s.dat-s.varmap").read_bytes() == varmap_sidecar_text(sdp).encode()
        write_sdpa(inst, str(tmp_path / "i.dat-s"))
        assert (tmp_path / "i.dat-s").read_bytes() == instance_to_sdpa_text(inst).encode()

    def test_failed_write_leaves_no_file(self, tmp_path):
        sdp = _hand_system(np.random.default_rng(2), 2 * sdpa._CHUNK_ROWS, 3, "max", np.ones(3))
        # StandardFormSdp refuses a matrix id outside its table; set past
        # that check, the last row's id makes the write fail after its
        # first chunks.
        ids = sdp.entry_coeff.copy()
        ids[-1] = sdp.coeff_order.size
        object.__setattr__(sdp, "entry_coeff", ids)
        path = tmp_path / "bad.dat-s"
        with pytest.raises(IndexError):
            write_sdpa(sdp, str(path))
        assert not path.exists()

    def test_failed_sidecar_write_leaves_no_data_file(self, tmp_path):
        # A directory where the .varmap goes: the data file is written
        # first, and is removed when its sidecar cannot be.
        inst = random_degenerate_instance(np.random.default_rng(0), 18, 5, (2, 1, 1))[0]
        path = tmp_path / "dram.dat-s"
        (tmp_path / "dram.dat-s.varmap").mkdir()
        with pytest.raises(OSError, match="cannot write"):
            write_sdpa(build_dram(inst), str(path))
        assert not path.exists()


# SHA-256 of the SDPA text followed by the .varmap text of each builder's
# system for random_degenerate_instance(default_rng(n), n, 4, (2, 1, 1)).
# Each text spans dozens of writer chunks, and its values repeat across them.
GOLDEN_RANDOM_EMISSION = {
    ("altram", 12): "065914e2852275d5821bf56d259bbcc28577624637593005a4919505cf4ab834",
    ("dram", 12): "5d508df50a1352e61cd221c5d0a974272b405dc2229d44346558f759c33796e6",
    ("dstrong", 12): "980f97043c4fcf09c62f2f5024d1bca083f97ae54e29ce100f4197571dad3337",
    ("pram", 12): "78ed0cccb3a82f27b974cd9b0634b165a640c5b5fc4281fca02ecec12b9246c1",
    ("altram", 18): "6b3b1299fe99f3a9eff4baa3559af90073edc161b27cc65ced251d1d71c4daa1",
    ("dram", 18): "ce6ebd6279a026cb4afa56865650ced4b5699af3e21685a7a4b58c51166623f2",
    ("dstrong", 18): "20bd921ef10724e02e259a93d4cccfd33a138ea398e577e197439c4d360a5067",
    ("pram", 18): "4cafca9bb076a657dcdcfdddd42328f2cdfa28d8aa9b7380e5b83189991332ba",
}


@pytest.mark.parametrize("builder, n", sorted(GOLDEN_RANDOM_EMISSION))
def test_random_emission_is_byte_identical(builder, n):
    inst = random_degenerate_instance(np.random.default_rng(n), n, 4, (2, 1, 1))[0]
    sdp = _BUILDERS[builder](inst)
    text = standard_form_to_sdpa_text(sdp) + varmap_sidecar_text(sdp)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RANDOM_EMISSION[builder, n]


@pytest.mark.parametrize("builder, n", sorted(GOLDEN_RANDOM_EMISSION))
def test_residuals_agree_with_the_reference_loop(builder, n):
    # The gather and bincount over the tables against one product per
    # stored entry: at a random assignment, and at dram's certificate.
    inst, y0, _ = random_degenerate_instance(np.random.default_rng(n), n, 4, (2, 1, 1))
    sdp = _BUILDERS[builder](inst)
    rng = np.random.default_rng(n)
    blocks = {b.name: random_sym(rng, b.order).a for b in sdp.blocks}
    asgs = [Assignment(blocks=blocks, free=rng.standard_normal(sdp.n_free))]
    if builder == "dram":
        cert = lift_from_strong(inst, y0, build_rr_form(inst))
        asgs.append(embed_certificate(sdp, inst, cert))
    for asg in asgs:
        want, scale = reference_residuals(sdp, asg)
        assert np.all(np.abs(residuals(sdp, asg) - want) <= 1e-12 * scale)
    obj = dense_rows(sdp)[1].free
    want = obj @ asgs[0].free
    assert abs(objective_value(sdp, asgs[0]) - want) <= 1e-12 * np.abs(obj).sum()


def _ladder_cert():
    return RamanaCertificate(
        system="dram",
        y=np.zeros(3),
        ladder=(
            LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0]), v=SymMat.zero(3)),
            LadderRung(
                y=np.array([0.0, 1, 0]),
                u=SymMat.diag([1, 1, 0]),
                v=SymMat([[-1, 0, 1], [0, 0, 0], [1, 0, 0]]),
            ),
        ),
        claimed_value=0.0,
    )


class TestCertificateFiles:
    def test_round_trip_ladder(self, tmp_path):
        inst = inst_unattained()
        cert = _ladder_cert()
        path = tmp_path / "c.cert"
        write_certificate(str(path), inst, "dram", cert=cert, claimed_value=0.0)
        cf = read_certificate(str(path))
        check_instance_binding(cf, inst)
        back = to_ramana_certificate(cf, inst)
        assert np.array_equal(back.y, cert.y)
        assert back.claimed_value == 0.0
        for r1, r2 in zip(back.ladder, cert.ladder):
            assert np.array_equal(r1.y, r2.y)
            assert r1.u.allclose(r2.u, tol=0.0)
            assert r1.v.allclose(r2.v, tol=0.0)

    def test_round_trip_strong(self, tmp_path):
        inst = inst_gap_rr()
        spec = StrongDualSpec(q=np.eye(4), r=2)
        path = tmp_path / "s.cert"
        write_certificate(
            str(path), inst, "dstrong", spec=spec, point=np.array([0.0, 0, 1])
        )
        cf = read_certificate(str(path))
        spec2, y = to_strong_point(cf)
        assert spec2.r == 2 and np.array_equal(spec2.q, spec.q)
        assert np.array_equal(y, [0.0, 0, 1])

    def test_short_ladder_records_are_the_last_rungs(self):
        # A file whose records run y1, U1, V1 .. yk, Uk, Vk with k < n - 1 is
        # read as the last k rungs, so record j is rung n - 1 - k + j.  Here
        # n = 4 and k = 2: a broken U1 is reported at rung 2.
        entry = registry.get("example-2.5-rr")
        inst = entry.instance
        cert = next(rc.cert for rc in entry.certificates if rc.name == "exact-dual-ladder")
        short = dataclasses.replace(cert, ladder=cert.ladder[1:])
        text = certificate_to_text(inst, "dram", cert=short)
        assert "matrix U3" not in text
        assert verify_dram(inst, to_ramana_certificate(parse_certificate_text(text), inst)).ok
        bad = text.replace("matrix U1 4\n1.0 ", "matrix U1 4\n-1.0 ")
        assert bad != text
        out = verify_dram(inst, to_ramana_certificate(parse_certificate_text(bad), inst))
        assert out.violation == "rung 2: 𝒜*y^2 != U_2 + V_2"

    def test_entry_above_half_max_is_read_as_written(self):
        # A finite entry above DBL_MAX/2 in magnitude: a + aᵀ overflows, so
        # SymMat halves first there, and only there.  The file's U was read
        # with an inf entry; now it is read as written, and refused because
        # its norm, which scales every tolerance, overflows.
        big, tiny = 1.5e308, 5e-324
        entry = registry.get("example-2.5-rr")
        inst = entry.instance
        cert = next(rc.cert for rc in entry.certificates if rc.name == "exact-dual-ladder")
        text = certificate_to_text(inst, "dram", cert=cert)
        text = text.replace("matrix U1 4\n1.0 ", "matrix U1 4\n1.5e308 ")
        with np.errstate(over="ignore"):  # the sums overflow
            avg = SymMat([[big, 1.7e308], [1.5e308, tiny]]).a.tolist()
            read = to_ramana_certificate(parse_certificate_text(text), inst)
        assert avg == [[big, 1.6e308], [1.6e308, tiny]]
        assert [rung.u.a[0, 0] for rung in read.ladder] == [big, 1.0]
        with pytest.raises(ValueError, match="rung 1 U has a non-finite entry or norm"):
            verify_dram(inst, read)

    def test_hash_binding_rejects_wrong_instance(self, tmp_path):
        path = tmp_path / "c.cert"
        write_certificate(str(path), inst_unattained(), "dram", cert=_ladder_cert())
        cf = read_certificate(str(path))
        with pytest.raises(InstanceHashMismatchError):
            check_instance_binding(cf, inst_gap_rr())

    def test_digest_stable(self):
        assert instance_digest(inst_unattained()) == instance_digest(inst_unattained())
        assert instance_digest(inst_unattained()) != instance_digest(inst_gap_rr())

    def test_malformed_header(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate_text("not a certificate\n")

    @pytest.mark.parametrize("record", ["value", "scalar", "vector", "matrix"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, record, bad):
        lines = certificate_to_text(
            inst_gap_rr(), "dstrong", spec=StrongDualSpec(q=np.eye(4), r=2),
            point=np.array([0.0, 0.0, 1.0]), claimed_value=1.0,
        ).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(record))
        if record in ("value", "scalar"):
            toks = lines[at].split()
            lines[at] = " ".join(toks[:-1] + [bad])
        else:
            toks = lines[at + 1].split()
            lines[at + 1] = " ".join([bad] + toks[1:])
        with pytest.raises(CertificateFormatError, match="non-finite"):
            parse_certificate_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("record", ["n 3", "vector y1 3"])
    def test_repeated_record_rejected(self, record):
        lines = certificate_to_text(inst_unattained(), "dram", cert=_ladder_cert()).splitlines()
        at = lines.index(record)
        copy = lines[at : at + (2 if record.startswith("vector") else 1)]
        with pytest.raises(CertificateFormatError, match="repeated record"):
            parse_certificate_text("\n".join(lines + copy) + "\n")

    @pytest.mark.parametrize(
        "system, record, line, match",
        [
            ("dstrong", "vector y", "vector y", "not 'vector <name> <length>'"),
            ("dstrong", "scalar r", "scalar r", "not 'scalar <name> <value>'"),
            ("pstrong", "matrix X", "matrix X", "not 'matrix <name> <length>'"),
            ("dstrong", "vector y", "vector y three", "vector y: length 'three' is not an integer"),
            ("pstrong", "matrix X", "matrix X 4.5", "matrix X: length '4.5' is not an integer"),
        ],
        ids=[
            "vector-no-length", "scalar-no-value", "matrix-no-length", "word-length", "float-length",
        ],
    )
    def test_truncated_record_rejected(self, system, record, line, match):
        point = np.array([0.0, 0.0, 1.0]) if system == "dstrong" else SymMat.identity(4)
        lines = certificate_to_text(
            inst_gap_rr(), system, spec=StrongDualSpec(q=np.eye(4), r=2), point=point
        ).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(record + " "))
        lines[at] = line
        with pytest.raises(CertificateFormatError, match=match):
            parse_certificate_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "system, line, at, new, match",
        [
            ("dstrong", "n 4", 0, "n x", "header field n: 'x' is not an integer"),
            ("dstrong", "m 3", 0, "m 3.0", "header field m: '3.0' is not an integer"),
            ("dstrong", "vector y 3", 1, "0.0 abc 1.0", "vector y: .*'abc'"),
            ("dstrong", "scalar r 2", 0, "scalar r two", "scalar r: .*'two'"),
            ("pstrong", "matrix X 4", 0, "matrix X -1", "matrix X: length -1 is negative"),
            ("pstrong", "matrix Q 4", 0, "matrix Q -4", "matrix Q: length -4 is negative"),
            ("pstrong", "matrix X 4", 2, "0.0 1.0 0.0", "matrix X: ragged row"),
            ("dstrong", "vector y 3", 1, "0.0 1.0", "vector y: expected 3 values, got 2"),
            ("dstrong", "vector y 3", 1, "0.0 1.0 0.0 1.0", "vector y: expected 3 values, got 4"),
            # comments=None: a '#' is a bad token, not the start of a comment
            # that would cut the row short.
            ("dstrong", "vector y 3", 1, "0.0 1.0 # 1.0", "vector y: .*'#'"),
            # Entries are decimal or scientific literals; float() also reads
            # Python's '1_0' and non-ASCII digits, the parser does not.
            ("dstrong", "vector y 3", 1, "0.0 1_0 1.0", "vector y: .*'1_0'"),
            ("dstrong", "scalar r 2", 0, "scalar r \uff12", "scalar r: .*'\uff12'"),
            # Integers (n, m, lengths) are -?[0-9]+; int() also reads '1_0',
            # '+4' and Arabic-Indic digits.
            ("dstrong", "n 4", 0, "n 1_0", "header field n: '1_0' is not an integer"),
            ("dstrong", "m 3", 0, "m \u0663", "header field m: '\u0663' is not an integer"),
            ("dstrong", "vector y 3", 0, "vector y \u0663",
             "vector y: length '\u0663' is not an integer"),
            ("pstrong", "matrix X 4", 0, "matrix X +4", r"matrix X: length '\+4' is not an integer"),
        ],
        ids=[
            "word-n", "float-m", "word-entry", "word-scalar", "negative-length", "negative-q",
            "ragged-row", "short-vector", "long-vector", "hash-entry", "underscore-entry",
            "fullwidth-scalar", "underscore-n", "arabic-indic-m", "arabic-indic-length",
            "plus-length",
        ],
    )
    def test_unreadable_field_rejected(self, system, line, at, new, match):
        point = np.array([0.0, 0.0, 1.0]) if system == "dstrong" else SymMat.identity(4)
        lines = certificate_to_text(
            inst_gap_rr(), system, spec=StrongDualSpec(q=np.eye(4), r=2), point=point
        ).splitlines()
        lines[lines.index(line) + at] = new
        with pytest.raises(CertificateFormatError, match=match):
            parse_certificate_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cut", [1, 3])
    def test_file_ending_inside_a_matrix_names_it(self, cut):
        lines = certificate_to_text(
            inst_gap_rr(), "pstrong", spec=StrongDualSpec(q=np.eye(4), r=2),
            point=SymMat.identity(4),
        ).splitlines()
        with pytest.raises(
            CertificateFormatError, match=f"matrix X: file ends after {4 - cut} of 4 rows"
        ):
            parse_certificate_text("\n".join(lines[:-cut]) + "\n")

    def test_file_ending_before_a_vector_names_it(self):
        text = certificate_to_text(
            inst_gap_rr(), "dstrong", spec=StrongDualSpec(q=np.eye(4), r=2),
            point=np.array([0.0, 0.0, 1.0]),
        )
        with pytest.raises(CertificateFormatError, match="vector y: file ends after 0 of 1 rows"):
            parse_certificate_text(text[: text.index("vector y 3") + len("vector y 3")])

    def test_matrix_rows_of_another_width_rejected(self):
        lines = certificate_to_text(
            inst_gap_rr(), "pstrong", spec=StrongDualSpec(q=np.eye(4), r=2),
            point=SymMat.identity(4),
        ).splitlines()
        at = lines.index("matrix X 4")
        for i in range(at + 1, at + 5):
            lines[i] = " ".join(lines[i].split()[:3])
        match = "matrix X: expected 4 entries a row, got 3"
        with pytest.raises(CertificateFormatError, match=match):
            parse_certificate_text("\n".join(lines) + "\n")

    def test_tabs_and_blank_lines_between_rows_accepted(self):
        inst = inst_unattained()
        text = certificate_to_text(inst, "dram", cert=_ladder_cert(), claimed_value=0.0)
        spaced = text.replace(" ", "\t").replace("\n", "\n \t\n\n")
        # Every space becomes a tab, and blank lines go between all lines.
        assert "\t" in spaced and "ramanasdp-certificate\t1" in spaced
        want, got = parse_certificate_text(text), parse_certificate_text(spaced)
        assert got.claimed_value == want.claimed_value == 0.0
        for pool in ("vectors", "matrices"):
            a, b = getattr(want, pool), getattr(got, pool)
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)

    @pytest.mark.parametrize("block", [None, 5])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c", "\u2028", "\n\r\n \x1e"])
    def test_every_line_boundary_of_splitlines_ends_a_line(self, end, block, monkeypatch):
        # The parser splits the text into lines a block at a time, with the
        # boundaries of str.splitlines, not only newlines; with 5-character
        # blocks every line is a block seam.
        if block:
            monkeypatch.setattr(certfile, "_BLOCK_CHARS", block)
        text = certificate_to_text(inst_unattained(), "dram", cert=_ladder_cert())
        want, got = parse_certificate_text(text), parse_certificate_text(text.replace("\n", end))
        for pool in ("vectors", "matrices"):
            a, b = getattr(want, pool), getattr(got, pool)
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
        bad = text.replace("vector y 3", "vector y 3 4").replace("\n", end)
        with pytest.raises(CertificateFormatError, match=re.escape("record 'vector y 3 4' is not")):
            parse_certificate_text(bad)

    @pytest.mark.parametrize("rungs", [0, 2])
    def test_zero_length_vectors_round_trip(self, rungs):
        # m = 0: every y record has length 0 and is written as "vector y 0"
        # and an empty line; the record reads no line.  The leading zero
        # rung of the 2-rung ladder is left out, so its last rung is
        # written as y1, U1, V1.  With m = 0 a nonzero rung cannot be
        # feasible (V_i in tan(U_{i-1}) and U_i + V_i = 0 force U_i = 0),
        # so that ladder is rejected, the same way before and after the file.
        inst = SdpInstance(a=(), b=np.zeros(0), c=SymMat.diag([1.0, 1.0, 0.0]))
        zero = LadderRung(y=np.zeros(0), u=SymMat.zero(3), v=SymMat.zero(3))
        last = LadderRung(y=np.zeros(0), u=SymMat.diag([1.0, 0, 0]), v=SymMat.diag([-1.0, 0, 0]))
        cert = RamanaCertificate(system="dram", y=np.zeros(0), ladder=(zero, last)[:rungs])
        text = certificate_to_text(inst, "dram", cert=cert)
        assert ("vector y1 0\n\nmatrix U1 3\n" in text) == bool(rungs)
        assert "y2" not in text
        cf = parse_certificate_text(text)
        check_instance_binding(cf, inst)
        back = to_ramana_certificate(cf, inst)
        assert back.y.shape == (0,) and len(back.ladder) == rungs // 2
        assert all(r.y.shape == (0,) for r in back.ladder)
        assert verify_dram(inst, back) == verify_dram(inst, cert)
        assert verify_dram(inst, cert).ok == (rungs == 0)

    def test_written_numbers_read_back_bit_identical(self):
        rng = np.random.default_rng(20251019)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64, endpoint=False).view(float)
        tiny = np.finfo(float).smallest_subnormal
        special = [0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(float).tiny * 0.5,
                   np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny]
        # Values whose repr needs all 17 significant digits.
        scaled = rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)
        seventeen = [
            v for v in scaled.tolist()
            if len(repr(v).split("e")[0].lstrip("-").replace(".", "").strip("0")) == 17
        ]
        values = np.concatenate([bits[np.isfinite(bits)], special, seventeen])
        q = values[: 40 * 40].reshape(40, 40)
        point = values[40 * 40 :]
        assert len(seventeen) > 100 and point.size > 1000
        cf = parse_certificate_text(
            certificate_to_text(
                inst_gap_rr(), "dstrong", spec=StrongDualSpec(q=q, r=2), point=point,
                claimed_value=point[0],
            )
        )
        assert np.array_equal(cf.matrices["Q"].view(np.uint64), q.view(np.uint64))
        assert np.array_equal(cf.vectors["y"].view(np.uint64), point.view(np.uint64))
        assert cf.claimed_value == point[0]

    @pytest.mark.parametrize("value", ["2.9999", "-0.5"])
    def test_fractional_rank_rejected(self, value):
        # int() would read 2.9999 as r = 2 and -0.5 as r = 0, which drops
        # the PSD block check.
        text = certificate_to_text(
            inst_gap_rr(), "dstrong", spec=StrongDualSpec(q=np.eye(4), r=2),
            point=np.array([0.0, 0.0, 1.0]),
        )
        cf = parse_certificate_text(text.replace("scalar r 2\n", f"scalar r {value}\n", 1))
        with pytest.raises(CertificateFormatError, match=f"scalar r: {value} is not an integer"):
            to_strong_point(cf)

    def test_missing_rung_is_zero(self):
        inst = inst_unattained()
        text = certificate_to_text(inst, "dram", cert=_ladder_cert())
        # Drop the V2 record: the parser fills a zero matrix.
        lines = text.splitlines()
        start = lines.index("matrix V2 3")
        del lines[start : start + 4]
        cf = parse_certificate_text("\n".join(lines) + "\n")
        cert = to_ramana_certificate(cf, inst)
        assert cert.ladder[1].v.allclose(SymMat.zero(3), tol=0.0)

    def test_parsed_records_are_read_only_and_held_by_their_matrices(self):
        # Each matrix record is the SymMat's own array: to_ramana_certificate
        # and to_strong_point copy none of them.
        for eid, name, inst, cert in _registry_ladders():
            text = certificate_to_text(inst, cert.system, cert=cert)
            cf = parse_certificate_text(text)
            records = [*cf.vectors.values(), *cf.matrices.values()]
            assert records and not any(a.flags.writeable for a in records)
            back = to_ramana_certificate(cf, inst)
            for i, rung in enumerate(back.ladder, start=1):
                assert rung.u.a is cf.matrices[f"U{i}"], (eid, name, i)
                assert rung.v.a is cf.matrices[f"V{i}"], (eid, name, i)
            if back.x is not None:
                assert back.x.a is cf.matrices["X"]
        inst = inst_gap_rr()
        x = SymMat.diag([1.0, 2.0, 0.5, 0.0])
        text = certificate_to_text(inst, "pstrong", spec=StrongDualSpec(q=np.eye(4), r=2), point=x)
        cf = parse_certificate_text(text)
        assert to_strong_point(cf)[1].a is cf.matrices["X"]

    def test_parsing_holds_one_record_at_a_time(self):
        # A dram certificate at n = 24 with six dense rungs: its parsed
        # arrays take 8 bytes an entry, its text about 20.  Holding every
        # line of the text until the end of the parse took more than the
        # text itself.
        rng = np.random.default_rng(24)
        inst = random_degenerate_instance(rng, 24, 6, (2, 1, 1))[0]
        ladder = tuple(
            LadderRung(y=rng.standard_normal(6), u=random_psd(rng, 24), v=random_sym(rng, 24))
            for _ in range(6)
        )
        cert = RamanaCertificate(system="dram", y=rng.standard_normal(6), ladder=ladder)
        text = certificate_to_text(inst, "dram", cert=cert)
        parse_certificate_text(text)
        tracemalloc.start()
        try:
            cf = parse_certificate_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(cf.matrices["V6"], ladder[5].v.a)
        assert peak < len(text)


# SHA-256 of instance_to_sdpa_text for every registry instance.  Certificate
# files bind to these digests, so any change to the instance bytes breaks
# every certificate written before it.
GOLDEN_INSTANCE_DIGEST = {
    "example-1.1-unattained": (
        "2bd7ed59b78ac61cbaeb1aaea169b8f7c9569679b8334b9e6821ecb724fae161"
    ),
    "example-2.15-infeasible": (
        "389681d3d15314ac43f6f5c5159ce5892bc38f0292ff00214636e287b8facffa"
    ),
    "example-2.3-gap": (
        "7328c46d5ed2712411a89879272eccc7bf385a050d312f35c6770e428b55430a"
    ),
    "example-2.5-rr": (
        "87d0f9d17bc824c851482d3fdd328c0544d4add2bafb02025d1a87d175c6089f"
    ),
    "example-identity-strict": (
        "e50b7773b78a10f13bf9cf87c7ad9be88f6366640dde487b83da869edfcab4f2"
    ),
}


def test_instance_digest_golden():
    from ramanasdp.registry import all_ids, get

    digests = {eid: instance_digest(get(eid).instance) for eid in all_ids()}
    assert digests == GOLDEN_INSTANCE_DIGEST


# number_digest of every registry instance: the digest that certificate
# files written today carry as instance-sha256-f64.
GOLDEN_NUMBER_DIGEST = {
    "example-1.1-unattained": (
        "d085361a9b4b61bfdac9240a82116b2acfca2ea6a3bd63e2d944d1e763b83f04"
    ),
    "example-2.15-infeasible": (
        "69f83d53e9c4faef9fdad3e0852be2d2d435699e0b42df71605a57cbbf70f739"
    ),
    "example-2.3-gap": (
        "09048526316d22e7275aede8a4863d497e4df77142d79cbde68f8377e50b6a76"
    ),
    "example-2.5-rr": (
        "aeddcf02fd1412c4bc96365b967247492e21e8b8883510f61ba9c425900692dc"
    ),
    "example-identity-strict": (
        "8857ef8fad91389e1b4bee3c8789e0f0abd5255eb79ad371e86f9a2ead2d29fb"
    ),
}


def test_number_digest_golden():
    digests = {eid: number_digest(registry.get(eid).instance) for eid in registry.all_ids()}
    assert digests == GOLDEN_NUMBER_DIGEST


def _digest_instances() -> list[SdpInstance]:
    """The registry's instances and fixed-seed random ones, m = 0 included."""
    rng = np.random.default_rng(20261019)
    out = [registry.get(eid).instance for eid in registry.all_ids()]
    out += [random_instance(rng, n, m) for n, m in ((1, 1), (3, 0), (5, 4), (8, 6))]
    out.append(random_degenerate_instance(rng, 7, 6, (2, 1, 1, 2))[0])
    return out


def _with_entry(inst: SdpInstance, k: int, i: int, j: int, value: float) -> SdpInstance:
    """The instance with entries (i, j) and (j, i) of C (k = 0) or A_k set."""
    mats = [inst.c.a.copy()] + [ai.a.copy() for ai in inst.a]
    mats[k][i, j] = mats[k][j, i] = value
    return SdpInstance(a=tuple(map(SymMat, mats[1:])), b=inst.b, c=SymMat(mats[0]))


def _with_b0(inst: SdpInstance, value: float) -> SdpInstance:
    return SdpInstance(a=inst.a, b=np.r_[value, inst.b[1:]], c=inst.c)


def _both_digests(inst: SdpInstance) -> tuple[str, str]:
    return number_digest(inst), instance_digest(inst)


class TestNumberDigest:
    """number_digest binds the instances that instance_digest binds."""

    def test_the_digest_is_of_the_documented_bytes(self):
        inst = _with_entry(random_instance(np.random.default_rng(5), 4, 2), 1, 0, 3, -0.0)
        data = b"".join(
            [(4).to_bytes(8, "little"), (2).to_bytes(8, "little"), inst.b.astype("<f8").tobytes()]
            + [np.where(mat.a == 0, 0.0, mat.a).astype("<f8").tobytes() for mat in (inst.c, *inst.a)]
        )
        assert number_digest(inst) == hashlib.sha256(data).hexdigest()

    def test_both_digests_tell_the_same_instances_apart(self):
        # Each instance, its copy read back from its SDPA text (equal to it)
        # and a copy one ulp off in one entry (not equal).
        pool = []
        for inst in _digest_instances():
            up = np.nextafter(inst.c.a[0, 0], np.inf)
            pool += [inst, read_sdpa_text(instance_to_sdpa_text(inst)), _with_entry(inst, 0, 0, 0, up)]
        digests = [_both_digests(inst) for inst in pool]
        equal = 0
        for p, (num_p, text_p) in enumerate(digests):
            for num_q, text_q in digests[p + 1 :]:
                assert (num_p == num_q) == (text_p == text_q)
                equal += num_p == num_q
        assert equal == len(pool) // 3

    def test_the_sign_of_a_zero_matrix_entry_does_not_count(self):
        for inst in _digest_instances():
            for k, (i, j) in ((0, (0, inst.n - 1)), (inst.m, (0, 0))):
                pos, neg = (_with_entry(inst, k, i, j, z) for z in (0.0, -0.0))
                mat = neg.c if k == 0 else neg.a[k - 1]
                assert np.signbit(mat.a[i, j]) and np.signbit(mat.a[j, i])
                assert _both_digests(pos) == _both_digests(neg)

    def test_the_sign_of_a_zero_in_b_counts(self):
        for inst in _digest_instances():
            if inst.m:
                pos, neg = _with_b0(inst, 0.0), _with_b0(inst, -0.0)
                assert all(p != q for p, q in zip(_both_digests(pos), _both_digests(neg)))

    def test_one_ulp_counts(self):
        for inst in _digest_instances():
            k = inst.m  # A_m, or C when m = 0
            up = np.nextafter((inst.c, *inst.a)[k].a[0, -1], np.inf)
            changed = [_with_entry(inst, k, 0, inst.n - 1, up)]
            if inst.m:
                changed.append(_with_b0(inst, np.nextafter(inst.b[0], -np.inf)))
            base = _both_digests(inst)
            for other in changed:
                assert all(p != q for p, q in zip(base, _both_digests(other)))


# SHA-256 of certificate_to_text for every registry certificate, with its
# claimed value.  The bytes of a written certificate are part of the file
# format: changing how numbers are written changes these.  A ladder is
# written from its first nonzero rung on.
GOLDEN_CERTIFICATE_TEXT_DIGEST = {
    ("example-1.1-unattained", "exact-dual-ladder"): (
        "9dc164e4b6c87122015bf793ef6d49f81b49fd7ec6fe9efd738f8cb40e3f241c"
    ),
    ("example-1.1-unattained", "strong-dual-origin"): (
        "8abb5e1794f69b4ecc05846ba6193131c0da55ec4502163ee3af78f05235b839"
    ),
    ("example-2.15-infeasible", "exact-alternative"): (
        "939a380af82a335a81a14ae6746baafb71439a68b990514101ce1e142ba581e0"
    ),
    ("example-2.3-gap", "exact-dual-ladder-transported"): (
        "e0c9f4c6e0cb4a120b7e8008dca58d225a2fc4164d42b9692bb9eb048e4a9720"
    ),
    ("example-2.5-rr", "exact-dual-ladder"): (
        "de567239dc73adc0aa419c88dd9b035e91918abcc8531d78e704cd9a052ee101"
    ),
    ("example-2.5-rr", "exact-dual-suboptimal"): (
        "9db854b49d148a9142750a4fd9243747db7f501014a3f6ec5b650d489516bd5d"
    ),
    ("example-2.5-rr", "strong-dual-trailing2"): (
        "20248f79a2c7667ad5b677ff98471332474db72c358bd57d4bec596bb58522d8"
    ),
    ("example-2.5-rr", "exact-primal-ladder"): (
        "620010e7b9a2e6eda1db9af4b4b53b49da19492c40494bef6f534cb5255fbcfe"
    ),
    ("example-2.5-rr", "strong-primal-leading3"): (
        "58dba686a0c7d9a52d20807047218c199fad34ee4cdaf9f77d18e55023df254b"
    ),
}


def test_certificate_text_golden():
    from ramanasdp.registry import all_ids, get

    digests = {}
    for eid in all_ids():
        entry = get(eid)
        for rc in entry.certificates:
            text = certificate_to_text(
                entry.instance, rc.system, cert=rc.cert, spec=rc.spec, point=rc.point,
                claimed_value=rc.cert.claimed_value if rc.cert is not None else None,
            )
            digests[eid, rc.name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_CERTIFICATE_TEXT_DIGEST


def test_legacy_instance_hash_still_binds():
    # Files written before instance-sha256-f64 carry the SHA-256 of the
    # instance's SDPA text as instance-hash; they still parse, bind and verify.
    for eid in registry.all_ids():
        entry = registry.get(eid)
        inst = entry.instance
        for rc in entry.certificates:
            text = certificate_to_text(inst, rc.system, cert=rc.cert, spec=rc.spec, point=rc.point)
            new = f"instance-sha256-f64 {number_digest(inst)}\n"
            assert text.count(new) == 1
            cf = parse_certificate_text(text.replace(new, f"instance-hash {instance_digest(inst)}\n"))
            assert (cf.hash_field, cf.instance_hash) == ("instance-hash", instance_digest(inst))
            check_instance_binding(cf, inst)
            if rc.cert is not None:
                outcome = verify_certificate(inst, rc.system, cert=to_ramana_certificate(cf, inst))
            else:
                spec, point = to_strong_point(cf)
                outcome = verify_certificate(inst, rc.system, spec=spec, point=point)
            assert outcome.ok, (eid, rc.name, outcome.violation)


def _registry_ladders():
    return [
        (eid, rc.name, registry.get(eid).instance, rc.cert)
        for eid in registry.all_ids()
        for rc in registry.get(eid).certificates
        if rc.cert is not None
    ]


# SHA-256 of the text the writer gave, before it left leading zero rungs
# out, for the registry ladder certificates that start with one (with
# their claimed values): the entries GOLDEN_CERTIFICATE_TEXT_DIGEST held.
PADDED_CERTIFICATE_TEXT_DIGEST = {
    ("example-2.15-infeasible", "exact-alternative"): (
        "6966547a442f99d848fe77c394d2f1a7c1f68979161acd68f6aa3aa3e4f414ac"
    ),
    ("example-2.3-gap", "exact-dual-ladder-transported"): (
        "55d8d869707b62a62c9349524a67a4a13f58e0aa39eac816615ad36eeb713650"
    ),
    ("example-2.5-rr", "exact-dual-ladder"): (
        "0c7def73c7c440285c77e68e817fff3487a7df3f02ba2515435c2ad87e195425"
    ),
    ("example-2.5-rr", "exact-dual-suboptimal"): (
        "b0568a097c341236da1be1a855e139f335327e4179e4a94734898dd1c28fb385"
    ),
    ("example-2.5-rr", "exact-primal-ladder"): (
        "ce88df99a6ef3d60f3e7e78d784fe3bcfe474bac1d38adccac8e3d3a50e76ed4"
    ),
}


class TestLeadingZeroRungs:
    """The writer leaves a ladder's leading zero rungs out; the reader pads
    them back, and every check gives the verdicts of the ladder in memory."""

    def test_registry_ladders_verify_alike(self):
        for eid, name, inst, cert in _registry_ladders():
            back = through_text(inst, cert)
            assert leading_zero_rungs(back.ladder) == 0, (eid, name)
            assert len(back.ladder) == len(cert.ladder) - leading_zero_rungs(cert.ladder)
            assert ladder_verdicts(inst, back) == ladder_verdicts(inst, cert), (eid, name)
            assert ladder_verdicts(inst, back)[0].ok

    def test_padded_texts_still_read_alike(self):
        # Files written with the leading zero rungs still parse, bind and
        # verify to the same verdicts.
        digests = {}
        for eid, name, inst, cert in _registry_ladders():
            if not leading_zero_rungs(cert.ladder):
                continue
            padded = padded_certificate_text(inst, cert, cert.claimed_value)
            digests[eid, name] = hashlib.sha256(padded.encode()).hexdigest()
            old = read_bound(padded, inst)
            assert len(old.ladder) == len(cert.ladder)
            assert ladder_verdicts(inst, old) == ladder_verdicts(inst, through_text(inst, cert))
        assert digests == PADDED_CERTIFICATE_TEXT_DIGEST

    @staticmethod
    def _rr_ladder():
        entry = registry.get("example-2.5-rr")
        (cert,) = [rc.cert for rc in entry.certificates if rc.name == "exact-dual-ladder"]
        assert leading_zero_rungs(cert.ladder) == 1 and len(cert.ladder) == entry.instance.n - 1
        return entry.instance, cert

    def test_negative_zero_rung_is_left_out(self):
        inst, cert = self._rr_ladder()
        minus = SymMat(-np.zeros((4, 4)))
        neg = LadderRung(y=-np.zeros(inst.m), u=minus, v=minus)
        assert np.signbit(neg.u.a).all() and np.signbit(neg.y).all()
        signed = dataclasses.replace(cert, ladder=(neg,) + cert.ladder[1:])
        text = certificate_to_text(inst, "dram", cert=signed)
        assert text == certificate_to_text(inst, "dram", cert=cert)
        back = pad_ladder(through_text(inst, signed), inst)
        assert not np.signbit(back.ladder[0].u.a).any() and not np.signbit(back.ladder[0].y).any()
        assert ladder_verdicts(inst, back) == ladder_verdicts(inst, signed)

    def test_zero_rung_after_a_nonzero_one_is_written(self):
        inst, cert = self._rr_ladder()
        zero, second, third = cert.ladder
        moved = dataclasses.replace(cert, ladder=(second, zero, third))
        text = certificate_to_text(inst, "dram", cert=moved)
        assert "matrix U2 4\n0.0 0.0 0.0 0.0\n" in text and "matrix U3 4" in text
        back = through_text(inst, moved)
        assert len(back.ladder) == 3 and not np.any(back.ladder[1].u.a)
        assert ladder_verdicts(inst, back) == ladder_verdicts(inst, moved)

    def test_all_zero_ladder_writes_no_rung(self):
        inst, cert = self._rr_ladder()
        zeros = dataclasses.replace(cert, ladder=(cert.ladder[0],) * 3)
        text = certificate_to_text(inst, "dram", cert=zeros)
        assert not re.search(r"^(vector|matrix) [yUV]\d", text, re.MULTILINE)
        back = through_text(inst, zeros)
        assert back.ladder == ()
        assert ladder_verdicts(inst, back) == ladder_verdicts(inst, zeros)

    def test_more_than_n_minus_1_rungs_from_the_first_nonzero_one_refused(self):
        # Two nonzero rungs twice make 4 rungs at n = 4: the writer refuses
        # the ladder, as the reader refuses the file that holds all of it.
        inst, cert = self._rr_ladder()
        _, second, third = cert.ladder
        long = dataclasses.replace(cert, ladder=(second, third) * 2)
        with pytest.raises(
            CertificateFormatError,
            match="ladder has 4 rungs from its first nonzero one, more than n-1 = 3",
        ):
            certificate_to_text(inst, "dram", cert=long)
        with pytest.raises(CertificateFormatError, match="rung index 4 exceeds n-1 = 3"):
            read_bound(padded_certificate_text(inst, long), inst)
        # The count starts at the first nonzero rung: n rungs, two of them
        # leading zeros, are written as the ladder's last two.
        padded = dataclasses.replace(cert, ladder=(cert.ladder[0],) * 2 + (second, third))
        assert certificate_to_text(inst, "dram", cert=padded) == certificate_to_text(
            inst, "dram", cert=cert
        )

    def test_n_rungs_with_a_zero_first_are_written_as_n_minus_1(self):
        # The ladder in memory is one rung too long and refused; the writer
        # drops its zero first rung, as embed_certificate drops zero rungs
        # beyond the system's own, and the file holds the valid ladder.
        inst, cert = self._rr_ladder()
        long = dataclasses.replace(cert, ladder=(cert.ladder[0],) + cert.ladder)
        with pytest.raises(ShapeMismatchError, match="ladder has 4 rungs, instance allows 3"):
            verify_dram(inst, long)
        text = certificate_to_text(inst, "dram", cert=long)
        assert text == certificate_to_text(inst, "dram", cert=cert)
        back = through_text(inst, long)
        assert len(back.ladder) == inst.n - 2
        assert ladder_verdicts(inst, back) == ladder_verdicts(inst, cert)
