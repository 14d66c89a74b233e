"""SDPA sparse files and certificate files."""

import dataclasses
import hashlib

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
from ramanasdp import sdpa
from ramanasdp.builders import (
    Constraint,
    PsdBlock,
    StandardFormSdp,
    build_alt_ram,
    build_dstrong,
    build_pram,
)
from ramanasdp.sdpa import (
    instance_to_sdpa_text,
    read_sdpa_text,
    standard_form_to_sdpa_text,
    varmap_sidecar_text,
)
from ramanasdp import StrongDualSpec
from ramanasdp.verify import LadderRung, RamanaCertificate

from helpers import (
    inst_gap_raw,
    inst_gap_rr,
    inst_unattained,
    random_degenerate_instance,
    random_orthonormal,
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
    """The same writer for emitted systems, with the objective's blocks in
    block order as the module docstring promises."""
    sizes = [str(b.order) for b in sdp.blocks] + ([str(-2 * sdp.n_free)] if sdp.n_free else [])
    out = [str(len(sdp.constraints)), str(len(sizes)), " ".join(sizes)]
    out.append(" ".join(repr(float(c.rhs)) for c in sdp.constraints))
    sign = 1.0 if sdp.sense == "max" else -1.0
    index = {b.name: i + 1 for i, b in enumerate(sdp.blocks)}
    rows = [({nm: sign * k for nm, k in sdp.objective_mats.items()}, sign * sdp.objective_free)]
    rows += [(con.mats, con.free) for con in sdp.constraints]
    for t, (mats, free) in enumerate(rows):
        for name in sorted(mats, key=index.get):
            _reference_entries(t, index[name], mats[name], out)
        if sdp.n_free and free.size:
            for j in np.flatnonzero(free).tolist():
                c, blk, jj = float(free[j]), len(sdp.blocks) + 1, sdp.n_free + j + 1
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
    all-zero row, a row with an empty free vector, blocks listed out of
    order, and a row with no blocks."""
    blocks = (PsdBlock("A", 3), PsdBlock("B", 1), PsdBlock("C", 4))
    cons = []
    for t in range(n_cons):
        kind = t % 4 if 2 * t >= n_cons else 0
        if kind == 0:
            mats, free = {"A": np.zeros((3, 3)), "C": -np.zeros((4, 4))}, -np.zeros(n_free)
        elif kind == 1:
            mats, free = {"C": _value_matrix(rng, 4)}, np.zeros(0)
        elif kind == 2:
            mats = {nm: _value_matrix(rng, k) for nm, k in (("C", 4), ("B", 1), ("A", 3))}
            free = rng.choice(_VALUES, n_free)
        else:
            mats, free = {}, rng.choice(_VALUES, n_free)
        cons.append(Constraint(name=f"c{t}", mats=mats, free=free, rhs=float(rng.choice(_VALUES))))
    return StandardFormSdp(
        system="hand",
        sense=sense,
        blocks=blocks,
        n_free=n_free,
        objective_mats={"C": _value_matrix(rng, 4), "A": _value_matrix(rng, 3)},
        objective_free=objective_free,
        constraints=tuple(cons),
        var_map={},
    )


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

    def test_objective_entries_follow_block_order(self):
        one = np.ones((1, 1))
        sdp = StandardFormSdp(
            system="hand",
            sense="max",
            blocks=(PsdBlock("A", 1), PsdBlock("B", 1)),
            n_free=0,
            objective_mats={"B": 2.0 * one, "A": one},
            objective_free=np.zeros(0),
            constraints=(Constraint(name="c", mats={"A": one}, free=np.zeros(0), rhs=1.0),),
            var_map={},
        )
        entries = standard_form_to_sdpa_text(sdp).splitlines()[4:]
        assert entries == ["0 1 1 1 1.0", "0 2 1 1 2.0", "1 1 1 1 1.0"]

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
        bad = Constraint(name="bad", mats={"Z": np.eye(2)}, free=np.zeros(3), rhs=0.0)
        sdp = dataclasses.replace(sdp, constraints=sdp.constraints + (bad,))
        path = tmp_path / "bad.dat-s"
        with pytest.raises(KeyError):
            write_sdpa(sdp, str(path))
        assert not path.exists()


# SHA-256 of the SDPA text followed by the .varmap text of each builder's
# system for random_degenerate_instance(default_rng(n), n, 4, (2, 1, 1)).
# Each text spans dozens of writer chunks, and its values repeat across them.
GOLDEN_RANDOM_EMISSION = {
    ("altram", 12): "0aa2f8e137dbc804065eb57ff343268873a7d76ec83d65c41b22625fede17867",
    ("dram", 12): "25542e8393a26a3373ecba2d103a7168f69a6889a6a62afbc71d4fb2ce35b972",
    ("dstrong", 12): "980f97043c4fcf09c62f2f5024d1bca083f97ae54e29ce100f4197571dad3337",
    ("pram", 12): "78ed0cccb3a82f27b974cd9b0634b165a640c5b5fc4281fca02ecec12b9246c1",
    ("altram", 18): "d6f50dfb4606eeedb4dab619e71168561bf1302785252080ff7bdf4d41864597",
    ("dram", 18): "665eda1140609093601ef615f45aff289435c0ff08c6f1bdf43d458e778eb742",
    ("dstrong", 18): "20bd921ef10724e02e259a93d4cccfd33a138ea398e577e197439c4d360a5067",
    ("pram", 18): "4cafca9bb076a657dcdcfdddd42328f2cdfa28d8aa9b7380e5b83189991332ba",
}


@pytest.mark.parametrize("builder, n", sorted(GOLDEN_RANDOM_EMISSION))
def test_random_emission_is_byte_identical(builder, n):
    inst = random_degenerate_instance(np.random.default_rng(n), n, 4, (2, 1, 1))[0]
    sdp = _BUILDERS[builder](inst)
    text = standard_form_to_sdpa_text(sdp) + varmap_sidecar_text(sdp)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RANDOM_EMISSION[builder, n]


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
        ],
        ids=["word-n", "float-m", "word-entry", "word-scalar", "negative-length", "negative-q"],
    )
    def test_unreadable_field_rejected(self, system, line, at, new, match):
        point = np.array([0.0, 0.0, 1.0]) if system == "dstrong" else SymMat.identity(4)
        lines = certificate_to_text(
            inst_gap_rr(), system, spec=StrongDualSpec(q=np.eye(4), r=2), point=point
        ).splitlines()
        lines[lines.index(line) + at] = new
        with pytest.raises(CertificateFormatError, match=match):
            parse_certificate_text("\n".join(lines) + "\n")

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
