"""SDPA sparse files and certificate files."""

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
from ramanasdp.sdpa import read_sdpa_text
from ramanasdp import StrongDualSpec
from ramanasdp.verify import LadderRung, RamanaCertificate

from helpers import inst_gap_raw, inst_gap_rr, inst_unattained


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
        ],
        ids=[
            "row-index-zero",
            "truncated-rhs",
            "nan-rhs",
            "inf-rhs-second-line",
            "inf-entry",
            "overflowing-entry",
            "repeated-entry",
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
