"""Refusal tables of the two parsers and their writers.

One row per ``raise`` of ``sdpa.read_sdpa_text`` and ``sdpa.write_sdpa``,
and per refusal of the certificate file layer that reading or writing a
file reaches in ``certfile``: the header and record checks of
``parse_certificate_text``, the writer's argument checks and the checks
of ``to_ramana_certificate`` and ``to_strong_point``.  A row takes a
valid text and makes one minimal corruption, and it names the error the
reader raises.  The same text without the corruption reads.
"""

import re

import pytest

from ramanasdp import (
    ParseError,
    SdpInstance,
    UnsupportedBlockStructureError,
    certfile,
    read_sdpa,
    registry,
    write_sdpa,
)
from ramanasdp.certfile import CertificateFormatError
from ramanasdp.sdpa import read_sdpa_text

# One dense block of order 2 with m = 2, and diagonal blocks of sizes 1
# and 2 with m = 1.
DENSE = "2\n1\n2\n1.0 2.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n2 1 1 2 0.5\n2 1 2 2 1.0\n"
DIAGONAL = "1\n2\n-1 -2\n1.0\n0 1 1 1 1.0\n1 2 2 2 1.0\n"


def _sub(old: str, new: str):
    """The corruption replacing the one occurrence of old by new."""

    def corrupt(text: str) -> str:
        assert text.count(old) == 1, old
        return text.replace(old, new)

    return corrupt


# (id, base text, corruption, error, its message)
SDPA_ROWS = [
    ("fewer-than-four-lines", DENSE, lambda t: "2\n1\n2\n", ParseError,
     "line 3: file has fewer than four header lines"),
    ("empty-count-line", DENSE, _sub("2\n1\n2\n1.0", "{}\n1\n2\n1.0"), ParseError,
     "line 1: expected constraint count, got an empty line"),
    ("count-not-integer", DENSE, _sub("2\n1\n2\n1.0", "two\n1\n2\n1.0"), ParseError,
     "line 1: expected constraint count, got 'two'"),
    ("block-size-count", DENSE, _sub("2\n1\n2\n1.0", "2\n2\n2\n1.0"), ParseError,
     "line 3: expected 2 block sizes, got 1"),
    ("block-size-not-integer", DENSE, _sub("\n2\n1.0", "\n2.5\n1.0"), ParseError,
     "line 3: block sizes must be integers"),
    ("mixed-blocks", DIAGONAL, _sub("-1 -2", "1 -2"), UnsupportedBlockStructureError,
     "unsupported block structure [1, -2]"),
    ("rhs-cut-short", DENSE, lambda t: "2\n1\n2\n1.0\n", ParseError,
     "line 4: expected 2 rhs values, got 1"),
    ("rhs-not-numeric", DENSE, _sub("1.0 2.0", "1.0 two"), ParseError,
     "line 4: right-hand side must be numeric"),
    ("rhs-not-finite", DENSE, _sub("1.0 2.0", "1.0 inf"), ParseError,
     "line 4: right-hand side value is not finite"),
    ("rhs-too-long", DENSE, _sub("1.0 2.0", "1.0 2.0 3.0"), ParseError,
     "line 4: expected 2 rhs values, got 3"),
    ("entry-four-fields", DENSE, _sub("2 1 2 2 1.0", "2 1 2 2"), ParseError,
     "line 8: expected 5 fields, got 4"),
    ("entry-not-integer", DENSE, _sub("2 1 2 2 1.0", "2 1 2 x 1.0"), ParseError,
     "line 8: malformed entry line"),
    ("entry-not-finite", DENSE, _sub("2 1 2 2 1.0", "2 1 2 2 nan"), ParseError,
     "line 8: entry value 'nan' is not finite"),
    ("entry-repeated", DENSE, _sub("2 1 2 2 1.0", "2 1 1 2 1.0"), ParseError,
     "line 8: repeated entry (2, 1, 1, 2)"),
    ("matrix-index", DENSE, _sub("2 1 2 2 1.0", "3 1 2 2 1.0"), ParseError,
     "line 8: matrix index 3 outside 0..2"),
    ("block-index", DENSE, _sub("2 1 2 2 1.0", "2 2 2 2 1.0"), ParseError,
     "line 8: block index 2 outside 1..1"),
    ("lower-triangle", DENSE, _sub("2 1 1 2 0.5", "2 1 2 1 0.5"), ParseError,
     "line 7: lower-triangle entry (2,1); upper required"),
    ("diagonal-off-diagonal", DIAGONAL, _sub("1 2 2 2 1.0", "1 2 1 2 1.0"), ParseError,
     "line 6: off-diagonal entry in a diagonal block"),
    ("diagonal-index", DIAGONAL, _sub("1 2 2 2 1.0", "1 2 3 3 1.0"), ParseError,
     "line 6: index 3 outside diagonal block of size 2"),
    ("dense-index", DENSE, _sub("2 1 2 2 1.0", "2 1 3 3 1.0"), ParseError,
     "line 8: index (3,3) outside block of order 2"),
]


@pytest.mark.parametrize("text, corrupt, exc, match",
                         [row[1:] for row in SDPA_ROWS], ids=[row[0] for row in SDPA_ROWS])
def test_sdpa_corruption_raises(text, corrupt, exc, match):
    assert isinstance(read_sdpa_text(text), SdpInstance)
    with pytest.raises(exc, match=re.escape(match)):
        read_sdpa_text(corrupt(text))


def test_write_refuses_what_is_not_an_instance_or_a_system(tmp_path):
    with pytest.raises(TypeError, match="cannot write str as SDPA"):
        write_sdpa("2\n1\n2\n", str(tmp_path / "s.dat-s"))
    assert not (tmp_path / "s.dat-s").exists()


def test_write_names_the_path_it_cannot_write(tmp_path):
    inst = read_sdpa_text(DENSE)
    write_sdpa(inst, str(tmp_path / "s.dat-s"))
    assert read_sdpa(str(tmp_path / "s.dat-s")).b.tolist() == [1.0, 2.0]
    path = str(tmp_path / "missing" / "s.dat-s")
    with pytest.raises(OSError, match=f"cannot write {re.escape(path)}"):
        write_sdpa(inst, path)


GAP_RR = registry.get("example-2.5-rr")


def _text(name: str) -> str:
    """The file of example-2.5-rr's certificate called name."""
    rc = next(c for c in GAP_RR.certificates if c.name == name)
    return certfile.certificate_to_text(
        GAP_RR.instance, rc.system, cert=rc.cert, spec=rc.spec, point=rc.point
    )


def _parse(text):
    return certfile.parse_certificate_text(text)


def _ladder(text):
    return certfile.to_ramana_certificate(_parse(text), GAP_RR.instance)


def _strong(text):
    return certfile.to_strong_point(_parse(text))


DRAM, DSTRONG, PSTRONG = "exact-dual-ladder", "strong-dual-trailing2", "strong-primal-leading3"

# (id, certificate, corruption, reader, message); every row raises
# CertificateFormatError.
CERT_ROWS = [
    ("header-three-fields", DRAM, _sub("\nn 4\n", "\nn 4 4\n"), _parse,
     "malformed header line 'n 4 4'"),
    ("unknown-record-kind", DRAM, lambda t: t + "tensor T 1\n1.0\n", _parse,
     "unknown record kind 'tensor'"),
    ("missing-header-field", DRAM, _sub("\nm 3\n", "\n"), _parse, "missing header field m"),
    ("unknown-system", DRAM, _sub("system dram", "system ram"), _parse, "unknown system 'ram'"),
    ("strong-read-as-ladder", DSTRONG, lambda t: t, _ladder, "dstrong is not a ladder system"),
    ("ladder-read-as-strong", DRAM, lambda t: t, _strong, "dram is not a strong system"),
    ("strong-without-q", DSTRONG, _sub("matrix Q 4", "matrix P 4"), _strong,
     "strong certificate needs Q and r records"),
    ("strong-without-r", PSTRONG, _sub("scalar r 3", "scalar s 3"), _strong,
     "strong certificate needs Q and r records"),
    ("dstrong-without-y", DSTRONG, _sub("vector y 3", "vector z 3"), _strong,
     "dstrong certificate needs a y record"),
    ("pstrong-without-x", PSTRONG, _sub("matrix X 4", "matrix Y 4"), _strong,
     "pstrong certificate needs an X record"),
]


@pytest.mark.parametrize("name, corrupt, read, match",
                         [row[1:] for row in CERT_ROWS], ids=[row[0] for row in CERT_ROWS])
def test_certificate_corruption_raises(name, corrupt, read, match):
    text = _text(name)
    # The uncorrupted file reads as its own kind of certificate.
    (_ladder if name == DRAM else _strong)(text)
    with pytest.raises(CertificateFormatError, match=match):
        read(corrupt(text))


def test_certificate_writer_refuses_incomplete_arguments():
    inst = GAP_RR.instance
    rc = next(c for c in GAP_RR.certificates if c.name == DSTRONG)
    assert certfile.certificate_to_text(inst, "dstrong", spec=rc.spec, point=rc.point)
    rows = [
        ("unknown system 'ram'", "ram", {"spec": rc.spec, "point": rc.point}),
        ("ladder systems need a RamanaCertificate", "dram", {"spec": rc.spec, "point": rc.point}),
        ("strong systems need spec and point", "dstrong", {"spec": rc.spec}),
    ]
    for match, system, kw in rows:
        with pytest.raises(CertificateFormatError, match=match):
            certfile.certificate_to_text(inst, system, **kw)
