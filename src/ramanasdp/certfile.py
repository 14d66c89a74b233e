"""Line-oriented certificate files.

A certificate file is human-diffable text: a header binding it to an
instance (by SHA-256 of the instance's float64 numbers, plus n, m and the
system tag), followed by named records:

    ramanasdp-certificate 1
    system dram
    instance-sha256-f64 <hex>
    n 4
    m 3
    value 1.0                  # optional claimed value
    vector y 3
    0.0 0.0 1.0
    matrix U2 4
    1.0 0.0 0.0 0.0
    ...

The digest ``instance-sha256-f64`` (``number_digest``) is one SHA-256
over n and m as little-endian int64, b as little-endian float64, then
C, A_1..A_m, each its full matrix as little-endian float64 with 0.0
added.  It binds the same instances as the SHA-256 of the instance's
SDPA text (``instance_digest``), which files written before it carry as
``instance-hash`` and which is still read and checked: that text writes
each upper-triangle nonzero and each entry of b with ``repr``, which
round-trips, and writes no zero matrix entry, so adding 0.0 (which maps
-0.0 to 0.0) drops the sign of a matrix zero, while b is hashed as it
is.  A ``SymMat`` is bitwise symmetric, so the lower triangle adds
nothing.  A file holds exactly one of the two fields.

A ladder of k <= n-1 rungs is stored as records y1..yk, U1..Uk, V1..Vk,
k the highest index present; a missing record below it is zero.
Record j is rung n-1-k+j: a file with k < n-1 holds the *last* k rungs,
the rungs before them are zero, and a violation in record Uj is reported
at rung n-1-k+j.  The writer writes a ladder from its first nonzero rung
on, numbered from 1, so the leading zero rungs, which pass every check,
come back as that padding; an all-zero ladder writes no rung record, and
a ladder with more than n-1 rungs from its first nonzero one is refused,
as the reader would refuse its file.
Blank lines are skipped.  A vector is one line, a matrix one line a row,
a record of length 0 has no line, and entries are separated by spaces or
tabs.  Every number in the file (entries, ``scalar`` and ``value``) is a
decimal or scientific literal (``-0.5``, ``.5``, ``5.``, ``1.25e-07``),
read by ``np.loadtxt`` one record at a time; ``repr`` writes each float
so that it reads back to the same bits.  ``nan``, ``inf`` and literals
that overflow are refused as non-finite; spellings only Python's
``float()`` reads (``1_0``, non-ASCII digits) and ``#``, which starts no
comment, are refused as not a number.  Such a number, a ragged row, a
vector of the wrong count, a record cut short by the end of the file, a
repeated record, a record line without its name and value or length, a
negative length and a header n or m that is not an integer make the
file malformed; the error names the record or field.  An integer (n, m
and a record's length) is ``-?[0-9]+``: ``int()`` would also read
``1_0``, ``+4`` and non-ASCII digits.
The primal system stores X; strong systems store the point plus the
rotation Q and the block order r.

Every record read from lines is a read-only array that owns its data.
A matrix record, as the writer wrote it, is also bitwise symmetric, so the
``SymMat`` that ``to_ramana_certificate`` or ``to_strong_point`` builds
from it holds the record itself, not a copy.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import SdpInstance
from .sdpa import instance_chunks
from .symmat import SymMat
from .verify import (
    DUAL_LADDERS,
    LADDER_SYSTEMS,
    SYSTEM_DSTRONG,
    SYSTEM_PRAM,
    SYSTEMS,
    LadderRung,
    RamanaCertificate,
    StrongDualSpec,
    leading_zero_rungs,
)


class CertificateFormatError(ValueError):
    pass


class InstanceHashMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CertificateFile:
    system: str
    hash_field: str  # a key of BINDINGS: the header field of instance_hash
    instance_hash: str
    n: int
    m: int
    claimed_value: Optional[float]
    scalars: dict[str, float]
    vectors: dict[str, np.ndarray]
    matrices: dict[str, np.ndarray]


def instance_digest(inst: SdpInstance) -> str:
    """SHA-256 of the instance's SDPA text, hashed one chunk at a time."""
    digest = hashlib.sha256()
    for chunk in instance_chunks(inst):
        digest.update(chunk.encode())
    return digest.hexdigest()


def number_digest(inst: SdpInstance) -> str:
    """SHA-256 of n and m (<i8), b (<f8), then C, A_1..A_m, each in full
    (<f8) with 0.0 added, so that -0.0 hashes as 0.0.

    Each matrix is hashed on its own, so no copy of them all is made."""
    digest = hashlib.sha256(np.array([inst.n, inst.m], dtype="<i8"))
    digest.update(np.ascontiguousarray(inst.b, dtype="<f8"))
    for mat in (inst.c, *inst.a):
        digest.update((mat.a + 0.0).astype("<f8", copy=False))
    return digest.hexdigest()


# The header fields that bind a certificate to its instance, each with its
# digest.  The writer writes instance-sha256-f64; instance-hash is read in
# files written before it.  A file holds exactly one of them.
BINDINGS = {"instance-sha256-f64": number_digest, "instance-hash": instance_digest}
_HEADER_FIELDS = ("system", "n", "m", "value", *BINDINGS)


def _vec_line(v: np.ndarray) -> str:
    return " ".join(map(repr, v.tolist()))


def certificate_to_text(
    inst: SdpInstance, system: str, *, cert=None, spec=None, point=None,
    claimed_value: Optional[float] = None,
) -> str:
    """Serialize a certificate (ladder systems) or a strong-system point."""
    if system not in SYSTEMS:
        raise CertificateFormatError(f"unknown system {system!r}")
    out = [
        "ramanasdp-certificate 1",
        f"system {system}",
        f"instance-sha256-f64 {number_digest(inst)}",
        f"n {inst.n}",
        f"m {inst.m}",
    ]
    if claimed_value is not None:
        out.append(f"value {float(claimed_value)!r}")

    def put_vec(name: str, v: np.ndarray) -> None:
        out.append(f"vector {name} {len(v)}")
        out.append(_vec_line(np.asarray(v, dtype=float)))

    def put_mat(name: str, a: np.ndarray) -> None:
        a = np.asarray(a, dtype=float)
        out.append(f"matrix {name} {a.shape[0]}")
        for row in a:
            out.append(_vec_line(row))

    if system in LADDER_SYSTEMS:
        if cert is None:
            raise CertificateFormatError("ladder systems need a RamanaCertificate")
        if system in DUAL_LADDERS:
            put_vec("y", cert.y)
        else:
            put_mat("X", cert.x.a)
        # From the first nonzero rung on: the reader pads the ladder back.
        held = cert.ladder[leading_zero_rungs(cert.ladder) :]
        if len(held) > inst.n - 1:
            raise CertificateFormatError(
                f"ladder has {len(held)} rungs from its first nonzero one, "
                f"more than n-1 = {inst.n - 1}"
            )
        for i, rung in enumerate(held, start=1):
            if rung.y is not None:
                put_vec(f"y{i}", rung.y)
            put_mat(f"U{i}", rung.u.a)
            put_mat(f"V{i}", rung.v.a)
    else:
        if spec is None or point is None:
            raise CertificateFormatError("strong systems need spec and point")
        out.append(f"scalar r {spec.r}")
        put_mat("Q", spec.q)
        if system == SYSTEM_DSTRONG:
            put_vec("y", np.asarray(point, dtype=float))
        else:
            put_mat("X", point.a if isinstance(point, SymMat) else np.asarray(point))
    return "\n".join(out) + "\n"


def write_certificate(path: str, inst: SdpInstance, system: str, **kw) -> None:
    with open(path, "w") as fh:
        fh.write(certificate_to_text(inst, system, **kw))


def _numbers(lines: list[str], what: str) -> np.ndarray:
    """The entries of ``lines``, one row a line, as a read-only 2-D float
    array that owns its data.

    ``comments=None``: with numpy's default ``#`` a stray ``#`` would
    silently cut its row short.  ``lines`` is never empty, since
    ``loadtxt`` warns on an input without data."""
    try:
        a = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError as exc:  # names the token: could not convert string 'abc' to float64 ...
        if "number of columns changed" in str(exc):
            raise CertificateFormatError(f"{what}: ragged row") from None
        raise CertificateFormatError(f"{what}: {exc}") from None
    if not np.isfinite(a).all():
        raise CertificateFormatError(f"{what} has a non-finite entry")
    a.flags.writeable = False
    return a


def _number(token: str, what: str) -> float:
    return float(_numbers([token], what)[0, 0])


_INT_RE = re.compile(r"-?[0-9]+")


def _int(token: str, what: str) -> int:
    """``token`` as an integer, ``-?[0-9]+`` only; ``what`` leads the error."""
    if not _INT_RE.fullmatch(token):
        raise CertificateFormatError(f"{what} {token!r} is not an integer")
    return int(token)


# Characters of certificate text split into lines at a time.  A parse holds
# one block's lines; on the 35 certificates of a verify batch, taking their
# lines a block at a time cost 21%, 16% and 13% more than one split of each
# whole text for blocks of 8, 16 and 32 KB (0.4 to 0.6 ms a batch).
_BLOCK_CHARS = 16384


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The non-blank lines of text.splitlines(), a block of about
    _BLOCK_CHARS characters at a time, so that a parse holds one block's
    lines, not all of them.  Each block ends just after a newline, which
    no line boundary of splitlines spans."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        yield [ln for ln in text[start:end].splitlines() if ln.strip()]
        start = end


def parse_certificate_text(text: str) -> CertificateFile:
    lines = itertools.chain.from_iterable(_line_blocks(text))
    head = next(lines, None)
    if head is None or head.split()[:2] != ["ramanasdp-certificate", "1"]:
        raise CertificateFormatError("not a ramanasdp certificate file")
    fields: dict[str, str] = {}
    scalars: dict[str, float] = {}
    vectors: dict[str, np.ndarray] = {}
    matrices: dict[str, np.ndarray] = {}
    seen: set[tuple[str, ...]] = set()
    for ln in lines:
        toks = ln.split()
        kind = toks[0]
        record = tuple(toks[:2]) if kind in ("scalar", "vector", "matrix") else (kind,)
        if record in seen:
            raise CertificateFormatError(f"repeated record {' '.join(record)!r}")
        seen.add(record)
        if kind in _HEADER_FIELDS:
            if len(toks) != 2:
                raise CertificateFormatError(f"malformed header line {ln!r}")
            fields[kind] = toks[1]
            continue
        if kind not in ("scalar", "vector", "matrix"):
            raise CertificateFormatError(f"unknown record kind {kind!r}")
        if len(toks) != 3:
            field = "value" if kind == "scalar" else "length"
            raise CertificateFormatError(f"record {ln!r} is not '{kind} <name> <{field}>'")
        name = toks[1]
        what = f"{kind} {name}"
        if kind == "scalar":
            scalars[name] = _number(toks[2], what)
            continue
        length = _int(toks[2], f"{what}: length")
        if length < 0:
            raise CertificateFormatError(f"{what}: length {length} is negative")
        # A vector is one line, a matrix one line a row; a record of
        # length 0 has no line (the writer's empty line is skipped above).
        count = min(length, 1) if kind == "vector" else length
        rows = list(itertools.islice(lines, count))
        if len(rows) < count:
            raise CertificateFormatError(
                f"{what}: file ends after {len(rows)} of {count} rows"
            )
        a = _numbers(rows, what) if rows else np.zeros((0, 0))
        if kind == "vector":
            if a.size != length:
                raise CertificateFormatError(
                    f"{what}: expected {length} values, got {a.size}"
                )
            vectors[name] = a.reshape(length)
        else:
            if a.shape != (length, length):
                raise CertificateFormatError(
                    f"{what}: expected {length} entries a row, got {a.shape[1]}"
                )
            matrices[name] = a
    for req in ("system", "n", "m"):
        if req not in fields:
            raise CertificateFormatError(f"missing header field {req}")
    hash_fields = BINDINGS.keys() & fields.keys()
    if len(hash_fields) != 1:
        raise CertificateFormatError(
            f"{'both' if hash_fields else 'neither'} of the header fields "
            f"{' and '.join(BINDINGS)}: a file holds exactly one"
        )
    (hash_field,) = hash_fields
    system = fields["system"]
    if system not in SYSTEMS:
        raise CertificateFormatError(f"unknown system {system!r}")
    return CertificateFile(
        system=system,
        hash_field=hash_field,
        instance_hash=fields[hash_field],
        n=_int(fields["n"], "header field n:"),
        m=_int(fields["m"], "header field m:"),
        claimed_value=_number(fields["value"], "value") if "value" in fields else None,
        scalars=scalars,
        vectors=vectors,
        matrices=matrices,
    )


def read_certificate(path: str) -> CertificateFile:
    with open(path) as fh:
        return parse_certificate_text(fh.read())


def check_instance_binding(cf: CertificateFile, inst: SdpInstance) -> None:
    if cf.n != inst.n or cf.m != inst.m:
        raise InstanceHashMismatchError(
            f"certificate is for n={cf.n}, m={cf.m}; instance has n={inst.n}, m={inst.m}"
        )
    if cf.instance_hash != BINDINGS[cf.hash_field](inst):
        raise InstanceHashMismatchError(
            f"certificate instance hash does not match the provided instance ({cf.hash_field})"
        )


_RUNG_RE = re.compile(r"^[UVy](\d+)$")


def to_ramana_certificate(cf: CertificateFile, inst: SdpInstance) -> RamanaCertificate:
    """Assemble the ladder from named records (missing rungs are zero)."""
    if cf.system not in LADDER_SYSTEMS:
        raise CertificateFormatError(f"{cf.system} is not a ladder system")
    n, m = inst.n, inst.m
    max_rung = 0
    for pool in (cf.vectors, cf.matrices):
        for name in pool:
            match = _RUNG_RE.match(name)
            if match:
                max_rung = max(max_rung, int(match.group(1)))
    if max_rung > n - 1:
        raise CertificateFormatError(
            f"rung index {max_rung} exceeds n-1 = {n - 1}"
        )
    with_y = cf.system in DUAL_LADDERS
    rungs = []
    for i in range(1, max_rung + 1):
        u = cf.matrices.get(f"U{i}")
        v = cf.matrices.get(f"V{i}")
        yv = cf.vectors.get(f"y{i}")
        rungs.append(
            LadderRung(
                y=(yv if yv is not None else np.zeros(m)) if with_y else None,
                u=SymMat(u) if u is not None else SymMat.zero(n),
                v=SymMat(v) if v is not None else SymMat.zero(n),
            )
        )
    return RamanaCertificate(
        system=cf.system,
        y=cf.vectors.get("y") if with_y else None,
        ladder=tuple(rungs),
        x=SymMat(cf.matrices["X"]) if cf.system == SYSTEM_PRAM else None,
        claimed_value=cf.claimed_value,
    )


def to_strong_point(cf: CertificateFile):
    """(spec, point) for a strong-system certificate file."""
    if cf.system not in SYSTEMS or cf.system in LADDER_SYSTEMS:
        raise CertificateFormatError(f"{cf.system} is not a strong system")
    if "Q" not in cf.matrices or "r" not in cf.scalars:
        raise CertificateFormatError("strong certificate needs Q and r records")
    r = cf.scalars["r"]
    if not r.is_integer():
        raise CertificateFormatError(f"scalar r: {r!r} is not an integer")
    spec = StrongDualSpec(q=cf.matrices["Q"], r=int(r))
    if cf.system == SYSTEM_DSTRONG:
        if "y" not in cf.vectors:
            raise CertificateFormatError("dstrong certificate needs a y record")
        return spec, cf.vectors["y"]
    if "X" not in cf.matrices:
        raise CertificateFormatError("pstrong certificate needs an X record")
    return spec, SymMat(cf.matrices["X"])
