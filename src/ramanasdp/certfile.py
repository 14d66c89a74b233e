"""Line-oriented certificate files.

A certificate file is human-diffable text: a header binding it to an
instance (by SHA-256 of the instance's canonical SDPA serialization, plus
n, m and the system tag), followed by named records:

    ramanasdp-certificate 1
    system dram
    instance-hash <hex>
    n 4
    m 3
    value 1.0                  # optional claimed value
    vector y 3
    0.0 0.0 1.0
    matrix U2 4
    1.0 0.0 0.0 0.0
    ...

Ladder records are named y1..y{n-1}, U1..U{n-1}, V1..V{n-1}; a missing
record is zero (certificates are front-padded on verification anyway).
A number that is not finite or not a number at all, a repeated record, a
record line without its name and value or length, a negative length and
a header n or m that is not an integer make the file malformed; the
error names the record or field.
The primal system stores X; strong systems store the point plus the
rotation Q and the block order r.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .builders import StrongDualSpec
from .model import SdpInstance
from .sdpa import instance_to_sdpa_text
from .symmat import SymMat
from .verify import (
    SYSTEM_ALTRAM,
    SYSTEM_DRAM,
    SYSTEM_DSTRONG,
    SYSTEM_PRAM,
    SYSTEM_PSTRONG,
    LadderRung,
    RamanaCertificate,
)

SYSTEMS = (SYSTEM_DRAM, SYSTEM_ALTRAM, SYSTEM_PRAM, SYSTEM_DSTRONG, SYSTEM_PSTRONG)


class CertificateFormatError(ValueError):
    pass


class InstanceHashMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CertificateFile:
    system: str
    instance_hash: str
    n: int
    m: int
    claimed_value: Optional[float]
    scalars: dict[str, float]
    vectors: dict[str, np.ndarray]
    matrices: dict[str, np.ndarray]


def instance_digest(inst: SdpInstance) -> str:
    return hashlib.sha256(instance_to_sdpa_text(inst).encode()).hexdigest()


def _fmt(x: float) -> str:
    return repr(float(x))


def _vec_line(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in v)


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
        f"instance-hash {instance_digest(inst)}",
        f"n {inst.n}",
        f"m {inst.m}",
    ]
    if claimed_value is not None:
        out.append(f"value {_fmt(claimed_value)}")

    def put_vec(name: str, v: np.ndarray) -> None:
        out.append(f"vector {name} {len(v)}")
        out.append(_vec_line(np.asarray(v, dtype=float)))

    def put_mat(name: str, a: np.ndarray) -> None:
        a = np.asarray(a, dtype=float)
        out.append(f"matrix {name} {a.shape[0]}")
        for row in a:
            out.append(_vec_line(row))

    if system in (SYSTEM_DRAM, SYSTEM_ALTRAM, SYSTEM_PRAM):
        if cert is None:
            raise CertificateFormatError("ladder systems need a RamanaCertificate")
        if system in (SYSTEM_DRAM, SYSTEM_ALTRAM):
            put_vec("y", cert.y)
        else:
            put_mat("X", cert.x.a)
        for i, rung in enumerate(cert.ladder, start=1):
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


def _floats(toks: list[str], what: str) -> list[float]:
    try:
        vals = [float(t) for t in toks]
    except ValueError as exc:  # names the token: could not convert string to float: 'abc'
        raise CertificateFormatError(f"{what}: {exc}") from None
    if not all(math.isfinite(v) for v in vals):
        raise CertificateFormatError(f"{what} has a non-finite entry")
    return vals


def _header_int(fields: dict[str, str], name: str) -> int:
    try:
        return int(fields[name])
    except ValueError:
        raise CertificateFormatError(
            f"header field {name}: {fields[name]!r} is not an integer"
        ) from None


def parse_certificate_text(text: str) -> CertificateFile:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    idx = 0

    def next_line() -> str:
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise CertificateFormatError("unexpected end of file")
        ln = lines[idx]
        idx += 1
        return ln

    header = next_line().split()
    if header[:2] != ["ramanasdp-certificate", "1"]:
        raise CertificateFormatError("not a ramanasdp certificate file")
    fields: dict[str, str] = {}
    scalars: dict[str, float] = {}
    vectors: dict[str, np.ndarray] = {}
    matrices: dict[str, np.ndarray] = {}
    seen: set[tuple[str, ...]] = set()
    while idx < len(lines):
        try:
            ln = next_line()
        except CertificateFormatError:
            break
        toks = ln.split()
        if not toks:
            continue
        kind = toks[0]
        record = tuple(toks[:2]) if kind in ("scalar", "vector", "matrix") else (kind,)
        if record in seen:
            raise CertificateFormatError(f"repeated record {' '.join(record)!r}")
        seen.add(record)
        if kind in ("system", "instance-hash", "n", "m", "value"):
            if len(toks) != 2:
                raise CertificateFormatError(f"malformed header line {ln!r}")
            fields[kind] = toks[1]
            continue
        if kind not in ("scalar", "vector", "matrix"):
            raise CertificateFormatError(f"unknown record kind {kind!r}")
        if len(toks) != 3:
            what = "value" if kind == "scalar" else "length"
            raise CertificateFormatError(f"record {ln!r} is not '{kind} <name> <{what}>'")
        name = toks[1]
        if kind == "scalar":
            scalars[name] = _floats(toks[2:], f"scalar {name}")[0]
            continue
        try:
            length = int(toks[2])
        except ValueError:
            raise CertificateFormatError(
                f"{kind} {name}: length {toks[2]!r} is not an integer"
            )
        if length < 0:
            raise CertificateFormatError(f"{kind} {name}: length {length} is negative")
        if kind == "vector":
            vals = np.array(_floats(next_line().split(), f"vector {name}"))
            if vals.shape != (length,):
                raise CertificateFormatError(f"vector {name}: expected {length} values")
            vectors[name] = vals
        else:
            rows = []
            for _ in range(length):
                row = _floats(next_line().split(), f"matrix {name}")
                if len(row) != length:
                    raise CertificateFormatError(f"matrix {name}: ragged row")
                rows.append(row)
            matrices[name] = np.array(rows)
    for req in ("system", "instance-hash", "n", "m"):
        if req not in fields:
            raise CertificateFormatError(f"missing header field {req}")
    system = fields["system"]
    if system not in SYSTEMS:
        raise CertificateFormatError(f"unknown system {system!r}")
    return CertificateFile(
        system=system,
        instance_hash=fields["instance-hash"],
        n=_header_int(fields, "n"),
        m=_header_int(fields, "m"),
        claimed_value=_floats([fields["value"]], "value")[0] if "value" in fields else None,
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
    digest = instance_digest(inst)
    if cf.instance_hash != digest:
        raise InstanceHashMismatchError(
            "certificate instance hash does not match the provided instance"
        )


_RUNG_RE = re.compile(r"^[UVy](\d+)$")


def to_ramana_certificate(cf: CertificateFile, inst: SdpInstance) -> RamanaCertificate:
    """Assemble the ladder from named records (missing rungs are zero)."""
    if cf.system not in (SYSTEM_DRAM, SYSTEM_ALTRAM, SYSTEM_PRAM):
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
    with_y = cf.system in (SYSTEM_DRAM, SYSTEM_ALTRAM)
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
    if cf.system not in (SYSTEM_DSTRONG, SYSTEM_PSTRONG):
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
