"""SDPA sparse format (.dat-s) reading and writing.

Instances are written as one dense block: the header lines m, nBLOCK,
block sizes (negative = diagonal), the rhs vector, then one entry line
"matno blkno i j value" per nonzero of the upper triangle, with matno 0
the objective matrix.  Reading accepts single-dense-block and
all-diagonal layouts; anything else raises UnsupportedBlockStructure.
A non-finite value or a repeated entry raises ParseError with its line.

Emitted standard-form SDPs use the same container.  The file encodes the
equality-standard-form data the usual way around: matno t holds the
coefficient matrices of constraint t, matno 0 the objective, the c line
the constraint right-hand sides.  Free scalars are split into a
difference of two entries of one trailing diagonal block (u = d_j -
d_{n_free+j}); the split, the block layout, and the variable map are
documented in a sidecar file next to the output.

Output is deterministic: fixed entry order (matno, then block, then
row-major upper triangle) and shortest round-trip float formatting, so
two writes of the same object are byte-identical.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .builders import StandardFormSdp
from .model import SdpInstance
from .symmat import SymMat


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedBlockStructureError(ValueError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _entry_lines(matno: int, blkno: int, mat: np.ndarray, out: list[str]) -> None:
    rows, cols = np.nonzero(np.triu(mat))  # row-major upper triangle
    for i, j, v in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()):
        out.append(f"{matno} {blkno} {i + 1} {j + 1} {_fmt(v)}")


def instance_to_sdpa_text(inst: SdpInstance) -> str:
    out = [str(inst.m), "1", str(inst.n), " ".join(_fmt(v) for v in inst.b)]
    _entry_lines(0, 1, inst.c.a, out)
    for t in range(inst.m):
        _entry_lines(t + 1, 1, inst.a[t].a, out)
    return "\n".join(out) + "\n"


def _free_split_entries(
    matno: int, blkno: int, n_free: int, coeffs: np.ndarray, out: list[str]
) -> None:
    for j in np.flatnonzero(coeffs).tolist():
        c = coeffs[j]
        out.append(f"{matno} {blkno} {j + 1} {j + 1} {_fmt(c)}")
        out.append(f"{matno} {blkno} {n_free + j + 1} {n_free + j + 1} {_fmt(-c)}")


def standard_form_to_sdpa_text(sdp: StandardFormSdp) -> str:
    nblocks = len(sdp.blocks) + (1 if sdp.n_free else 0)
    sizes = [str(b.order) for b in sdp.blocks]
    if sdp.n_free:
        sizes.append(str(-2 * sdp.n_free))
    out = [str(len(sdp.constraints)), str(nblocks), " ".join(sizes)]
    out.append(" ".join(_fmt(c.rhs) for c in sdp.constraints))
    sign = 1.0 if sdp.sense == "max" else -1.0
    block_index = {b.name: i + 1 for i, b in enumerate(sdp.blocks)}
    free_blk = len(sdp.blocks) + 1
    for name, k in sdp.objective_mats.items():
        _entry_lines(0, block_index[name], sign * k, out)
    if sdp.n_free and np.any(sdp.objective_free):
        _free_split_entries(0, free_blk, sdp.n_free, sign * sdp.objective_free, out)
    for t, con in enumerate(sdp.constraints, start=1):
        for name in sorted(con.mats, key=lambda nm: block_index[nm]):
            _entry_lines(t, block_index[name], con.mats[name], out)
        if sdp.n_free and con.free.size and np.any(con.free):
            _free_split_entries(t, free_blk, sdp.n_free, con.free, out)
    return "\n".join(out) + "\n"


def varmap_sidecar_text(sdp: StandardFormSdp) -> str:
    """Sidecar describing block layout, free-variable split, and var_map."""
    out = ["ramanasdp varmap 1", f"system {sdp.system}", f"sense {sdp.sense}"]
    out.append(f"objective-sign {1 if sdp.sense == 'max' else -1}")
    for i, b in enumerate(sdp.blocks, start=1):
        out.append(f"block {i} {b.name} {b.order}")
    if sdp.n_free:
        out.append(f"free-block {len(sdp.blocks) + 1} {2 * sdp.n_free}")
    for name in sorted(sdp.var_map):
        slot = sdp.var_map[name]
        if slot.kind == "free_vec":
            out.append(f"slot {name} free_vec {slot.offset} {slot.length}")
        elif slot.kind == "free_sym":
            out.append(f"slot {name} free_sym {slot.offset} {slot.length} {slot.order}")
        elif slot.kind == "block":
            out.append(f"slot {name} block {slot.block}")
        elif slot.kind == "sub_block":
            out.append(
                f"slot {name} sub_block {slot.block} {slot.row0} {slot.col0} "
                f"{slot.rows} {slot.cols}"
            )
        elif slot.kind == "tan_sum":
            out.append(f"slot {name} tan_sum {slot.block} {slot.order}")
    return "\n".join(out) + "\n"


def write_sdpa(obj: Union[SdpInstance, StandardFormSdp], path: str) -> None:
    """Write an instance or an emitted system; systems get a .varmap sidecar."""
    if isinstance(obj, SdpInstance):
        text = instance_to_sdpa_text(obj)
        sidecar = None
    elif isinstance(obj, StandardFormSdp):
        text = standard_form_to_sdpa_text(obj)
        sidecar = varmap_sidecar_text(obj)
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as SDPA")
    try:
        with open(path, "w") as fh:
            fh.write(text)
        if sidecar is not None:
            with open(str(path) + ".varmap", "w") as fh:
                fh.write(sidecar)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] in "*\"":
            continue
        # SDPA allows {}, (), and commas as separators in header lines.
        for ch in "{}(),":
            stripped = stripped.replace(ch, " ")
        lines.append((lineno, stripped.split()))
    return lines


def read_sdpa_text(text: str) -> SdpInstance:
    lines = _tokenize(text)
    if len(lines) < 4:
        raise ParseError("file has fewer than four header lines", len(lines))
    pos = 0

    def take() -> tuple[int, list[str]]:
        nonlocal pos
        ln = lines[pos]
        pos += 1
        return ln

    lineno, toks = take()
    try:
        m = int(toks[0])
    except ValueError:
        raise ParseError(f"expected constraint count, got {toks[0]!r}", lineno)
    lineno, toks = take()
    try:
        nblocks = int(toks[0])
    except ValueError:
        raise ParseError(f"expected block count, got {toks[0]!r}", lineno)
    lineno, toks = take()
    if len(toks) != nblocks:
        raise ParseError(f"expected {nblocks} block sizes, got {len(toks)}", lineno)
    try:
        sizes = [int(t) for t in toks]
    except ValueError:
        raise ParseError("block sizes must be integers", lineno)
    if nblocks == 1 and sizes[0] > 0:
        diagonal = False
        offsets = [0]
        n = sizes[0]
    elif all(s < 0 for s in sizes):
        diagonal = True
        offsets = list(np.cumsum([0] + [-s for s in sizes[:-1]]))
        n = int(sum(-s for s in sizes))
    else:
        raise UnsupportedBlockStructureError(
            f"unsupported block structure {sizes}; only one dense block or "
            "all-diagonal blocks are readable"
        )
    # The rhs vector may span several lines.
    b_vals: list[float] = []
    while len(b_vals) < m:
        if pos == len(lines):
            raise ParseError(f"expected {m} rhs values, got {len(b_vals)}", lineno)
        lineno, toks = take()
        try:
            b_vals.extend(float(t) for t in toks)
        except ValueError:
            raise ParseError("right-hand side must be numeric", lineno)
        if not all(math.isfinite(v) for v in b_vals):
            raise ParseError("right-hand side value is not finite", lineno)
    if len(b_vals) != m:
        raise ParseError(f"expected {m} rhs values, got {len(b_vals)}", lineno)
    mats = [np.zeros((n, n)) for _ in range(m + 1)]
    seen: set[tuple[int, int, int, int]] = set()
    while pos < len(lines):
        lineno, toks = take()
        if len(toks) != 5:
            raise ParseError(f"expected 5 fields, got {len(toks)}", lineno)
        try:
            matno, blkno, i, j = (int(t) for t in toks[:4])
            value = float(toks[4])
        except ValueError:
            raise ParseError("malformed entry line", lineno)
        if not math.isfinite(value):
            raise ParseError(f"entry value {toks[4]!r} is not finite", lineno)
        if (matno, blkno, i, j) in seen:
            raise ParseError(f"repeated entry ({matno}, {blkno}, {i}, {j})", lineno)
        seen.add((matno, blkno, i, j))
        if not 0 <= matno <= m:
            raise ParseError(f"matrix index {matno} outside 0..{m}", lineno)
        if not 1 <= blkno <= nblocks:
            raise ParseError(f"block index {blkno} outside 1..{nblocks}", lineno)
        if j < i:
            raise ParseError(f"lower-triangle entry ({i},{j}); upper required", lineno)
        if diagonal:
            if i != j:
                raise ParseError("off-diagonal entry in a diagonal block", lineno)
            size = -sizes[blkno - 1]
            if not 1 <= i <= size:
                raise ParseError(f"index {i} outside diagonal block of size {size}", lineno)
            gi = offsets[blkno - 1] + i - 1
            mats[matno][gi, gi] = value
        else:
            if not 1 <= i <= j <= n:
                raise ParseError(f"index ({i},{j}) outside block of order {n}", lineno)
            mats[matno][i - 1, j - 1] = value
            mats[matno][j - 1, i - 1] = value
    return SdpInstance(
        a=tuple(SymMat(mats[t]) for t in range(1, m + 1)),
        b=np.array(b_vals),
        c=SymMat(mats[0]),
    )


def read_sdpa(path: str) -> SdpInstance:
    """Parse an instance from an SDPA sparse file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    return read_sdpa_text(text)
