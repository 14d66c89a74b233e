"""SDPA sparse format (.dat-s) reading and writing.

Instances are written as one dense block: the header lines m, nBLOCK,
block sizes (negative = diagonal), the rhs vector, then one entry line
"matno blkno i j value" per nonzero of the upper triangle, with matno 0
the objective matrix.  Reading accepts single-dense-block and
all-diagonal layouts; anything else raises UnsupportedBlockStructure.
A non-finite value or a repeated entry raises ParseError with its line.

Emitted standard-form SDPs use the same container.  The file encodes the
equality-standard-form data the usual way around: matno t holds the
coefficient matrices of constraint t, matno 0 the objective, whose
entries all lie in the free block, the c line the constraint right-hand
sides.  Free scalars are split into a difference of two entries of one
trailing diagonal block (u = d_j - d_{n_free+j}); the split, the block
layout, and the variable map are documented in a sidecar file next to
the output.

Output is deterministic: fixed entry order (matno, then block, then
row-major upper triangle) and shortest round-trip float formatting, so
two writes of the same object are byte-identical.  write_sdpa writes the
text chunk by chunk as it is formatted, _CHUNK_ROWS rows a chunk, so the
whole text is never held; the *_text functions join the same chunks.

An emitted system is written straight from its tables, read by slices:
no table is turned into lists.  Each matrix of the coefficient table
becomes a template, its lines with the "matno blkno " prefix left open
for each row to splice in, and each free row two joined texts, the line
ends of its values and of their negations, which each use splits and
interleaves with its line prefixes.  The write counts the uses of each
table entry, a bincount of the rows' id arrays, and keeps a text only
while uses remain, so text used once is never kept.  Instance text keeps
no memo: its matrices do not repeat, so instance_digest holds one
matrix's lines at a time.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, Iterator, Union

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


# Rows per chunk of an emitted system.  A chunk holds its rows' text twice
# (the pieces and their join), and a pram row at n = 18 can take 14 kB: the
# write of that system peaked at 2.6 MB with 32-row chunks and at 12.6 MB
# with 256-row ones, at the same speed.
_CHUNK_ROWS = 32
# rhs values per chunk of the header line: a system's rhs line can hold
# tens of thousands of values, and formatting it whole set the write peak.
_RHS_VALUES = 256


@functools.lru_cache(maxsize=64)
def _ij_texts(order: int) -> tuple[tuple[str, ...], ...]:
    """The text "i j " (1-based) of entry (i, j), i <= j, of an order-n
    matrix, and "" below the diagonal, which no entry reaches."""
    rows = range(1, order + 1)
    return tuple(tuple(f"{i} {j} " if i <= j else "" for j in rows) for i in rows)


@functools.lru_cache(maxsize=64)
def _diag_texts(size: int) -> tuple[str, ...]:
    """The text "j j " of each entry of a diagonal block, from j = 1."""
    return tuple(f"{j} {j} " for j in range(1, size + 1))


def _memo(size: int, ids: np.ndarray, make: Callable) -> Callable:
    """text(k) = make(k), made once and kept only while ids holds a use of
    k not yet asked for, so text used once is never kept."""
    left, memo = np.bincount(ids, minlength=size).tolist(), [None] * size

    def text(k: int):
        left[k] -= 1
        out = make(k) if memo[k] is None else memo[k]
        memo[k] = out if left[k] else None
        return out

    return text


def instance_chunks(inst: SdpInstance) -> Iterator[str]:
    """The header, then one chunk per matrix: an instance's matrices do not
    repeat, so nothing is kept from one matrix to the next."""
    yield "\n".join([str(inst.m), "1", str(inst.n), " ".join(map(repr, inst.b.tolist()))]) + "\n"
    i, j = np.triu_indices(inst.n)
    ij = _ij_texts(inst.n)
    for t, mat in enumerate((inst.c,) + tuple(inst.a)):
        tri = mat.a[i, j]
        k = np.flatnonzero(tri)
        pre, entries = f"{t} 1 ", zip(i[k].tolist(), j[k].tolist(), tri[k].tolist())
        yield "".join([f"{pre}{ij[a][b]}{x!r}\n" for a, b, x in entries])


def instance_to_sdpa_text(inst: SdpInstance) -> str:
    return "".join(instance_chunks(inst))


def _standard_form_chunks(sdp: StandardFormSdp) -> Iterator[str]:
    """The header lines, then one "matno blkno i j value" line per stored
    entry of each row's matrices, in row order, then block order, and
    row-major within a block.  A free row's entry c_j becomes the pairs
    (j, c_j) and (n_free + j, -c_j) of the free block, numbered after the
    other blocks, after the row's other blocks."""
    n_free, free_blk, rows = sdp.n_free, len(sdp.blocks) + 1, sdp.rhs.size
    sizes = [str(b.order) for b in sdp.blocks] + [str(-2 * n_free)] * (n_free > 0)
    yield f"{rows}\n{len(sizes)}\n{' '.join(sizes)}\n"
    for lo in range(0, rows, _RHS_VALUES):
        yield " ".join(map(repr, sdp.rhs[lo : lo + _RHS_VALUES].tolist())) + (
            " " if lo + _RHS_VALUES < rows else ""
        )
    yield "\n"
    diag = _diag_texts(2 * n_free)
    ij = _ij_texts(max((b.order for b in sdp.blocks), default=1))
    cptr, ci, cj, cv, free_j = sdp.coeff_ptr, sdp.coeff_i, sdp.coeff_j, sdp.coeff_v, sdp.free_j
    fptr = sdp.free_ptr.tolist()

    def mat_lines(k):
        lo, hi = cptr.item(k), cptr.item(k + 1)
        if hi - lo == 1:  # most matrices of a ladder are units
            return f"\0{ij[ci.item(lo)][cj.item(lo)]}{cv.item(lo)!r}\n"
        entries = zip(ci[lo:hi].tolist(), cj[lo:hi].tolist(), cv[lo:hi].tolist())
        return "".join([f"\0{ij[a][b]}{x!r}\n" for a, b, x in entries])

    def value_texts(f, sign=1.0):
        # The line ends "c\n" of the values c of free row f, joined by
        # spaces, and those of -c: each text with its sign flipped, as
        # repr(-c) gives it, by taking the "-" after each space and putting
        # one after every other space.
        vals = sdp.free_v[fptr[f] : fptr[f + 1]]
        pos = "\n ".join(map(repr, (vals if sign > 0 else -vals).tolist())) + "\n"
        return pos, (" " + pos).replace(" -", " +").replace(" ", " -").replace("-+", "")[1:]

    def free_lines(pre, f, off, texts):
        # The pieces pre, "j j ", "c\n", pre, "n_free+j n_free+j ", "-c\n"
        # of each entry c_j.
        lo, hi = fptr[f], fptr[f + 1]
        j0, k = free_j.item(lo) + off, hi - lo
        out = [pre] * (6 * k)
        out[2::6], out[5::6] = texts[0].split(" "), texts[1].split(" ")
        if free_j.item(hi - 1) + off - j0 == k - 1:  # consecutive entries
            out[1::6], out[4::6] = diag[j0 : j0 + k], diag[n_free + j0 : n_free + j0 + k]
        else:
            js = free_j[lo:hi].tolist()
            out[1::6], out[4::6] = [diag[off + j] for j in js], [diag[n_free + off + j] for j in js]
        return out

    f, free_pre = sdp.objective_row, f" {free_blk} "
    if fptr[f] < fptr[f + 1]:
        yield "".join(free_lines("0" + free_pre, f, 0, value_texts(f, 1.0 if sdp.sense == "max" else -1.0)))
    mat_text = _memo(cptr.size - 1, sdp.entry_coeff, mat_lines)
    free_text = _memo(len(fptr) - 1, sdp.row_free, value_texts)
    blk_pre = [f" {b + 1} " for b in range(len(sdp.blocks))]
    for lo in range(0, rows, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, rows)
        e0, e1 = sdp.row_ptr[lo], sdp.row_ptr[hi]
        ptr = (sdp.row_ptr[lo : hi + 1] - e0).tolist()
        entries = list(zip(sdp.entry_block[e0:e1].tolist(), sdp.entry_coeff[e0:e1].tolist()))
        frees, offs = sdp.row_free[lo:hi].tolist(), sdp.row_offset[lo:hi].tolist()
        pieces = []
        for t, a, z, f, off in zip(range(lo + 1, hi + 1), ptr, ptr[1:], frees, offs):
            t = str(t)
            pieces += [mat_text(k).replace("\0", t + blk_pre[b]) for b, k in entries[a:z]]
            if fptr[f] < fptr[f + 1]:
                pieces += free_lines(t + free_pre, f, off, free_text(f))
        yield "".join(pieces)


def standard_form_to_sdpa_text(sdp: StandardFormSdp) -> str:
    return "".join(_standard_form_chunks(sdp))


_SLOT_FIELDS = {
    "free_vec": ("offset", "length"), "free_sym": ("offset", "length", "order"),
    "block": ("block",), "sub_block": ("block", "row0", "col0", "rows", "cols"),
    "tan_sum": ("block", "order"),
}


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
        fields = [str(getattr(slot, f)) for f in _SLOT_FIELDS[slot.kind]]
        out.append(" ".join(["slot", name, slot.kind, *fields]))
    return "\n".join(out) + "\n"


def write_sdpa(obj: Union[SdpInstance, StandardFormSdp], path: str) -> None:
    """Write an instance or an emitted system; systems get a .varmap sidecar.
    The text is written chunk by chunk as it is formatted; if formatting
    fails part way, or the sidecar cannot be written, the data file is
    removed."""
    if isinstance(obj, SdpInstance):
        chunks, sidecar = instance_chunks(obj), None
    elif isinstance(obj, StandardFormSdp):
        chunks, sidecar = _standard_form_chunks(obj), varmap_sidecar_text(obj)
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as SDPA")
    try:
        with open(path, "w") as fh:
            try:
                fh.writelines(chunks)
                fh.close()
                if sidecar is not None:
                    with open(str(path) + ".varmap", "w") as side:
                        side.write(sidecar)
            except BaseException:
                # A truncated file would read as a system with entries
                # missing, and one without its own sidecar with another
                # system's variable map or none.
                fh.close()
                os.remove(path)
                raise
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

    def take_count(what: str) -> int:
        lineno, toks = take()
        if not toks:
            raise ParseError(f"expected {what}, got an empty line", lineno)
        try:
            return int(toks[0])
        except ValueError:
            raise ParseError(f"expected {what}, got {toks[0]!r}", lineno)

    m = take_count("constraint count")
    nblocks = take_count("block count")
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
