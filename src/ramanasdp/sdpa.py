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
two writes of the same object are byte-identical.  write_sdpa writes the
text chunk by chunk as it is formatted, _CHUNK_ROWS rows a chunk, so the
whole text is never held; the *_text functions join the same chunks.

An emitted system is written straight from its row tables: each
SparseSym becomes a template, its stored entries' lines with the
"matno blkno " prefix left open, into which each row splices its prefix,
and each SparseVec its pairs of free-block lines.  The write first counts
the uses of each table entry, a bincount of the rows' id arrays, and
keeps a template, or the texts of a free row's values, in a list by id
only while uses remain, so text used once is never kept.  Instance text
keeps no memo and formats each matrix through its sparse form, one per
chunk: its matrices do not repeat, so instance_digest, which hashes this
text to check a certificate file that carries the older instance-hash
field, holds one matrix's lines at a time.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .builders import SparseSym, StandardFormSdp
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


# Rows per chunk of an emitted system.  A chunk holds its rows' text twice
# (the pieces and their join), and a pram row at n = 18 can take 14 kB: the
# write of that system peaked at 2.6 MB with 32-row chunks and at 12.6 MB
# with 256-row ones, at the same speed.
_CHUNK_ROWS = 32


@functools.lru_cache(maxsize=64)
def _ij_texts(order: int) -> tuple[tuple[str, ...], ...]:
    """The text "i j " (1-based) of entry (i, j) of an order-n matrix."""
    return tuple(tuple(f"{i} {j} " for j in range(1, order + 1)) for i in range(1, order + 1))


@functools.lru_cache(maxsize=64)
def _diag_texts(size: int) -> tuple[str, ...]:
    """The text "j j " of each entry of a diagonal block, from j = 1."""
    return tuple(f"{j} {j} " for j in range(1, size + 1))


def _template(k: SparseSym) -> str:
    r"""The line "\0i j value\n" of each stored entry of k, row-major;
    replacing "\0" by "matno blkno " gives a row's lines."""
    ij = _ij_texts(k.order)
    return "".join([f"\0{ij[i][j]}{v!r}\n" for i, j, v in zip(k.rows, k.cols, k.vals)])


def _value_texts(vals: np.ndarray) -> tuple[list[str], list[str]]:
    """The line ends "value\n" of each value and of its negation."""
    pos, neg = [], []
    for v in vals.tolist():
        # The text of -v is that of v with its sign flipped; nan has none.
        text = repr(v)
        pos.append(text + "\n")
        neg.append((text[1:] if text[0] == "-" else "-" + text if v == v else text) + "\n")
    return pos, neg


def _memo(table: Sequence, ids: np.ndarray, make: Callable) -> Callable[[int], object]:
    """text(k) = make(table[k]), made once and kept only while ids holds a
    use of k not yet asked for, so text used once is never kept."""
    left = np.bincount(ids, minlength=len(table)).tolist()
    memo: list = [None] * len(table)

    def text(k: int):
        left[k] -= 1
        out = memo[k]
        if out is None:
            out = make(table[k])
        memo[k] = out if left[k] else None
        return out

    return text


def instance_chunks(inst: SdpInstance) -> Iterator[str]:
    """The header, then one chunk per matrix: an instance's matrices do not
    repeat, so nothing is kept from one matrix to the next."""
    yield "\n".join([str(inst.m), "1", str(inst.n), " ".join(_fmt(v) for v in inst.b)]) + "\n"
    for t, mat in enumerate((inst.c,) + tuple(inst.a)):
        yield _template(SparseSym.from_dense(mat.a)).replace("\0", f"{t} 1 ")


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
    yield f"{rows}\n{len(sizes)}\n{' '.join(sizes)}\n{' '.join(map(repr, sdp.rhs.tolist()))}\n"
    diag = _diag_texts(2 * n_free)

    def free_lines(t, v, off, texts):
        # Free rows have length n_free or 0, so one with entries has n_free.
        pre, (pos, neg) = f"{t} {free_blk} ", texts
        return [
            f"{pre}{diag[off + j]}{p}{pre}{diag[n_free + off + j]}{q}"
            for j, p, q in zip(v.idx.tolist(), pos, neg)
        ]

    sign = 1.0 if sdp.sense == "max" else -1.0
    index = {b.name: i + 1 for i, b in enumerate(sdp.blocks)}
    pieces = [
        _template(sdp.objective_mats[name].signed(sign)).replace("\0", f"0 {index[name]} ")
        for name in sorted(sdp.objective_mats, key=index.__getitem__)
    ]
    obj = sdp.objective_free.signed(sign)
    yield "".join(pieces + free_lines(0, obj, obj.offset, _value_texts(obj.vals)))
    mat_text = _memo(sdp.coeffs, sdp.entry_coeff, _template)
    free_text = _memo(sdp.free_rows, sdp.row_free, lambda v: _value_texts(v.vals))
    for lo in range(0, rows, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, rows)
        e0, e1 = sdp.row_ptr[lo], sdp.row_ptr[hi]
        ptr = (sdp.row_ptr[lo : hi + 1] - e0).tolist()
        entries = list(zip(sdp.entry_block[e0:e1].tolist(), sdp.entry_coeff[e0:e1].tolist()))
        frees, offs = sdp.row_free[lo:hi].tolist(), sdp.row_offset[lo:hi].tolist()
        pieces = []
        for t, a, z, f, off in zip(range(lo + 1, hi + 1), ptr, ptr[1:], frees, offs):
            pieces += [mat_text(k).replace("\0", f"{t} {b + 1} ") for b, k in entries[a:z]]
            if sdp.free_rows[f].size:
                pieces += free_lines(t, sdp.free_rows[f], off, free_text(f))
        yield "".join(pieces)


def standard_form_to_sdpa_text(sdp: StandardFormSdp) -> str:
    return "".join(_standard_form_chunks(sdp))


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
    """Write an instance or an emitted system; systems get a .varmap sidecar.
    The text is written chunk by chunk as it is formatted; if formatting
    fails part way, the partial file is removed."""
    if isinstance(obj, SdpInstance):
        chunks = instance_chunks(obj)
        sidecar = None
    elif isinstance(obj, StandardFormSdp):
        chunks = _standard_form_chunks(obj)
        sidecar = varmap_sidecar_text(obj)
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as SDPA")
    try:
        with open(path, "w") as fh:
            try:
                fh.writelines(chunks)
            except BaseException:
                # A truncated file would read as a system with entries missing.
                fh.close()
                os.remove(path)
                raise
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
