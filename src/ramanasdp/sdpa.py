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
two writes of the same object are byte-identical.  One private core
formats a bounded chunk of matrices at a time, with numpy doing the
per-entry work, and write_sdpa writes each chunk as it is produced, so
the whole text is never held; the *_text functions join the same chunks.
An emitted system's write keeps one memo for all its chunks: each
distinct matrix object's upper-triangle nonzeros (the builders share a
matrix among every constraint that uses it) and each distinct value's
text, so each is found or formatted once per write.  Instance text takes
no memo: its matrices do not repeat, and a memo would hold what it found
until the write ends, where instance_digest, which hashes this text while
a certificate is checked, needs each chunk's memory freed with the chunk.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import Iterable, Iterator, Optional, Union

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


# One matrix of the file: (matno, {blkno: dense matrix}, free vector), with
# matno 0 the objective.
_Row = tuple[int, dict[int, np.ndarray], np.ndarray]

# What one chunk holds grows with its rows (their stacked upper triangles)
# and with its entries (their index arrays and text).  A chunk takes the
# rows that, at the previous chunk's entries per row, give about
# _CHUNK_ENTRIES entries, and never more than _CHUNK_ROWS rows.  Sparse
# emitted systems get chunks of about 100 rows; the text of an instance of
# nine dense order-24 matrices peaks at 0.29 MB, where one chunk of all
# nine (a bound on rows alone) peaked at 0.74 MB and the per-matrix writer
# this core replaced at 0.34 MB.
_CHUNK_ROWS = 256
_CHUNK_ENTRIES = 1024


@functools.lru_cache(maxsize=64)
def _triu_texts(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the row-major upper triangle of an order-n matrix,
    and the text "i j " (1-based) of each of its entries."""
    rows, cols = np.triu_indices(order)
    flat = rows * order + cols
    ij = np.array([f"{i + 1} {j + 1} " for i, j in zip(rows.tolist(), cols.tolist())], dtype=object)
    for arr in (flat, ij):
        arr.setflags(write=False)
    return flat, ij


@functools.lru_cache(maxsize=64)
def _diag_texts(size: int) -> np.ndarray:
    """The text "j j " of each entry of a diagonal block, from j = 1."""
    ij = np.array([f"{j} {j} " for j in range(1, size + 1)], dtype=object)
    ij.setflags(write=False)
    return ij


class _WriteMemo:
    """What one write has formatted, for the matrices and values that its
    rows share: the "i j " texts and values of each distinct matrix
    object's upper-triangle nonzeros, keyed by id and kept next to the
    matrix so that the id is not reused, and the text of each distinct
    value."""

    def __init__(self):
        self.mats: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.texts: dict[float, str] = {}

    def entries(self, mat: np.ndarray, flat: np.ndarray, ij: np.ndarray):
        hit = self.mats.get(id(mat))
        if hit is None:
            tri = mat.take(flat)
            k = np.flatnonzero(tri)
            hit = self.mats[id(mat)] = (mat, ij[k], tri[k])
        return hit[1], hit[2]

    def text(self, value: float) -> str:
        return self.texts.get(value) or self.texts.setdefault(value, repr(value) + "\n")


def _sdpa_chunks(
    header: list[str],
    rows: Iterable[_Row],
    free_blk: int = 0,
    n_free: int = 0,
    memo: Optional[_WriteMemo] = None,
) -> Iterator[str]:
    """The header lines, then one "matno blkno i j value" line per nonzero
    of each row's upper triangles, ordered by (matno, blkno) and row-major
    within a block.  A free vector c becomes the pairs (j, c_j) and
    (n_free + j, -c_j) of block free_blk.  With a memo, a matrix or value
    that repeats across rows is scanned or formatted once per write;
    without one, each chunk stacks its matrices and scans them together."""
    yield "\n".join(header) + "\n"
    rows, size = iter(rows), 1
    while run := list(itertools.islice(rows, size)):
        by_block: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for matno, mats, _ in run:
            for blkno, mat in mats.items():
                entry = by_block.setdefault(blkno, ([], []))
                entry[0].append(matno)
                entry[1].append(mat)
        parts = []  # (matno, blkno, "i j " text, value) of each entry, per block
        for blkno, (matnos, mats) in by_block.items():
            flat, ij = _triu_texts(mats[0].shape[0])
            if memo is None:
                tri = np.empty((len(mats), flat.size))
                for out, mat in zip(tri, mats):
                    out[:] = mat.take(flat)
                r, k = np.nonzero(tri)
                parts.append((np.asarray(matnos)[r], np.full(r.size, blkno), ij[k], tri[r, k]))
            else:
                ijs, vals = zip(*(memo.entries(mat, flat, ij) for mat in mats))
                counts = [v.size for v in vals]
                parts.append((
                    np.repeat(matnos, counts),
                    np.full(sum(counts), blkno),
                    np.concatenate(ijs),
                    np.concatenate(vals),
                ))
        frees = [(matno, free) for matno, _, free in run if free.size] if n_free else []
        if frees:
            coeffs = np.array([free for _, free in frees], dtype=float)
            r, j = np.nonzero(coeffs)
            c = coeffs[r, j]
            pos = np.stack([j, n_free + j], axis=1).ravel()
            parts.append((
                np.repeat(np.asarray([matno for matno, _ in frees])[r], 2),
                np.full(pos.size, free_blk),
                _diag_texts(2 * n_free)[pos],
                np.stack([c, -c], axis=1).ravel(),
            ))
        entries = sum(part[0].size for part in parts)
        size = min(_CHUNK_ROWS, max(1, _CHUNK_ENTRIES * len(run) // max(entries, 1)))
        if not entries:
            continue
        matno, blkno, ij, vals = (np.concatenate(col) for col in zip(*parts))
        # Stable: keeps the row-major and pair order inside each group.
        perm = np.lexsort((blkno, matno))
        uniq, inv = np.unique(vals[perm], return_inverse=True)
        # Each line is four shared strings, joined once: no string per line.
        pieces = np.empty((entries, 4), dtype=object)
        pieces[:, 0] = _int_texts(matno[perm])
        pieces[:, 1] = _int_texts(blkno[perm])
        pieces[:, 2] = ij[perm]
        if memo is None:
            pieces[:, 3] = np.array([repr(v) + "\n" for v in uniq.tolist()], dtype=object)[inv]
        else:
            pieces[:, 3] = np.array([memo.text(v) for v in uniq.tolist()], dtype=object)[inv]
        yield "".join(pieces.ravel().tolist())


def _int_texts(values: np.ndarray) -> np.ndarray:
    """Object array of "k " for each k of values: a chunk's matrix or block
    numbers, whose range is at most the chunk's rows or the blocks."""
    lo = int(values.min())
    table = np.array([f"{k} " for k in range(lo, int(values.max()) + 1)], dtype=object)
    return table[values - lo]


def _instance_chunks(inst: SdpInstance) -> Iterator[str]:
    header = [str(inst.m), "1", str(inst.n), " ".join(_fmt(v) for v in inst.b)]
    mats, no_free = (inst.c,) + tuple(inst.a), np.zeros(0)
    return _sdpa_chunks(header, ((t, {1: mat.a}, no_free) for t, mat in enumerate(mats)))


def instance_to_sdpa_text(inst: SdpInstance) -> str:
    return "".join(_instance_chunks(inst))


def _standard_form_chunks(sdp: StandardFormSdp) -> Iterator[str]:
    nblocks = len(sdp.blocks) + (1 if sdp.n_free else 0)
    sizes = [str(b.order) for b in sdp.blocks]
    if sdp.n_free:
        sizes.append(str(-2 * sdp.n_free))
    header = [str(len(sdp.constraints)), str(nblocks), " ".join(sizes)]
    header.append(" ".join(_fmt(c.rhs) for c in sdp.constraints))
    sign = 1.0 if sdp.sense == "max" else -1.0
    block_index = {b.name: i + 1 for i, b in enumerate(sdp.blocks)}
    objective = (
        0,
        {block_index[name]: sign * k for name, k in sdp.objective_mats.items()},
        sign * sdp.objective_free,
    )
    rows = (
        (t, {block_index[name]: k for name, k in con.mats.items()}, con.free)
        for t, con in enumerate(sdp.constraints, start=1)
    )
    return _sdpa_chunks(
        header, itertools.chain([objective], rows), len(sdp.blocks) + 1, sdp.n_free, _WriteMemo()
    )


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
        chunks = _instance_chunks(obj)
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
