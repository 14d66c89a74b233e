"""Explicit standard-form SDPs for the exact duals and alternative systems.

Every system here is one of verify's five, emitted as one
StandardFormSdp: a list of PSD block variables plus one free-scalar
vector, linear equality constraints, and a linear objective in the free
scalars alone.  The tangent-space constraint V ∈ tan(U) is what makes
the exact dual an explicit SDP: the existential witness pair (W, R) of

    V = W + Wᵀ,   [[U, W], [Wᵀ, R]] PSD

becomes a single PSD block variable T of order 2n whose upper-left corner
is tied entrywise to U; W and R are addressed as sub-blocks of T, and V
is the derived expression W + Wᵀ.

The exact dual, the exact alternative system and the exact primal share
one ladder, assembled once: rungs i = 1..L with PSD blocks U_i and
V_i ∈ tan(U_{i-1}) carried by a coupling block T_i (none for i = 1, as
U_0 = 0), under a head Z = P + V_head with P PSD and V_head ∈ tan(U_L)
carried by the coupling block Thead.  The three systems differ in Z
(C - 𝒜*y, 𝒜*y or X), in the rung equations and in L: the exact primal
has L = n - 1 rungs, as its U_i + V_i range over the null space of
(𝒜, C); the exact dual and the alternative system have
L = min(n - 1, m), proved below.  L = 0 is the zero-rung ladder: one
block P with Z = P.  A ladder of L rungs has 2L + 1 PSD blocks (L + 1 of
order n, L of order 2n); the exact dual with m equalities has m·(L + 1)
free scalars y, y^1..y^L.

Why min(n - 1, m) rungs suffice.  Write Y|K for the quadratic form of a
symmetric Y restricted to a subspace K.  V ∈ tan(U) exactly when
V|ker U = 0, so Z ∈ S₊ + tan(U) exactly when Z|ker U ⪰ 0.  Take a
feasible dram or altram ladder of n - 1 rungs, Y_i = 𝒜*y^i = U_i + V_i,
and let K_0 = Rⁿ, K_i = {x ∈ K_{i-1} : xᵀY_i x = 0}.

  (a) Y_i|K_{i-1} ⪰ 0 and K_i ⊆ ker U_i.  By induction K_{i-1} ⊆
      ker U_{i-1}, so V_i|K_{i-1} = 0 and Y_i|K_{i-1} = U_i|K_{i-1} ⪰ 0.
      K_i is then the kernel of that PSD form, a subspace, and x ∈ K_i
      has xᵀU_i x = 0, hence U_i x = 0.
  (b) Call rung i strict when Y_i|K_{i-1} ≠ 0; a rung that is not strict
      leaves K_i = K_{i-1}.  The y^i of the strict rungs are linearly
      independent: in a combination Σ c_i y^i = 0 over them, let j be the
      last index with c_j ≠ 0 and restrict Σ c_i Y_i = 0 to K_{j-1}.  An
      earlier Y_i vanishes there, as K_{j-1} ⊆ K_i and Y_i|K_i = 0, which
      leaves c_j Y_j|K_{j-1} = 0, a contradiction.  So at most
      min(n - 1, m) rungs are strict.  (They also lie in b^⊥, so at most
      m - 1 when b ≠ 0; the bound min(n - 1, m) covers b = 0 as well.)
  (c) Keep the strict rungs in order, front-padded with zero rungs, and
      replace each strict rung's pair by U' = ΠY_iΠ + (I - Π),
      V' = Y_i - U', Π the orthogonal projector onto K_{i-1}.  Then U' is
      PSD by (a) with ker U' = K_i, and V'|K_{i-1} = 0 where K_{i-1} is
      the kernel of the previous kept U' (Rⁿ before the first), so
      V' ∈ tan of it; y^i and <b, y^i> = 0 are unchanged.  The last kept
      kernel is K_{n-1} ⊆ ker U_{n-1}, so the head Z, which has
      Z|ker U_{n-1} ⪰ 0, passes with the same y.

So every feasible y of the (n - 1)-rung system is feasible for the
L-rung system, and a short ladder front-padded with zero rungs is an
(n - 1)-rung one: the two systems have the same feasible y, the same
value and the same feasibility.  The strict rungs are those with r_i > 0
in normalize_ladder's report (r_i = dim K_{i-1} - dim K_i).  The
builders never solve anything: the strong systems take their face from
the RR-form construction.

Every system is one coordinate table, CSR-style: the distinct matrices
as the upper-triangle nonzeros of each, row-major, in int32 coordinate
and float64 value arrays, the distinct free rows the same way, the rows
as int32 id arrays into both and the objective as one free row's id,
with no object per row or per coefficient.  The StandardFormSdp
constructor, which takes the tables and checks them, is the one way to
make a system; the builders fill theirs through _Rows.  They append
whole sections with numpy: the units sign·E_pq of every svec pair, their
coupling matrices and the corner ties' matrices take a few array
operations each.  No ladder coefficient depends on the rung, so a ladder
system references O(n³) matrices but holds O(n²).  residuals are one
gather and bincount per table, and the SDPA writer formats each table
entry once per write.
"""

from __future__ import annotations

import functools
import operator
import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import SdpInstance, apply_at, dual_slack, independent_stack, svec_index, svec_order
from .symmat import EPS_PSD, SymMat, classify_psd, split_psd_plus_tan, tangent_witness
from .verify import (
    SYSTEM_ALTRAM, SYSTEM_DRAM, SYSTEM_PRAM, StrongDualSpec, dual_ladder_length,
    leading_zero_rungs, pad_ladder,
)

SENSE_MIN = "min"
SENSE_MAX = "max"


@dataclass(frozen=True)
class PsdBlock:
    name: str
    order: int


@dataclass(frozen=True)
class VarSlot:
    """Location of a named mathematical variable inside the SDP storage.

    kinds: free_vec (offset/length into the free vector), free_sym
    (upper-triangle layout of a symmetric matrix in the free vector),
    block (a whole PSD block), sub_block (rectangular part of a block),
    tan_sum (derived value W + Wᵀ from a coupling block).
    """

    kind: str
    block: Optional[str] = None
    offset: int = 0
    length: int = 0
    order: int = 0
    row0: int = 0
    col0: int = 0
    rows: int = 0
    cols: int = 0


def _rising(ptr: np.ndarray, major: np.ndarray, minor: Optional[np.ndarray] = None) -> bool:
    """Whether each segment's entries rise strictly, by major or (major, minor)."""
    up = major[1:] > major[:-1]
    if minor is not None:
        up |= (major[1:] == major[:-1]) & (minor[1:] > minor[:-1])
    starts = ptr[1:-1]
    up[starts[(starts > 0) & (starts < major.size)] - 1] = True
    return bool(up.all())


def _within(ids: np.ndarray, size: int) -> bool:
    """Whether every id lies in 0..size - 1."""
    return not ids.size or 0 <= ids.min() and ids.max() < size


def _outside(first: np.ndarray, last: np.ndarray, ids: np.ndarray, offs: np.ndarray, n: int) -> np.ndarray:
    """Whether each span first[ids]..last[ids] - 1, moved by offs, leaves 0..n - 1."""
    lo, hi = first[ids], last[ids]
    lo += offs
    hi += offs
    return (lo < 0) | (hi > n)


def _kept(a, dtype) -> np.ndarray:
    """a itself when no one can write through it, an ndarray of dtype that
    is read-only and owns its data; else a read-only copy."""
    if not (type(a) is np.ndarray and a.dtype == dtype and not a.flags.writeable
            and a.flags.owndata):
        a = np.array(a, dtype)
        a.flags.writeable = False
    return a


class _RowView(NamedTuple):
    name: str
    mats: dict[str, np.ndarray]
    free: np.ndarray
    rhs: float


def _segments(ptr: np.ndarray, n: int, *cols: np.ndarray) -> bool:
    """Whether ptr cuts each of cols into n segments, rising from 0."""
    return (ptr.size == n + 1 > 0 and ptr[0] == 0 and all(ptr[-1] == c.size for c in cols)
            and bool(np.all(np.diff(ptr) >= 0)))


@dataclass(frozen=True)
class StandardFormSdp:
    """An emitted system as one coordinate table, and the one way to make
    one.  Matrix k has order coeff_order[k] and the entries
    coeff_ptr[k]..coeff_ptr[k + 1] - 1 of coeff_i, coeff_j and coeff_v,
    the nonzeros of its upper triangle in row-major order; free row f the
    entries free_ptr[f]..free_ptr[f + 1] - 1 of free_j and free_v, rising
    in free_j.  Row r has the matrices entry_coeff[e] on the blocks
    entry_block[e], e in row_ptr[r]..row_ptr[r + 1] - 1, in block order,
    the free row row_free[r] placed at row_offset[r], rhs[r], and the name
    pre + label, in order of the (pre, labels) sections; the objective is
    the free row objective_row at offset 0.  An array that no one can
    write through, a read-only ndarray of the field's dtype that owns its
    data, is kept as it is, as _Rows.system and dataclasses.replace hand
    them; any other is copied read-only.  The tables are checked once, in
    place: every value is finite and nonzero, a free entry past n_free
    would be written into the negated half of the free block, and a
    matrix of another order than its block outside it."""

    system: str
    sense: str
    blocks: tuple[PsdBlock, ...]
    n_free: int
    coeff_ptr: np.ndarray
    coeff_order: np.ndarray
    coeff_i: np.ndarray
    coeff_j: np.ndarray
    coeff_v: np.ndarray
    free_ptr: np.ndarray
    free_j: np.ndarray
    free_v: np.ndarray
    row_ptr: np.ndarray
    entry_block: np.ndarray
    entry_coeff: np.ndarray
    row_free: np.ndarray
    row_offset: np.ndarray
    rhs: np.ndarray
    objective_row: int
    sections: tuple[tuple[str, tuple[str, ...]], ...]
    var_map: dict[str, VarSlot]

    def __post_init__(self):
        set_ = functools.partial(object.__setattr__, self)
        floats = ("coeff_v", "free_v", "rhs")
        for field in (f.name for f in dataclasses.fields(self) if f.type == "np.ndarray"):
            set_(field, _kept(getattr(self, field), float if field in floats else np.int32))
        set_("objective_row", operator.index(self.objective_row))
        n_mats, n_frees = self.coeff_order.size, self.free_ptr.size - 1
        rows, n_free, obj = self.rhs.size, self.n_free, self.objective_row
        ptr, blk, ks, frees, offs = (self.row_ptr, self.entry_block, self.entry_coeff,
                                     self.row_free, self.row_offset)
        if not (
            _segments(self.coeff_ptr, n_mats, self.coeff_i, self.coeff_j, self.coeff_v)
            and _segments(self.free_ptr, n_frees, self.free_j, self.free_v)
            and _segments(ptr, rows, blk, ks)
            and frees.size == offs.size == rows
            and sum(len(labels) for _, labels in self.sections) == rows
            and _within(blk, len(self.blocks)) and _within(ks, n_mats) and _within(frees, n_frees)
            and 0 <= obj < n_frees and _rising(ptr, blk)
        ):
            raise ValueError("row tables of unequal lengths, an id outside its table, or a row "
                             "whose blocks are not in block order")
        i, j = self.coeff_i, self.coeff_j
        order = np.repeat(self.coeff_order, np.diff(self.coeff_ptr))
        if not (np.all((0 <= i) & (i <= j) & (j < order)) and _rising(self.coeff_ptr, i, j)
                and np.all(self.free_j >= 0) and _rising(self.free_ptr, self.free_j)
                and self.coeff_v.all() and self.free_v.all()
                and all(np.isfinite(getattr(self, v)).all() for v in floats)):
            raise ValueError("a table holds an entry outside the upper triangle of its order, out "
                             "of row-major order or zero, a free row a negative, falling, repeated "
                             "or zero entry, or a value table one that is not finite")
        # A row's free entries span first..last - 1 of its free row, placed
        # at its offset, and the objective's at offset 0; the first row
        # whose span passes 0..n_free - 1, or whose matrix orders differ
        # from its blocks', is refused by name, then the objective.
        full = np.diff(self.free_ptr) > 0
        first, last = np.zeros((2, n_frees), np.int32)
        first[full] = self.free_j[self.free_ptr[:-1][full]]
        last[full] = self.free_j[self.free_ptr[1:][full] - 1] + 1
        bad = _outside(first, last, frees, offs, n_free)
        bad &= full[frees]
        orders = np.array([b.order for b in self.blocks], dtype=np.int32)
        entry = np.flatnonzero(orders[blk] != self.coeff_order[ks])[:1]
        misfits = np.flatnonzero(bad)[:1].tolist() + (np.searchsorted(ptr, entry, "right") - 1).tolist()
        if misfits or full[obj] and last[obj] > n_free:
            r = min(misfits, default=rows)
            lo, hi, f, off = (int(x[r]) for x in (ptr, ptr[1:], frees, offs)) if r < rows else (0, 0, obj, 0)
            names = [pre + label for pre, labels in self.sections for label in labels]
            what = "the objective" if r == rows else f"constraint {names[r]}"
            pairs = [(self.blocks[b], k) for b, k in zip(blk[lo:hi].tolist(),
                                                         self.coeff_order[ks[lo:hi]].tolist())]
            raise ValueError(
                f"{what} does not fit the system: free length "
                f"{off + int(last[f]) if r == rows or bad[r] else n_free} for n_free {n_free}, "
                f"matrix orders { {b.name: k for b, k in pairs} } for blocks "
                f"{ {b.name: b.order for b, _ in pairs} }"
            )

    @property
    def constraints(self) -> tuple[_RowView, ...]:
        """Each row as its name, {block name: coeff_v of its matrix there},
        free_v of its free row and rhs, the slices views into the tables,
        made on each read: what the benchmark's tracer counts with len,
        .size and != 0.  It goes once the tracer reads the tables (ROADMAP
        item 4)."""
        cptr, fptr, blocks = self.coeff_ptr.tolist(), self.free_ptr.tolist(), self.blocks
        ptr, blk, ks = self.row_ptr.tolist(), self.entry_block.tolist(), self.entry_coeff.tolist()
        names = (pre + label for pre, labels in self.sections for label in labels)
        rows = zip(names, ptr, ptr[1:], self.row_free.tolist(), self.rhs.tolist())
        return tuple(
            _RowView(name, {blocks[b].name: self.coeff_v[cptr[k] : cptr[k + 1]]
                            for b, k in zip(blk[lo:hi], ks[lo:hi])},
                     self.free_v[fptr[f] : fptr[f + 1]], rhs)
            for name, lo, hi, f, rhs in rows
        )


class _Section(NamedTuple):
    """Entries for a table: counts[k] for each new matrix or free row, and
    their (i, j), or j alone in a free row, and v concatenated, row-major
    within each matrix, whose order is one for all or one each."""

    order: object
    counts: object
    i: object
    j: object
    v: object


def _append(table: list, sec: _Section) -> np.ndarray:
    start = sum(len(x.counts) for x in table)
    table.append(sec)
    return np.arange(start, start + len(sec.counts), dtype=np.int32)


class _Rows:
    """A StandardFormSdp's tables, filled a section at a time: matrices and
    free rows as whole sections, which take the next ids of their table,
    and rows as (pre, labels) sections of id columns.  system fills each
    table's read-only int32 or float64 array from its sections, which the
    constructor then keeps."""

    def __init__(self):
        self.mats, self.frees, self.sections, self.parts = [], [], [], []

    def matrices(self, sec: _Section) -> np.ndarray:
        """Appends sec to the coefficient table; the ids of its matrices."""
        return _append(self.mats, sec)

    def free_rows(self, sec: _Section) -> np.ndarray:
        """Appends sec to the free table; the ids of its free rows."""
        return _append(self.frees, sec)

    @functools.cached_property
    def no_free(self) -> int:
        """The id of the free row with no entries, appended at its first use."""
        return int(self.free_rows(_Section(None, [0], None, (), ()))[0])

    def add(self, pre: str, labels: tuple, cols, free, offset, rhs) -> None:
        """Rows named pre + label, one per label: cols are (block index,
        matrix ids) pairs in block order, id -1 where a row has no matrix
        on that block; free, offset and rhs give each row's free row id,
        its offset and rhs, or one for every row."""
        n = len(labels)
        ids = np.array([c for _, c in cols], dtype=np.int32).reshape(len(cols), n).T
        has = ids >= 0
        blk = np.array([b for b, _ in cols], dtype=np.int32)[np.nonzero(has)[1]]
        self.sections.append((pre, labels))
        self.parts.append((n, has.sum(1, dtype=np.int32), blk, ids[has], free, offset, rhs))

    def system(self, **fields) -> StandardFormSdp:
        def fill(parts: list, sizes: list, dtype=np.int32, ptr: bool = False) -> np.ndarray:
            # Each part is an array of its size or one value for all; the
            # parts are released once their table is filled.
            out, at = np.zeros(int(ptr) + sum(sizes), dtype), int(ptr)
            for vals, size in zip(parts, sizes):
                out[at : at + size] = vals
                at += size
            parts.clear()
            if ptr:
                np.cumsum(out, dtype=dtype, out=out)
            out.flags.writeable = False
            return out

        (order, counts, i, j, v), (_, fcounts, _, fj, fv), rows = (
            [list(col) for col in zip(*table)] for table in (self.mats, self.frees, self.parts)
        )
        self.mats = self.frees = self.parts = None
        n, rcounts, blk, ks, free, offset, rhs = rows
        entries = [len(x) for x in ks]
        mats, coeffs = [len(x) for x in counts], [len(x) for x in v]
        frees, fcoeffs = [len(x) for x in fcounts], [len(x) for x in fv]
        return StandardFormSdp(
            entry_block=fill(blk, entries), entry_coeff=fill(ks, entries),
            row_ptr=fill(rcounts, n, ptr=True), row_free=fill(free, n),
            row_offset=fill(offset, n), rhs=fill(rhs, n, float),
            coeff_order=fill(order, mats), coeff_ptr=fill(counts, mats, ptr=True),
            coeff_i=fill(i, coeffs), coeff_j=fill(j, coeffs), coeff_v=fill(v, coeffs, float),
            free_ptr=fill(fcounts, frees, ptr=True), free_j=fill(fj, fcoeffs),
            free_v=fill(fv, fcoeffs, float), sections=tuple(self.sections), **fields,
        )


@dataclass
class Assignment:
    """A full variable assignment: one symmetric array per PSD block plus
    the free vector."""

    blocks: dict[str, np.ndarray]
    free: np.ndarray


def _expand(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, entry): for each table entry of the segments ids[0], ids[1], ...
    in turn, its position in ids and its index in the table."""
    lo = ptr[ids]
    counts = ptr[ids + 1] - lo
    at = np.repeat(np.arange(ids.size), counts)
    return at, np.arange(at.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def residuals(sdp: StandardFormSdp, assign: Assignment) -> np.ndarray:
    """Each row's value Σ_B <K_B, Y_B> + free·u less its rhs, with
    <K, Y> = Σ K_ij Y_ij over every (i, j) as for the dense K: one gather
    from each table and one bincount per part."""
    ptr, n_rows = sdp.row_ptr, sdp.rhs.size
    at, e = _expand(sdp.coeff_ptr, sdp.entry_coeff)
    row, b = np.repeat(np.arange(n_rows), np.diff(ptr))[at], sdp.entry_block[at]
    orders = np.array([x.order for x in sdp.blocks], dtype=int)
    base = (np.cumsum(orders**2) - orders**2)[b]
    y = np.concatenate([np.zeros(0)] + [np.ravel(assign.blocks[x.name]) for x in sdp.blocks])
    i, j, order = sdp.coeff_i[e], sdp.coeff_j[e], orders[b]
    pair = y[base + i * order + j] + y[base + j * order + i]
    mats = np.bincount(row, np.where(i == j, 0.5, 1.0) * sdp.coeff_v[e] * pair, minlength=n_rows)
    at, e = _expand(sdp.free_ptr, sdp.row_free)
    u = assign.free[sdp.row_offset[at] + sdp.free_j[e]]
    return np.bincount(at, sdp.free_v[e] * u, minlength=n_rows) + mats - sdp.rhs


def max_violation(sdp: StandardFormSdp, assign: Assignment) -> float:
    return float(np.max(np.abs(residuals(sdp, assign)), initial=0.0))


def min_block_eigenvalue(sdp: StandardFormSdp, assign: Assignment) -> float:
    return min([0.0] + [float(np.linalg.eigvalsh(assign.blocks[b.name])[0]) for b in sdp.blocks])


def objective_value(sdp: StandardFormSdp, assign: Assignment) -> float:
    """The objective's free row, at offset 0, at assign."""
    lo, hi = sdp.free_ptr[sdp.objective_row : sdp.objective_row + 2]
    return float(sdp.free_v[lo:hi] @ assign.free[sdp.free_j[lo:hi]])


def extract(sdp: StandardFormSdp, assign: Assignment, name: str) -> np.ndarray:
    """Resolve a var_map name against an assignment."""
    slot = sdp.var_map[name]
    if slot.kind == "free_vec":
        return assign.free[slot.offset : slot.offset + slot.length].copy()
    if slot.kind == "free_sym":
        out, (i, j) = np.zeros((slot.order, slot.order)), svec_index(slot.order)
        out[i, j] = out[j, i] = assign.free[slot.offset : slot.offset + slot.length]
        return out
    if slot.kind == "block":
        return assign.blocks[slot.block].copy()
    if slot.kind == "sub_block":
        blk = assign.blocks[slot.block]
        return blk[slot.row0 : slot.row0 + slot.rows, slot.col0 : slot.col0 + slot.cols].copy()
    if slot.kind == "tan_sum":
        w = assign.blocks[slot.block][: slot.order, slot.order :]
        return w + w.T
    raise ValueError(f"unknown slot kind {slot.kind!r}")


def _free_sym_coeffs(a: np.ndarray) -> np.ndarray:
    """Coefficients c with c·x_utri = <A, X> for upper-triangle layout and
    symmetric X, for A or for each A of a stack; A need not be symmetric."""
    n = a.shape[-1]
    i, j = svec_index(n)
    c = a[..., i, j]
    c[..., n:] += a[..., j[n:], i[n:]]
    return c


def _stack(mats: Sequence[SymMat], n: int) -> np.ndarray:
    """The arrays of mats as one stack, of shape (len(mats), n, n)."""
    return np.array([x.a for x in mats]).reshape(len(mats), n, n)


def dram_size(n: int, m: int) -> tuple[int, int]:
    """(PSD block count, free scalar count) of the exact dual and of the
    alternative system: L = min(n-1, m) rungs U_1..U_L, L coupling blocks
    T_2..T_L and Thead, and the head P, with y, y^1..y^L free, so
    (2L + 1, m·(L + 1)).  L = 0 (order 1, or no equations) is the
    zero-rung ladder: one block P, m scalars."""
    rungs = dual_ladder_length(n, m)
    return 2 * rungs + 1, m * (rungs + 1)


@functools.lru_cache(maxsize=64)
def _pair_labels(n: int) -> tuple[str, ...]:
    """The row labels "[p,q]" of the svec pairs of order n."""
    return tuple(f"[{p},{q}]" for p, q in svec_order(n))


def _units(n: int, order: int, sign: float) -> _Section:
    """sign·E_pq in a matrix of the given order for each svec pair (p, q)
    of order n, in svec order, with <E_pq, Y> = Y[p, q] for symmetric Y."""
    i, j = svec_index(n)
    return _Section(order, np.ones(i.size, np.int32), i, j, np.where(i == j, sign, 0.5 * sign))


def _dense_mats(a: np.ndarray) -> _Section:
    """The upper-triangle nonzeros of each matrix of the stack a."""
    i, j = np.triu_indices(a.shape[-1])
    tri = a[:, i, j]
    k, e = np.nonzero(tri)
    return _Section(a.shape[-1], np.count_nonzero(tri, axis=1), i[e], j[e], tri[k, e])


def _coupling(m: _Section) -> _Section:
    """[[0, K], [K, 0]] of order 2n for each K of m, of order n: K's entry
    (i, j) sits at (i, n + j), so an off-diagonal entry gives two."""
    off = m.i != m.j
    mat = np.repeat(np.arange(m.counts.size), m.counts)
    rows, cols = np.concatenate([m.i, m.j[off]]), m.order + np.concatenate([m.j, m.i[off]])
    key = np.lexsort((cols, rows, np.concatenate([mat, mat[off]])))
    counts = m.counts + np.bincount(mat[off], minlength=m.counts.size)
    return _Section(2 * m.order, counts, rows[key], cols[key], np.concatenate([m.v, m.v[off]])[key])


def _dense_rows(a: np.ndarray) -> _Section:
    """The nonzeros of each row of the 2-d array a, as free rows."""
    k, j = np.nonzero(a)
    return _Section(None, np.count_nonzero(a, axis=1), None, j, a[k, j])


def _ladder_system(
    rows: _Rows, inst: SdpInstance, system: str, sense: str, n_free: int, objective_row: int,
    slots: dict[str, VarSlot], *, count: int, rung: tuple, step: int, head_sign: float,
    head_free: tuple, head_rhs: np.ndarray, last: Sequence = (),
) -> StandardFormSdp:
    """The one ladder assembly behind dram, altram and pram, after the rows
    already in rows.

    Rows, in order: for each rung i = 1..count, rung (labels, K, free)
    gives one row per label, <K_k, U_i + V_i> + free·u = 0 for the first
    len(K) and free·u = 0 for the rest, the free row ids (None for none)
    placed step·i further on; the corner ties T_i[:n, :n] =
    U_{i-1} for i = 2..count+1, T_{count+1} being Thead; the head rows
    head_sign·(P + Vhead) + free·u = head_rhs entrywise in svec order,
    head_free their (free row ids, offsets); the sections of last.  With
    count = 0 the head reads head_sign·P alone.  No coefficient depends on
    the rung, so every rung and every tie holds the same matrix ids.
    """
    n = inst.n
    # Blocks U1..Ucount, T2..Tcount, Thead, P: T_i at count + i - 2.
    tags = [str(i) for i in range(2, count + 1)] + ["head"] * (count > 0)
    blocks = [PsdBlock(f"U{i}", n) for i in range(1, count + 1)]
    blocks += [PsdBlock(f"T{tag}", 2 * n) for tag in tags] + [PsdBlock("P", n)]
    vm = {b.name: VarSlot(kind="block", block=b.name, order=n) for b in blocks if b.order == n}
    for tag in tags:
        sub = dict(kind="sub_block", block=f"T{tag}", col0=n, rows=n, cols=n, order=n)
        vm[f"W{tag}"], vm[f"R{tag}"] = VarSlot(row0=0, **sub), VarSlot(row0=n, **sub)
        vm[f"V{tag}"] = VarSlot(kind="tan_sum", block=f"T{tag}", order=n)
    if count:
        labels, k, free = rung
        pad = np.full(len(labels) - k.counts.size, -1)
        psd = np.concatenate([rows.matrices(k), pad])
        coupled = np.concatenate([rows.matrices(_coupling(k)), pad]) if count > 1 else None
        free = rows.no_free if free is None else free
        for i in range(1, count + 1):
            cols = [(i - 1, psd)] + [(count + i - 2, coupled)] * (i > 1)
            rows.add(f"rung{i}_", labels, cols, free, step * i, 0.0)
        corner, prev_u = rows.matrices(_units(n, 2 * n, 1.0)), rows.matrices(_units(n, n, -1.0))
        for i, tag in enumerate(tags, start=2):
            cols = [(i - 2, prev_u), (count + i - 2, corner)]
            rows.add(f"tie{tag}", _pair_labels(n), cols, rows.no_free, 0, 0.0)
    head = _units(n, n, head_sign)
    cols = [(2 * count - 1, rows.matrices(_coupling(head)))] if count else []
    cols.append((2 * count, rows.matrices(head)))
    rows.add("head_decomp", _pair_labels(n), cols, *head_free, head_rhs[svec_index(n)])
    for section in last:
        rows.add(*section)
    return rows.system(system=system, sense=sense, blocks=tuple(blocks), n_free=n_free,
                       objective_row=objective_row, var_map={**vm, **slots})


def _dual_ladder(inst: SdpInstance, system: str) -> StandardFormSdp:
    """dram and altram: free y, y^1..y^L (y^i at offset m·i), L =
    min(n-1, m); rung i reads 𝒜*y^i = U_i + V_i entrywise and
    <b, y^i> = 0.  One free row per entry serves its head row and its rung
    rows, and one <b, ·> row every rung, the objective of dram and the
    last row of altram, <b, y> = -1."""
    n, m = inst.n, inst.m
    count = dual_ladder_length(n, m)
    rows = _Rows()
    # Row idx of at holds the coefficients of (𝒜*y)[p, q] on y, (p, q) the
    # idx-th svec pair.
    i, j = svec_index(n)
    at = rows.free_rows(_dense_rows(_stack(inst.a, n)[:, i, j].T))
    b = int(rows.free_rows(_dense_rows(inst.b[None]))[0])
    labels = tuple("decomp" + s for s in _pair_labels(n)) + ("rhs",)
    slots = {f"y{i or ''}": VarSlot("free_vec", offset=m * i, length=m) for i in range(count + 1)}
    dram = system == SYSTEM_DRAM
    return _ladder_system(
        rows, inst, system, SENSE_MAX, m * (count + 1), b if dram else rows.no_free, slots,
        count=count, rung=(labels, _units(n, n, -1.0), np.append(at, b)), step=m,
        head_sign=1.0 if dram else -1.0, head_free=(at, 0),
        head_rhs=inst.c.a if dram else np.zeros((n, n)),
        last=[] if dram else [("head_rhs", ("",), [], b, 0, -1.0)],
    )


def build_dram(inst: SdpInstance) -> StandardFormSdp:
    """The exact dual as an explicit SDP: max <b, y> over the ladder lift.

    Free variables are y followed by y^1..y^L, L = min(n-1, m); the head
    constraint C - 𝒜*y = P + (Whead + Wheadᵀ) encodes membership in
    S₊ + tan(U_L).  The order-1 instance is the zero-rung ladder
    C - 𝒜*y = P, the classical dual.
    """
    return _dual_ladder(inst, SYSTEM_DRAM)


def build_alt_ram(inst: SdpInstance) -> StandardFormSdp:
    """The exact alternative system: feasible iff the instance is infeasible.

    Same ladder as the exact dual; the head becomes 𝒜*y = P + V with
    <b, y> = -1 and there is no objective.
    """
    return _dual_ladder(inst, SYSTEM_ALTRAM)


def _primal_eq(rows: _Rows, inst: SdpInstance) -> None:
    """Adds the rows 𝒜X = b over the utri layout of X at free offset 0."""
    labels = tuple(str(t) for t in range(1, inst.m + 1))
    free = rows.free_rows(_dense_rows(_free_sym_coeffs(_stack(inst.a, inst.n))))
    rows.add("primal_eq", labels, [], free, 0, inst.b)


def build_pram(inst: SdpInstance) -> StandardFormSdp:
    """The exact primal of the dual: min <C, X> with an X-side ladder.

    X is a free symmetric matrix; its membership in S₊ + tan(U_{n-1}) is
    carried by X = P + Vhead.  Each rung imposes 𝒜(U_i + V_i) = 0 and
    <C, U_i + V_i> = 0.  Requires linearly independent A_i.
    """
    n, m = inst.n, inst.m
    independent_stack(inst)
    nn = n * (n + 1) // 2
    rows = _Rows()
    _primal_eq(rows, inst)
    labels = tuple(f"a{t + 1}" for t in range(m)) + ("c",)
    k = _dense_mats(_stack(inst.a + (inst.c,), n))
    c = _free_sym_coeffs(inst.c.a)[None]
    unit = rows.free_rows(_Section(None, [1], None, [0], [1.0]))
    return _ladder_system(
        rows, inst, SYSTEM_PRAM, SENSE_MIN, nn, int(rows.free_rows(_dense_rows(c))[0]),
        {"X": VarSlot(kind="free_sym", offset=0, length=nn, order=n)},
        count=n - 1, rung=(labels, k, None), step=0, head_sign=-1.0,
        head_free=(unit, np.arange(nn)), head_rhs=np.zeros((n, n)),
    )


def strong_spec_from_rr(rr) -> StrongDualSpec:
    """Dual-side spec from a feasible RR form: Q from the reformulation,
    r the order of the trailing max-rank block."""
    n = rr.reformulated.n
    return StrongDualSpec(q=rr.ref.q.copy(), r=n - int(sum(rr.r)))


def pstrong_spec_from_slack(slack: SymMat, eps: float = EPS_PSD) -> StrongDualSpec:
    """Primal-side spec from a max-rank dual slack: descending eigenbasis
    puts the PD block in the leading corner."""
    cls = classify_psd(slack, eps)
    if not cls.is_psd:
        raise ValueError("max-rank slack must be PSD")
    return StrongDualSpec(q=cls.dec.q.copy(), r=cls.rank)


def _rotated(q: np.ndarray, s: int, sign: float):
    """sign·(Q V Qᵀ)[p, q] for each svec pair (p, q), as coefficients on a
    symmetric V split at s: the leading s×s and the trailing diagonal
    blocks of sign·outer(Q[p], Q[q]) and the row-major coefficients of
    V[:s, s:], into which both off-diagonal blocks fold.  Adding 0.0 turns
    the products' -0.0 into 0.0."""
    i, j = svec_index(q.shape[0])
    c = sign * (q[i][:, :, None] * q[j][:, None, :]) + 0.0
    return c[:, :s, :s], c[:, s:, s:], (c[:, :s, s:] + c[:, s:, :s].transpose(0, 2, 1)).reshape(i.size, -1)


def _strong_rows(rows: _Rows, pre: str, n: int, rhs, free: np.ndarray, k: np.ndarray) -> None:
    """Adds one row per svec pair of order n: its free row from the stack
    free, and the symmetric part of its k, none where k is zero."""
    has = k.any(axis=(1, 2))
    ids = np.full(has.size, -1)
    ids[has] = rows.matrices(_dense_mats((k[has] + k[has].transpose(0, 2, 1)) / 2.0))
    rows.add(pre, _pair_labels(n), [(0, ids)], rows.free_rows(_dense_rows(free)), 0, rhs)


def build_dstrong(inst: SdpInstance, spec: StrongDualSpec) -> StandardFormSdp:
    """The strong dual: C - 𝒜*y = QVQᵀ with only V₂₂ (trailing r) PSD."""
    n, m = inst.n, inst.m
    spec.validate(n)
    r, f = spec.r, n - spec.r  # f: the order of the free leading part
    # Free layout: y (m), V11 utri (f(f+1)/2), V12 row-major (f*r).
    n11 = f * (f + 1) // 2
    k11, k22, k12 = _rotated(spec.q, f, 1.0)
    i, j = svec_index(n)
    at = _stack(inst.a, n)[:, i, j].T
    rows = _Rows()
    free = np.concatenate([at, _free_sym_coeffs(k11), k12], axis=1)
    _strong_rows(rows, "slack_eq", n, inst.c.a[i, j], free, k22)
    vm = {"y": VarSlot(kind="free_vec", offset=0, length=m),
          "V11": VarSlot(kind="free_sym", offset=m, length=n11, order=f)}
    if r:
        vm["V22"] = VarSlot(kind="block", block="V22", order=r)
    return rows.system(system="dstrong", sense=SENSE_MAX, blocks=(PsdBlock("V22", r),) if r else (),
                       n_free=m + n11 + f * r,
                       objective_row=rows.free_rows(_dense_rows(inst.b[None]))[0], var_map=vm)


def build_pstrong(inst: SdpInstance, spec: StrongDualSpec) -> StandardFormSdp:
    """The strong primal: min <C,X>, 𝒜X = b, X = QVQᵀ, leading r-block of
    V PSD (the max-rank slack's PD block position)."""
    n = inst.n
    spec.validate(n)
    r, f = spec.r, n - spec.r
    nn = n * (n + 1) // 2
    # Free layout: X utri (nn), V22 utri (f(f+1)/2), V12 row-major (r*f).
    n22 = f * (f + 1) // 2
    k11, k22, k12 = _rotated(spec.q, r, -1.0)
    rows = _Rows()
    _primal_eq(rows, inst)
    free = np.concatenate([np.eye(nn), _free_sym_coeffs(k22), k12], axis=1)
    _strong_rows(rows, "shape_eq", n, 0.0, free, k11)
    vm = {"X": VarSlot(kind="free_sym", offset=0, length=nn, order=n),
          "V22": VarSlot(kind="free_sym", offset=nn, length=n22, order=f)}
    if r:
        vm["V11"] = VarSlot(kind="block", block="V11", order=r)
    objective = rows.free_rows(_dense_rows(_free_sym_coeffs(inst.c.a)[None]))[0]
    return rows.system(system="pstrong", sense=SENSE_MIN, blocks=(PsdBlock("V11", r),) if r else (),
                       n_free=nn + n22 + r * f, objective_row=objective, var_map=vm)


def _utri_values(a: np.ndarray) -> np.ndarray:
    return a[svec_index(a.shape[0])]


def embed_certificate(sdp: StandardFormSdp, inst: SdpInstance, cert, eps: float = EPS_PSD) -> Assignment:
    """Map a verified ladder certificate onto the emitted SDP's variables.

    The ladder is fitted to the system's L rungs (n-1 for pram,
    min(n-1, m) for dram and altram): a shorter one is front-padded with
    zero rungs, and the rungs before its last L are dropped when they are
    exactly zero.  A ladder with more than L rungs from its first nonzero
    one is refused; the module docstring shows that a feasible one
    normalizes to at most L.  Tangent memberships become explicit coupling
    blocks via the witnesses of ``tangent_witness``; the head matrix is
    split into its PSD part and a tangent part in the eigenbasis of the
    last U.
    """
    ladder = pad_ladder(cert, inst).ladder
    n = inst.n
    if sdp.system != cert.system:
        raise ValueError(f"certificate is for {cert.system}, SDP is {sdp.system}")
    count = n - 1 if sdp.system == SYSTEM_PRAM else dual_ladder_length(n, inst.m)
    cut = n - 1 - count
    lead = leading_zero_rungs(ladder)
    if lead < cut:
        raise ValueError(
            f"ladder has {n - 1 - lead} rungs from its first nonzero one; "
            f"the {sdp.system} system holds {count} = min(n - 1, m)"
        )
    ladder = ladder[cut:]
    if sdp.system == SYSTEM_PRAM:
        free = _utri_values(cert.x.a)
        head_z = cert.x
    else:
        parts = [np.asarray(cert.y, dtype=float)]
        parts += [np.asarray(r.y, dtype=float) for r in ladder]
        free = np.concatenate(parts)
        head_z = (
            dual_slack(inst, cert.y)
            if sdp.system == SYSTEM_DRAM
            else apply_at(inst, cert.y)
        )
    blocks: dict[str, np.ndarray] = {}
    prev_u = SymMat.zero(n)
    for i, rung in enumerate(ladder, start=1):
        blocks[f"U{i}"] = rung.u.a.copy()
        if i >= 2:
            blocks[f"T{i}"] = tangent_witness(prev_u, rung.v, eps).block_matrix(prev_u).a
        prev_u = rung.u
    # One decomposition of the last U serves both the split and its witness.
    ucls = classify_psd(prev_u, eps)
    p_head, v_head = split_psd_plus_tan(ucls, head_z, eps)
    blocks["P"] = p_head.a.copy()
    if count:
        blocks["Thead"] = tangent_witness(ucls, v_head, eps).block_matrix(prev_u).a
    return Assignment(blocks=blocks, free=free)


def embed_strong_point(sdp: StandardFormSdp, inst: SdpInstance, spec: StrongDualSpec, point) -> Assignment:
    """Map a strong-system point onto the emitted SDP's variables."""
    n = inst.n
    r = spec.r
    f = n - r
    if sdp.system == "dstrong":
        y = np.asarray(point, dtype=float).reshape(-1)
        v = spec.q.T @ dual_slack(inst, y).a @ spec.q
        free = np.concatenate(
            [y, _utri_values(v[:f, :f]), v[:f, f:].reshape(-1)]
        )
        blocks = {"V22": v[f:, f:].copy()} if r else {}
        return Assignment(blocks=blocks, free=free)
    if sdp.system == "pstrong":
        x = point if isinstance(point, SymMat) else SymMat(point)
        v = spec.q.T @ x.a @ spec.q
        free = np.concatenate(
            [_utri_values(x.a), _utri_values(v[r:, r:]), v[:r, r:].reshape(-1)]
        )
        blocks = {"V11": v[:r, :r].copy()} if r else {}
        return Assignment(blocks=blocks, free=free)
    raise ValueError(f"not a strong system: {sdp.system}")
