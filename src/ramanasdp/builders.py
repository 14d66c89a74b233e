"""Explicit standard-form SDPs for the exact duals and alternative systems.

Every system here is emitted as one StandardFormSdp: a list of PSD block
variables plus one free-scalar vector, linear equality constraints, and a
linear objective.  The tangent-space constraint V ∈ tan(U) is what makes
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
in normalize_ladder's report (r_i = dim K_{i-1} - dim K_i).
embed_certificate does not normalize: it takes a ladder whose rungs
before its last L are exactly zero, as lift_from_strong and
alt_ram_from_rr make them, and refuses any other with the reason.

Systems built:

  * build_dram     — the exact dual: max <b,y> with an L rung ladder
                     y^i, U_i, V_i and head constraint
                     C - 𝒜*y ∈ S₊ + tan(U_L).
  * build_alt_ram  — the exact alternative system: same ladder, head
                     𝒜*y ∈ S₊ + tan(U_L) and <b, y> = -1; feasible
                     exactly when the primal is infeasible.
  * build_pram     — the exact primal of the dual: min <C,X> subject to
                     𝒜X = b, a ladder with 𝒜(U_i+V_i) = 0 and
                     <C, U_i+V_i> = 0, and X ∈ S₊ + tan(U_{n-1}).
  * build_dstrong  — the strong dual: given the max-rank primal solution
                     Q diag(0, Λ_r) Qᵀ, only the trailing r-block of the
                     rotated slack is required PSD.
  * build_pstrong  — the strong primal: given the max-rank dual slack
                     Q diag(Λ_r, 0) Qᵀ, only the leading r-block of the
                     rotated X is required PSD.
  * build_red      — the equality-form rewrite of the dual over the slack
                     variable Z, via the orthogonal complement basis.

The builders never solve anything; rotation data for the strong systems
is produced upstream by the RR-form construction.

Every emitted system is held sparse.  A coefficient matrix is a
SparseSym, the nonzeros of its upper triangle in row-major order, and a
free row a SparseVec, its nonzero indices and values; neither stores a
±0.0 entry, and neither can be changed.  Unit matrices sign·E_pq, their
order-2n coupling matrices and the corner ties' matrices are made in that
form directly; dense inputs (A_t and C for pram, the strong systems'
rotated blocks, red's basis) are converted once per build.  The two
constructors check the entries they are given.  A system holds its rows
as columns: int32 id arrays into one table of its distinct matrices and
one of its distinct free rows, with no object per row.  No ladder
coefficient depends on the rung index, so each distinct matrix is made
once per build (a ladder system references O(n³) matrices but holds
O(n²)), and a rung's free row is the same table entry as the same
entry's row in every other rung, at another offset.  A StandardFormSdp
checks each table entry once against the block or free length its ids
give it.  The SDPA writer formats each table entry once per write.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import (
    INDEP_TOL,
    DependentConstraintsError,
    DualComplement,
    SdpInstance,
    apply_at,
    complement_basis,
    constraint_stack,
    dual_slack,
    svec_index,
    svec_order,
)
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


class _Sparse:
    """What the two sparse coefficient types share: they cannot be changed,
    size is the count of stored entries, and != compares the stored values
    elementwise, as on an array of them.  The constructors check what the
    docstrings state; from_dense, unit, signed, coupling and the builders,
    whose entries hold it by construction, make objects through _of, which
    does not."""

    __slots__ = ()

    @classmethod
    def _of(cls, *fields):
        """An object with these fields, in __slots__ order, unchecked."""
        obj = object.__new__(cls)
        obj._set(*fields)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def size(self) -> int:
        return len(self.vals)

    def __ne__(self, other):
        return np.array(self.vals, dtype=float) != other


def _check_sign(sign: float) -> None:
    # A sign flip is exact, so no stored entry becomes zero.
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")


@functools.lru_cache(maxsize=64)
def _triu(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the row-major upper triangle."""
    rows, cols = np.triu_indices(order)
    for arr in (rows, cols):
        arr.setflags(write=False)
    return rows, cols


class SparseSym(_Sparse):
    """A symmetric matrix of the given order held as the nonzeros of its
    upper triangle: vals[k] at (rows[k], cols[k]) and (cols[k], rows[k]),
    rows[k] <= cols[k], in row-major order, all three tuples of Python
    numbers, no value ±0.0 or nan."""

    __slots__ = ("order", "rows", "cols", "vals")

    def _set(self, order, rows, cols, vals):
        set_ = object.__setattr__
        set_(self, "order", order)
        set_(self, "rows", rows)
        set_(self, "cols", cols)
        set_(self, "vals", vals)

    def __init__(self, order: int, rows, cols, vals):
        order = operator.index(order)
        rows, cols = tuple(map(operator.index, rows)), tuple(map(operator.index, cols))
        vals = tuple(map(float, vals))
        if not len(rows) == len(cols) == len(vals):
            raise ValueError("rows, cols and vals must have one entry each")
        last = (-1, order)
        for i, j in zip(rows, cols):
            if not 0 <= i <= j < order:
                raise ValueError(f"entry ({i}, {j}) is not in the upper triangle of order {order}")
            if (i, j) <= last:
                raise ValueError(f"entry ({i}, {j}) is out of row-major order or repeated")
            last = (i, j)
        if not all(vals):
            raise ValueError("a stored value is zero")
        if any(v != v for v in vals):
            raise ValueError("a stored value is nan")
        self._set(order, rows, cols, vals)

    @staticmethod
    def from_dense(a) -> "SparseSym":
        """The upper-triangle nonzeros of a square array.  A nonsymmetric
        one, or one holding nan, is refused: its upper triangle, which is
        all that is stored and written, would not say what it is."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got shape {a.shape}")
        if (a != a.T).any():
            raise ValueError("coefficient matrix is not symmetric, or holds nan")
        rows, cols = _triu(a.shape[0])
        tri = a[rows, cols]
        k = np.flatnonzero(tri)
        return SparseSym._of(
            a.shape[0], tuple(rows[k].tolist()), tuple(cols[k].tolist()), tuple(tri[k].tolist())
        )

    @staticmethod
    def unit(order: int, p: int, q: int) -> "SparseSym":
        """E_pq, p <= q, with <E_pq, Y> = Y[p, q] for symmetric Y."""
        if not 0 <= p <= q < order:
            raise ValueError(f"entry ({p}, {q}) is not in the upper triangle of order {order}")
        return SparseSym._of(order, (p,), (q,), (1.0 if p == q else 0.5,))

    def signed(self, sign: float) -> "SparseSym":
        """sign times this matrix, sign 1 or -1."""
        _check_sign(sign)
        if sign == 1.0:
            return self
        return SparseSym._of(self.order, self.rows, self.cols, tuple([-v for v in self.vals]))

    def coupling(self) -> "SparseSym":
        """[[0, K], [K, 0]] of order 2n, K this matrix: K's entry (i, j)
        sits at (i, n + j), so a stored off-diagonal entry gives two."""
        n = self.order
        entries = []
        for i, j, v in zip(self.rows, self.cols, self.vals):
            entries.append((i, n + j, v))
            if i != j:
                entries.append((j, n + i, v))
        entries.sort()  # positions are distinct, so no value is compared
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        return SparseSym._of(2 * n, rows, cols, vals)

    def dense(self) -> np.ndarray:
        a = np.zeros((self.order, self.order))
        rows, cols = np.array(self.rows, dtype=int), np.array(self.cols, dtype=int)
        a[rows, cols] = self.vals
        a[cols, rows] = self.vals
        return a

    def dot(self, y: np.ndarray) -> float:
        """<K, Y> = Σ K_ij Y_ij over every (i, j), as for the dense K."""
        total = 0.0
        for i, j, v in zip(self.rows, self.cols, self.vals):
            total += v * y[i, j] if i == j else v * (y[i, j] + y[j, i])
        return float(total)


class SparseVec(_Sparse):
    """A vector of the given length held as its nonzeros: vals[k] at
    offset + idx[k], idx increasing, in read-only intp and float arrays,
    no value ±0.0.  The constructor copies the arrays it is given.
    Rows that differ only in where their values sit, as a ladder's rungs
    do, share both arrays.  Unlike a matrix, mostly a one- or two-entry
    unit made by the thousand, a free row can be as long as the free
    vector, where arrays take a quarter of the memory of tuples."""

    __slots__ = ("length", "idx", "vals", "offset")

    def _set(self, length, idx, vals, offset):
        set_ = object.__setattr__
        set_(self, "length", length)
        set_(self, "idx", idx)
        set_(self, "vals", vals)
        set_(self, "offset", offset)

    def __init__(self, length: int, idx, vals, offset: int = 0):
        length, offset = operator.index(length), operator.index(offset)
        idx, vals = np.array(idx, dtype=np.intp), np.array(vals, dtype=float)
        if idx.ndim != 1 or idx.shape != vals.shape:
            raise ValueError("idx and vals must be vectors of one length")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("idx must be increasing")
        if idx.size and not (0 <= offset + idx[0] and offset + idx[-1] < length):
            raise ValueError(f"an index plus offset {offset} is outside 0..{length - 1}")
        if not vals.all():
            raise ValueError("a stored value is zero")
        idx.setflags(write=False)
        vals.setflags(write=False)
        self._set(length, idx, vals, offset)

    @staticmethod
    def from_dense(v) -> "SparseVec":
        v = np.asarray(v, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"free coefficients must be a vector, got shape {v.shape}")
        k = np.flatnonzero(v)
        vals = v[k]
        for arr in (k, vals):
            arr.setflags(write=False)
        return SparseVec._of(v.size, k, vals, 0)

    def _at(self, offset: int, length: int) -> "SparseVec":
        """This vector placed from offset in one of the given length, which
        must hold it; both arrays are shared.  Unchecked, as _of."""
        return SparseVec._of(length, self.idx, self.vals, self.offset + offset)

    def signed(self, sign: float) -> "SparseVec":
        """sign times this vector, sign 1 or -1."""
        _check_sign(sign)
        if sign == 1.0:
            return self
        vals = -self.vals
        vals.setflags(write=False)
        return SparseVec._of(self.length, self.idx, vals, self.offset)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.length)
        out[self.offset + self.idx] = self.vals
        return out

    def dot(self, u: np.ndarray) -> float:
        return float(np.dot(self.vals, u[self.offset + self.idx]))


def _sparse_sym(k) -> SparseSym:
    return k if type(k) is SparseSym else SparseSym.from_dense(k)


def _sparse_vec(v) -> SparseVec:
    return v if type(v) is SparseVec else SparseVec.from_dense(v)


@dataclass(frozen=True)
class Constraint:
    """Linear equality Σ_B <mats[B], Y_B> + free·u = rhs: a row given to
    StandardFormSdp.from_rows, or read from its constraints view.  Dense
    arrays given for mats or free are converted to SparseSym and
    SparseVec."""

    name: str
    mats: dict[str, SparseSym]
    free: SparseVec
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "free", _sparse_vec(self.free))
        object.__setattr__(self, "mats", {b: _sparse_sym(k) for b, k in self.mats.items()})


def _misfit(what: str, length: int, n_free: int, mats: dict, orders: dict) -> ValueError:
    return ValueError(
        f"{what} does not fit the system: free length {length} for n_free {n_free}, "
        f"matrix orders {({b: k.order for b, k in mats.items()})} "
        f"for blocks {({b: orders.get(b) for b in mats})}"
    )


_ROW_FIELDS = ("row_ptr", "entry_block", "entry_coeff", "row_free", "row_offset", "rhs")


@dataclass(frozen=True)
class StandardFormSdp:
    """An emitted system, its rows held as columns of ids into two tables:
    coeffs, the distinct coefficient matrices, and free_rows, the distinct
    free rows, each at offset 0 and of length n_free, or 0 for no free
    part.  Row r has the matrices coeffs[entry_coeff[e]] on the blocks
    blocks[entry_block[e]], e in row_ptr[r]..row_ptr[r + 1] - 1, in block
    order, the free row free_rows[row_free[r]] placed at row_offset[r],
    and rhs[r]; its name is pre + label, the rows taken in order from the
    (pre, labels) sections.  The arrays are copied as int32 and float64
    and made read-only.  The tables are checked once per distinct matrix
    and free row and once per id array, not once per row: a free row of
    another length would be written into the negated half of the free
    block, and a matrix of another order than its block outside it.
    from_rows packs rows given as Constraints and constraints unpacks
    them, for hand-built systems and tests; dense objective arrays are
    converted as a Constraint converts its own."""

    system: str
    sense: str
    blocks: tuple[PsdBlock, ...]
    n_free: int
    objective_mats: dict[str, SparseSym]
    objective_free: SparseVec
    coeffs: tuple[SparseSym, ...]
    free_rows: tuple[SparseVec, ...]
    row_ptr: np.ndarray
    entry_block: np.ndarray
    entry_coeff: np.ndarray
    row_free: np.ndarray
    row_offset: np.ndarray
    rhs: np.ndarray
    sections: tuple[tuple[str, tuple[str, ...]], ...]
    var_map: dict[str, VarSlot]

    def __post_init__(self):
        set_ = functools.partial(object.__setattr__, self)
        set_("objective_mats", {b: _sparse_sym(k) for b, k in self.objective_mats.items()})
        set_("objective_free", _sparse_vec(self.objective_free))
        for field in _ROW_FIELDS:
            arr = np.array(getattr(self, field), dtype=float if field == "rhs" else np.int32)
            arr.setflags(write=False)
            set_(field, arr)
        ptr, blk, ks, rows = self.row_ptr, self.entry_block, self.entry_coeff, self.rhs.size
        ok = ptr.shape == (rows + 1,) and ptr[0] == 0 and ptr[-1] == blk.size == ks.size
        ok = ok and np.all(np.diff(ptr) >= 0) and self.row_free.size == self.row_offset.size == rows
        ok = ok and sum(len(labels) for _, labels in self.sections) == rows
        for ids, table in zip((blk, ks, self.row_free), (self.blocks, self.coeffs, self.free_rows)):
            ok = ok and (not ids.size or 0 <= ids.min() and ids.max() < len(table))
        in_row = np.repeat(np.arange(rows), np.diff(ptr)) if ok else None
        if not (ok and np.all((np.diff(blk) > 0) | (np.diff(in_row) > 0))):
            raise ValueError("row tables of unequal lengths, an id outside its table, or a row "
                             "whose blocks are not in block order")
        orders = {b.name: b.order for b in self.blocks}
        mats, free = self.objective_mats, self.objective_free
        misfit = any(orders.get(b) != k.order for b, k in mats.items())
        if misfit or free.length not in (self.n_free, 0):
            raise _misfit("the objective", free.length, self.n_free, mats, orders)
        bad = ~np.isin([v.length for v in self.free_rows], (self.n_free, 0))[self.row_free]
        # The block orders, then the matrix orders: a row is bad where they differ.
        sizes = np.array([b.order for b in self.blocks] + [k.order for k in self.coeffs])
        bad[in_row[sizes[blk] != sizes[len(self.blocks) + ks]]] = True
        if bad.any():
            con = next(itertools.islice(self._rows(), int(np.argmax(bad)), None))
            raise _misfit(f"constraint {con.name}", con.free.length, self.n_free, con.mats, orders)

    @staticmethod
    def from_rows(constraints: Sequence[Constraint], **fields) -> "StandardFormSdp":
        """The system of the given rows and other fields.  A matrix, or a
        free row's index and values arrays, given to several rows is held
        once."""
        index = {b.name: i for i, b in enumerate(fields["blocks"])}
        orders, rows = {b.name: b.order for b in fields["blocks"]}, _Rows()
        for con in constraints:
            what, mats = f"constraint {con.name}", con.mats
            if not mats.keys() <= index.keys():
                raise _misfit(what, con.free.length, fields["n_free"], mats, orders)
            cols = [(index[b], [rows.coeff_id(mats[b])]) for b in sorted(mats, key=index.get)]
            rows.add(con.name, ("",), cols, *rows.free_id(con.free), con.rhs)
        return rows.system(**fields)

    def _rows(self) -> Iterator[Constraint]:
        ptr, blk, ks = self.row_ptr.tolist(), self.entry_block.tolist(), self.entry_coeff.tolist()
        names = (pre + label for pre, labels in self.sections for label in labels)
        for name, lo, hi, f, off, rhs in zip(
            names, ptr, ptr[1:], self.row_free.tolist(), self.row_offset.tolist(), self.rhs.tolist()
        ):
            v, mats = self.free_rows[f], zip(blk[lo:hi], ks[lo:hi])
            mats = {self.blocks[b].name: self.coeffs[k] for b, k in mats}
            yield Constraint(name=name, mats=mats, free=v._at(off, v.length) if off else v, rhs=rhs)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as Constraints, made on each read, for tests and tools;
        they share the tables' matrices and arrays, and a free row at
        offset 0 is the table's own.  No library code reads this view."""
        return tuple(self._rows())


class _Rows:
    """A StandardFormSdp's row tables, filled a section of rows at a time.
    A matrix gets its table id at its first use, and a free row the id of
    its index and values arrays; the tables keep each alive, so no id()
    is reused while they are filled."""

    def __init__(self):
        self.coeffs, self.free_rows, self.sections, self.parts, self.ids = [], [], [], [], {}

    def _id(self, key, table: list, obj) -> int:
        if key not in self.ids:
            self.ids[key] = len(table)
            table.append(obj)
        return self.ids[key]

    def coeff_id(self, k: SparseSym) -> int:
        return self._id(id(k), self.coeffs, k)

    def free_id(self, v: SparseVec) -> tuple[int, int]:
        """v's table id and its offset."""
        at0 = v._at(-v.offset, v.length) if v.offset else v
        return self._id((id(v.idx), id(v.vals), v.length), self.free_rows, at0), v.offset

    def add(self, pre: str, labels: tuple, cols, free, offset, rhs) -> None:
        """Rows named pre + label, one per label: cols are (block index,
        matrix ids) pairs in block order, id -1 where a row has no matrix
        on that block; free, offset and rhs give each row's free row id,
        its offset and rhs, or one for every row."""
        n = len(labels)
        ids = np.array([c for _, c in cols], dtype=np.int32).reshape(len(cols), n).T
        has = ids >= 0
        blk = np.broadcast_to(np.array([b for b, _ in cols], dtype=np.int32), ids.shape)
        self.sections.append((pre, labels))
        per_row = (np.broadcast_to(x, n) for x in (free, offset, rhs))
        self.parts.append((has.sum(1), blk[has], ids[has], *per_row))

    def system(self, **fields) -> StandardFormSdp:
        parts = self.parts or [(np.zeros(0, np.int32),) * len(_ROW_FIELDS)]
        counts, *cols = (np.concatenate(col) for col in zip(*parts))
        tables = dict(zip(_ROW_FIELDS, (np.concatenate([[0], np.cumsum(counts)]), *cols)))
        return StandardFormSdp(coeffs=tuple(self.coeffs), free_rows=tuple(self.free_rows),
                               sections=tuple(self.sections), **tables, **fields)


@dataclass
class Assignment:
    """A full variable assignment: one symmetric array per PSD block plus
    the free vector."""

    blocks: dict[str, np.ndarray]
    free: np.ndarray


def residuals(sdp: StandardFormSdp, assign: Assignment) -> np.ndarray:
    """Each row's value less its rhs: its free part, then its matrices in
    block order."""
    u, ys = assign.free, [assign.blocks[b.name] for b in sdp.blocks]
    frees = map(sdp.free_rows.__getitem__, sdp.row_free.tolist())
    out = np.array([v.vals @ u[off + v.idx] for v, off in zip(frees, sdp.row_offset.tolist())])
    entries = zip(sdp.entry_block.tolist(), sdp.entry_coeff.tolist())
    dots = [sdp.coeffs[k].dot(ys[b]) for b, k in entries]
    np.add.at(out, np.repeat(np.arange(out.size), np.diff(sdp.row_ptr)), dots)
    return out - sdp.rhs


def max_violation(sdp: StandardFormSdp, assign: Assignment) -> float:
    res = residuals(sdp, assign)
    return float(np.max(np.abs(res))) if res.size else 0.0


def min_block_eigenvalue(sdp: StandardFormSdp, assign: Assignment) -> float:
    worst = 0.0
    for b in sdp.blocks:
        lam = float(np.linalg.eigvalsh(assign.blocks[b.name])[0])
        worst = min(worst, lam)
    return worst


def objective_value(sdp: StandardFormSdp, assign: Assignment) -> float:
    total = sdp.objective_free.dot(assign.free)
    for name, k in sdp.objective_mats.items():
        total += k.dot(assign.blocks[name])
    return total


def extract(sdp: StandardFormSdp, assign: Assignment, name: str) -> np.ndarray:
    """Resolve a var_map name against an assignment."""
    slot = sdp.var_map[name]
    if slot.kind == "free_vec":
        return assign.free[slot.offset : slot.offset + slot.length].copy()
    if slot.kind == "free_sym":
        vals = assign.free[slot.offset : slot.offset + slot.length]
        out = np.zeros((slot.order, slot.order))
        for v, (i, j) in zip(vals, svec_order(slot.order)):
            out[i, j] = out[j, i] = v
        return out
    if slot.kind == "block":
        return assign.blocks[slot.block].copy()
    if slot.kind == "sub_block":
        blk = assign.blocks[slot.block]
        return blk[slot.row0 : slot.row0 + slot.rows, slot.col0 : slot.col0 + slot.cols].copy()
    if slot.kind == "tan_sum":
        blk = assign.blocks[slot.block]
        n = slot.order
        w = blk[:n, n:]
        return w + w.T
    raise ValueError(f"unknown slot kind {slot.kind!r}")


def _free_sym_coeffs(a: np.ndarray, index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Coefficients c with c·x_utri = <A, X> for upper-triangle layout and
    symmetric X; A itself need not be symmetric.  index is svec_index of
    A's order, which the strong systems make once for all their rows."""
    n = a.shape[0]
    i, j = index
    c = a[i, j]
    c[n:] += a[j[n:], i[n:]]
    return c


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


def _ladder_system(
    rows: _Rows, inst: SdpInstance, system: str, sense: str, objective_free: SparseVec,
    slots: dict[str, VarSlot], *, count: int, rung: Sequence[tuple], step: int, rung_sign: float,
    head_sign: float, head_free: Sequence[SparseVec], head_rhs: np.ndarray, last: Sequence = (),
) -> StandardFormSdp:
    """The one ladder assembly behind dram, altram and pram, after the rows
    already in rows.

    Rows, in order: for each rung i = 1..count the rows (label, K, free)
    of rung, read as rung_sign·<K, U_i + V_i> + free·u = 0 with free
    placed step·i further on (no matrices where K is None); the corner
    ties T_i[:n, :n] = U_{i-1} for i = 2..count+1, T_{count+1} being
    Thead; the head rows head_sign·(P + Vhead) + head_free[idx]·u =
    head_rhs entrywise in svec order; the sections of last.  With
    count = 0 there are no rungs, no coupling blocks and no ties, and the
    head reads head_sign·P.  No coefficient depends on the rung, so every
    rung and every tie holds the same matrix ids on its own blocks.
    """
    n = inst.n
    pairs = svec_order(n)
    # Blocks U1..Ucount, T2..Tcount, Thead, P: T_i at count + i - 2.
    tags = [str(i) for i in range(2, count + 1)] + ["head"] * (count > 0)
    blocks = [PsdBlock(f"U{i}", n) for i in range(1, count + 1)]
    blocks += [PsdBlock(f"T{tag}", 2 * n) for tag in tags] + [PsdBlock("P", n)]
    vm = {b.name: VarSlot(kind="block", block=b.name, order=n) for b in blocks if b.order == n}
    for tag in tags:
        sub = dict(kind="sub_block", block=f"T{tag}", col0=n, rows=n, cols=n, order=n)
        vm[f"W{tag}"], vm[f"R{tag}"] = VarSlot(row0=0, **sub), VarSlot(row0=n, **sub)
        vm[f"V{tag}"] = VarSlot(kind="tan_sum", block=f"T{tag}", order=n)

    def ids(mats, make=lambda k: k):  # the table ids of make(K), -1 for no K
        return [-1 if k is None else rows.coeff_id(make(k)) for k in mats]

    if count:
        signed = [k if k is None else k.signed(rung_sign) for _, k, _ in rung]
        psd, coupled = ids(signed), ids(signed, SparseSym.coupling) if count > 1 else []
        free, offset = zip(*(rows.free_id(v) for _, _, v in rung))
        labels = tuple(label for label, _, _ in rung)
        for i in range(1, count + 1):
            cols = [(i - 1, psd)] + [(count + i - 2, coupled)] * (i > 1)
            rows.add(f"rung{i}_", labels, cols, free, np.add(offset, step * i), 0.0)
        no_free = rows.free_id(SparseVec(objective_free.length, (), ()))[0]
        corner = [rows.coeff_id(SparseSym.unit(2 * n, p, q)) for p, q in pairs]
        prev_u = [rows.coeff_id(SparseSym.unit(n, p, q).signed(-1.0)) for p, q in pairs]
        for i, tag in enumerate(tags, start=2):
            cols = [(i - 2, prev_u), (count + i - 2, corner)]
            rows.add(f"tie{tag}", _pair_labels(n), cols, no_free, 0, 0.0)
    signed = [SparseSym.unit(n, p, q).signed(head_sign) for p, q in pairs]
    free, offset = zip(*map(rows.free_id, head_free))
    cols = [(2 * count - 1, ids(signed, SparseSym.coupling))] if count else []
    cols.append((2 * count, ids(signed)))
    rows.add("head_decomp", _pair_labels(n), cols, free, offset, head_rhs[svec_index(n)])
    for section in last:
        rows.add(*section)
    return rows.system(
        system=system, sense=sense, blocks=tuple(blocks), n_free=objective_free.length,
        objective_mats={}, objective_free=objective_free, var_map={**vm, **slots},
    )


def _at_cols(inst: SdpInstance, n_free: int) -> list[SparseVec]:
    """Entry idx holds the coefficients of (𝒜*y)[p, q] on y, (p, q) the
    idx-th svec pair, in a free row of length n_free."""
    i, j = svec_index(inst.n)
    at = np.array([a.a[i, j] for a in inst.a]).reshape(inst.m, i.size)
    return [SparseVec.from_dense(col)._at(0, n_free) for col in at.T]


def _dual_ladder(inst: SdpInstance, system: str) -> StandardFormSdp:
    """dram and altram: free y, y^1..y^L (y^i at offset m·i), L =
    min(n-1, m); rung i reads 𝒜*y^i = U_i + V_i entrywise and
    <b, y^i> = 0.  One free row per entry serves its head row and its rung
    rows, and one <b, ·> row every rung, the objective of dram and the
    last row of altram, <b, y> = -1."""
    n, m = inst.n, inst.m
    count = dual_ladder_length(n, m)
    n_free = m * (count + 1)
    at = _at_cols(inst, n_free)
    b = SparseVec.from_dense(inst.b)._at(0, n_free)
    units = [SparseSym.unit(n, p, q) for p, q in svec_order(n)]
    rung = [*zip(["decomp" + s for s in _pair_labels(n)], units, at), ("rhs", None, b)]
    slots = {f"y{i or ''}": VarSlot("free_vec", offset=m * i, length=m) for i in range(count + 1)}
    dram, rows = system == SYSTEM_DRAM, _Rows()
    return _ladder_system(
        rows, inst, system, SENSE_MAX, b if dram else SparseVec(n_free, (), ()), slots,
        count=count, rung=rung, step=m, rung_sign=-1.0, head_sign=1.0 if dram else -1.0,
        head_free=at, head_rhs=inst.c.a if dram else np.zeros((n, n)),
        last=[] if dram else [("head_rhs", ("",), [], rows.free_id(b)[0], 0, -1.0)],
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


def _primal_eq(rows: _Rows, inst: SdpInstance, n_free: int) -> None:
    """Adds the rows 𝒜X = b over the utri layout of X at free offset 0."""
    index = svec_index(inst.n)
    free = [SparseVec.from_dense(_free_sym_coeffs(a.a, index))._at(0, n_free) for a in inst.a]
    labels = tuple(str(t) for t in range(1, inst.m + 1))
    rows.add("primal_eq", labels, [], [rows.free_id(v)[0] for v in free], 0, inst.b)


def build_pram(inst: SdpInstance) -> StandardFormSdp:
    """The exact primal of the dual: min <C, X> with an X-side ladder.

    X is a free symmetric matrix; its membership in S₊ + tan(U_{n-1}) is
    carried by X = P + Vhead.  Each rung imposes 𝒜(U_i + V_i) = 0 and
    <C, U_i + V_i> = 0.  Requires linearly independent A_i.
    """
    n, m = inst.n, inst.m
    if m:
        s = np.linalg.svd(constraint_stack(inst), compute_uv=False)
        if int(np.sum(s > max(s[0], 1.0) * INDEP_TOL)) < m:
            raise DependentConstraintsError("A_i are linearly dependent")
    nn = n * (n + 1) // 2
    no_free, unit = SparseVec(nn, (), ()), SparseVec(nn, (0,), (1.0,))
    rung = [(f"a{t + 1}", SparseSym.from_dense(a.a), no_free) for t, a in enumerate(inst.a)]
    rung.append(("c", SparseSym.from_dense(inst.c.a), no_free))
    rows = _Rows()
    _primal_eq(rows, inst, nn)
    return _ladder_system(
        rows, inst, SYSTEM_PRAM, SENSE_MIN,
        SparseVec.from_dense(_free_sym_coeffs(inst.c.a, svec_index(n))),
        {"X": VarSlot(kind="free_sym", offset=0, length=nn, order=n)},
        count=n - 1, rung=rung, step=0, rung_sign=1.0, head_sign=-1.0,
        head_free=[unit._at(idx, nn) for idx in range(nn)], head_rhs=np.zeros((n, n)),
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


def _rotated_entry(q: np.ndarray, p: int, qq: int, s: int, sign: float):
    """sign·(Q V Qᵀ)[p, qq] as coefficients on a symmetric V split at s.

    Returns the leading s×s and the trailing diagonal blocks of
    sign·outer(Q[p], Q[qq]) and the row-major coefficients of V[:s, s:],
    into which both off-diagonal blocks fold.  Adding 0.0 turns the
    products' -0.0 into 0.0.
    """
    c = sign * np.outer(q[p], q[qq]) + 0.0
    return c[:s, :s], c[s:, s:], (c[:s, s:] + c[s:, :s].T).reshape(-1)


def _strong_rows(rows: _Rows, pre: str, n: int, rhs, entries: Iterator[tuple]) -> None:
    """Adds one row per svec pair of order n from entries, the dense free
    row and block matrix of each; the row holds the matrix's symmetric
    part, and no matrix where it is zero."""
    ids, free = [], []
    for v, k in entries:
        ids.append(rows.coeff_id(SparseSym.from_dense((k + k.T) / 2.0)) if np.any(k) else -1)
        free.append(rows.free_id(SparseVec.from_dense(v))[0])
    rows.add(pre, _pair_labels(n), [(0, ids)], free, 0, rhs)


def build_dstrong(inst: SdpInstance, spec: StrongDualSpec) -> StandardFormSdp:
    """The strong dual: C - 𝒜*y = QVQᵀ with only V₂₂ (trailing r) PSD."""
    n, m = inst.n, inst.m
    spec.validate(n)
    r, q = spec.r, spec.q
    f = n - r  # order of the free leading part
    # Free layout: y (m), V11 utri (f(f+1)/2), V12 row-major (f*r).
    n11 = f * (f + 1) // 2
    n_free = m + n11 + f * r
    index = svec_index(f)

    def entry(p, qq):
        k11, k22, k12 = _rotated_entry(q, p, qq, f, 1.0)
        free = [[a.a[p, qq] for a in inst.a], _free_sym_coeffs(k11, index), k12]
        return np.concatenate(free), k22

    rows = _Rows()
    _strong_rows(rows, "slack_eq", n, inst.c.a[svec_index(n)], (entry(*pq) for pq in svec_order(n)))
    vm = {"y": VarSlot(kind="free_vec", offset=0, length=m),
          "V11": VarSlot(kind="free_sym", offset=m, length=n11, order=f)}
    if r:
        vm["V22"] = VarSlot(kind="block", block="V22", order=r)
    return rows.system(system="dstrong", sense=SENSE_MAX, blocks=(PsdBlock("V22", r),) if r else (),
                       n_free=n_free, objective_mats={},
                       objective_free=SparseVec.from_dense(inst.b)._at(0, n_free), var_map=vm)


def build_pstrong(inst: SdpInstance, spec: StrongDualSpec) -> StandardFormSdp:
    """The strong primal: min <C,X>, 𝒜X = b, X = QVQᵀ, leading r-block of
    V PSD (the max-rank slack's PD block position)."""
    n = inst.n
    spec.validate(n)
    r, q = spec.r, spec.q
    f = n - r
    nn = n * (n + 1) // 2
    # Free layout: X utri (nn), V22 utri (f(f+1)/2), V12 row-major (r*f).
    n22 = f * (f + 1) // 2
    n_free = nn + n22 + r * f
    index = svec_index(f)

    def entry(idx, p, qq):
        k11, k22, k12 = _rotated_entry(q, p, qq, r, -1.0)
        free = np.concatenate([np.zeros(nn), _free_sym_coeffs(k22, index), k12])
        free[idx] = 1.0
        return free, k11

    rows = _Rows()
    _primal_eq(rows, inst, n_free)
    entries = (entry(idx, p, qq) for idx, (p, qq) in enumerate(svec_order(n)))
    _strong_rows(rows, "shape_eq", n, 0.0, entries)
    vm = {"X": VarSlot(kind="free_sym", offset=0, length=nn, order=n),
          "V22": VarSlot(kind="free_sym", offset=nn, length=n22, order=f)}
    if r:
        vm["V11"] = VarSlot(kind="block", block="V11", order=r)
    objective = SparseVec.from_dense(_free_sym_coeffs(inst.c.a, svec_index(n)))._at(0, n_free)
    return rows.system(system="pstrong", sense=SENSE_MIN, blocks=(PsdBlock("V11", r),) if r else (),
                       n_free=n_free, objective_mats={}, objective_free=objective, var_map=vm)


def build_red(inst: SdpInstance) -> tuple[StandardFormSdp, DualComplement]:
    """Equality-form rewrite of the dual over the slack Z.

    Z is feasible iff Z = C - 𝒜*y for a dual-feasible y, and
    <X0, Z> + <y, b> = <X0, C> is constant, so optima correspond too.
    """
    comp = complement_basis(inst)
    rows, no_free = _Rows(), SparseVec(0, (), ())
    ids = [rows.coeff_id(SparseSym.from_dense(d.a)) for d in comp.d]
    labels = tuple(str(j + 1) for j in range(comp.ell))
    rows.add("red_eq", labels, [(0, ids)], rows.free_id(no_free)[0], 0, comp.d_vals)
    sdp = rows.system(system="red", sense=SENSE_MIN, blocks=(PsdBlock("Z", inst.n),), n_free=0,
                      objective_mats={"Z": SparseSym.from_dense(comp.x0.a)}, objective_free=no_free,
                      var_map={"Z": VarSlot(kind="block", block="Z", order=inst.n)})
    return sdp, comp


def red_to_instance(comp: DualComplement) -> SdpInstance:
    """View the equality-form rewrite as a plain instance over Z."""
    return SdpInstance(a=comp.d, b=comp.d_vals.copy(), c=comp.x0)


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
