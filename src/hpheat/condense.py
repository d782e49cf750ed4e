"""Static condensation of the element interiors of the implicit matrix.

An hp discretization couples an element's interior DOFs (its bubbles and
interior flux modes) only within that element.  `condense` uses this to
factor the implicit matrix of the theta scheme once per system:

- it equilibrates the matrix, row and column max-norms to one, because
  temperature and flux rows differ in scale by many orders of magnitude in
  strongly nonlocal regimes;
- it inverts every element's interior block, all in one batched call;
- it factors the Schur complement left on the vertex DOFs with dgbtrf: a
  band of half-bandwidth 1 for the local models and 3 for GK whatever the
  degree;
- it folds the row scaling, the explicit matrix and the elimination of the
  interiors into one CSR step operator, and the same for the load on the
  rows that boundary data load.

Every element block is gathered straight from the sparse matrices: the
element-interleaved order puts each element's DOFs in one run, so an
entry's element and local slots follow from its row and column, and no
step of the set-up loops over elements in Python.  `stack` joins several
condensed systems into one block-diagonal system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgetrf

from .assembly import Field, ProbeRow, SemiDiscreteSystem


class FactorizationError(RuntimeError):
    """Singular implicit matrix; pivot is the 1-based failing index."""

    def __init__(self, pivot: int):
        super().__init__(f"LU factorization failed at pivot {pivot}")
        self.pivot = pivot


@dataclass
class CondensedFactorization:
    """The equilibrated (A + dt theta B), condensed onto the vertex DOFs.

    Temperature and flux rows differ in scale by many orders of magnitude in
    strongly nonlocal regimes, so the implicit matrix M is equilibrated:
    row scales r and column scales c (free numbering) bring every row and
    column to unit max-norm.  The vertex rows and columns are scaled once
    more, so that the vertex Schur complement has unit max-norm rows and
    columns too, and the interior columns so that N = M_ii^-1 M_iv has rows
    of at most unit max-norm; otherwise the back-substitution overflows
    long before the coefficients do.

    Interior DOFs couple only within their element.  The march runs on the
    condensed state y = alpha / c in the order `order`: the vertex DOFs
    first, then each element's interior run.  lu and ipiv are the dgbtrf
    factors of the vertex Schur complement M_vv - M_vi M_ii^-1 M_iv, whose
    half-bandwidths kl = ku are 1 for the local models and 3 for GK at any
    degree.  m_expl maps y to the right-hand side of the condensed step:
    the vertex rows with the interiors eliminated, then M_ii^-1 times the
    interior rows, with the row scaling and the explicit matrix folded in.
    load_fold does the same for a load on SemiDiscreteSystem.load_rows, the
    free rows that boundary data load: it maps the load on them, in that
    order, to the right-hand side on the condensed rows load_rows it
    reaches.  `interior` is N, which recovers the interiors once the vertex
    DOFs are known.
    """

    lu: np.ndarray
    ipiv: np.ndarray
    kl: int
    ku: int
    dim: int
    m_expl: sp.csr_matrix
    row_scale: np.ndarray
    col_scale: np.ndarray
    order: np.ndarray
    n_vertex: int
    interior: sp.csr_matrix
    load_rows: np.ndarray
    load_fold: sp.csr_matrix

    def state(self, alpha: np.ndarray) -> np.ndarray:
        """The condensed state of a free coefficient vector."""
        return alpha[self.order] / self.col_scale[self.order]

    def coefficients(self, y: np.ndarray) -> np.ndarray:
        """The free coefficient vector of a condensed state."""
        alpha = np.empty(self.dim)
        alpha[self.order] = self.col_scale[self.order] * y
        return alpha

    def probe(self, rows: Sequence[ProbeRow]) -> tuple[np.ndarray, np.ndarray]:
        """Where the free DOFs of the probe rows, one row after the other,
        sit in the condensed state, and their column scales: c * y[at] is
        the rows' part of coefficients(y), bit for bit."""
        position = np.empty(self.dim, dtype=int)
        position[self.order] = np.arange(self.dim)
        free = np.concatenate([np.zeros(0, dtype=int)] + [r.free_idx for r in rows])
        return position[free], self.col_scale[free]


class _Elements:
    """Where every free DOF sits in its element and in the condensed state.

    In the element-interleaved numbering element e spans one run of full
    DOFs, from its left vertex through its right vertex.  Its local slots
    are taken in the order: the pv DOFs at its left vertex, those at its
    right vertex (T before q), then its ni interior DOFs.  The condensed
    state holds the free vertex DOFs in ascending order, then the interiors
    element by element.  Slot maps hold -1 where a DOF is constrained.
    """

    def __init__(self, dofmap):
        t = dofmap.vertex_dofs[Field.TEMPERATURE]
        q = dofmap.vertex_dofs[Field.HEAT_FLUX]
        at_vertex = t[:, None] if q is None else np.column_stack((t, q))
        self.pv = pv = at_vertex.shape[1]
        stride = int(t[1] - t[0])
        self.ni = stride - pv
        self.local = np.concatenate(
            (np.arange(pv), stride + np.arange(pv), pv + np.arange(self.ni))
        )
        self.stride, self.n_elements = stride, len(t) - 1
        # Every free DOF's offset from the first element's run, and the
        # element it is gathered into when the other DOF of an entry lies no
        # further left: its own element, the one to its right for a vertex
        # DOF (the last one for the last vertex).
        self.offset = (dofmap.free_to_full - t[0]).astype(np.int32)
        self.owner = np.minimum(self.offset // stride, self.n_elements - 1)
        self.slot_of = np.argsort(self.local).astype(np.int32)
        # Free index and state index of every element slot.
        self.free = dofmap.full_to_free[t[:-1, None] + self.local]
        vertex = dofmap.full_to_free[at_vertex]
        is_free = vertex >= 0
        self.nv = nv = int(is_free.sum())
        nodes = np.full(vertex.shape, -1, dtype=np.int32)
        nodes[is_free] = np.arange(nv)
        self.order = np.concatenate((vertex[is_free], self.free[:, 2 * pv:].ravel()))
        interiors = np.arange(nv, self.order.size, dtype=np.int32).reshape(-1, self.ni)
        self.state = np.hstack((nodes[:-1], nodes[1:], interiors))

    def blocks(self, matrix: sp.spmatrix) -> np.ndarray:
        """The element blocks of a free-DOF matrix, in local slots.

        A vertex's own coupling is assembled from both elements at it; it is
        kept once, in the element to its right (the last vertex in the last
        element), so that the blocks sum to the matrix.
        """
        # Entry (i, j) lies in the leftmost of the two DOFs' owners, at the
        # slots of their offsets into that element's run.
        csr = matrix.tocsr()
        csr.sum_duplicates()
        counts = np.diff(csr.indptr)
        element = np.minimum(np.repeat(self.owner, counts), self.owner.take(csr.indices))
        first = element * self.stride
        row = self.slot_of.take(np.repeat(self.offset, counts) - first)
        col = self.slot_of.take(self.offset.take(csr.indices) - first)
        n = len(self.local)
        blocks = np.zeros((self.n_elements, n, n))
        blocks.put((element * n + row) * n + col, csr.data)
        return blocks


def _triples(values: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """(row, col, value) of the entries whose row and column are not -1."""
    rows, cols = np.broadcast_arrays(rows, cols)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], values[keep]


def _csr(values: np.ndarray, cols: np.ndarray, n_cols: int, head=None) -> sp.csr_matrix:
    """CSR matrix with the rows of head, if given, and then a row for every
    index of values but the last: the entries whose column (cols, broadcast
    to values) is not -1.  Each row's columns must ascend."""
    cols = np.broadcast_to(cols, values.shape)
    keep = cols >= 0
    if head is None:
        head = sp.csr_matrix((0, n_cols))
    counts = keep.reshape(-1, values.shape[-1]).sum(axis=1)
    indptr = np.concatenate((head.indptr, head.nnz + np.cumsum(counts)))
    data = np.concatenate((head.data, values[keep]))
    indices = np.concatenate((head.indices, cols[keep]))
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols))


def _singular_pivot(elements: _Elements, interiors: np.ndarray) -> int:
    """1-based free index of the failing pivot of the first singular
    interior block."""
    sign, _ = np.linalg.slogdet(interiors)
    e = int(np.argmax(sign == 0.0))
    _, _, info = dgetrf(interiors[e])
    return int(elements.order[elements.nv + e * elements.ni + max(info, 1) - 1]) + 1


def condense(sys: SemiDiscreteSystem, dt: float, theta: float) -> CondensedFactorization:
    """Equilibrate the implicit matrix A + dt theta B, invert its interior
    blocks, factor the vertex Schur complement and fold the step operator
    of the explicit matrix A - dt (1 - theta) B, all element block by
    element block, and fold the load on sys.load_rows.

    Raises FactorizationError naming the free index of the failing pivot.
    """
    dim = sys.dim
    elements = _Elements(sys.dofmap)
    pv, ni, nv = elements.pv, elements.ni, elements.nv
    v, i = slice(0, 2 * pv), slice(2 * pv, None)
    # The implicit and explicit matrices, built in place to spare memory.
    expl = elements.blocks(sys.A)
    b = elements.blocks(sys.B)
    impl = dt * theta * b
    impl += expl
    b *= dt * (1.0 - theta)
    expl -= b
    del b

    # Row and column max-norms of the implicit matrix; a constrained slot
    # (free index -1) lands on the extra last entry, and its scale is 0.
    slot = elements.free
    r = np.zeros(dim + 1)
    np.maximum.at(r, slot, np.abs(impl).max(axis=2))
    if np.any(r[:dim] == 0.0):
        raise FactorizationError(int(np.argmin(r[:dim] > 0.0)) + 1)
    r = 1.0 / r[:dim]
    r_slot = np.append(r, 0.0).take(slot)[:, :, None]
    impl *= r_slot
    c = np.zeros(dim + 1)
    np.maximum.at(c, slot, np.abs(impl).max(axis=1))
    c = np.where(c[:dim] > 0.0, 1.0 / c[:dim], 1.0)
    impl *= np.append(c, 0.0).take(slot)[:, None, :]
    expl *= r_slot

    try:
        inverse = np.linalg.inv(impl[:, i, i])
    except np.linalg.LinAlgError:
        raise FactorizationError(_singular_pivot(elements, impl[:, i, i])) from None
    eliminate = impl[:, v, i] @ inverse

    # The vertex Schur complement M_vv - M_vi M_ii^-1 M_iv in LAPACK
    # general-band layout: entry (i, j) lives at ab[kl + ku + i - j, j],
    # with kl extra rows of factorization workspace on top.
    vertex_slots = elements.state[:, v]
    schur = impl[:, v, v] - eliminate @ impl[:, i, v]
    s_row, s_col, s_val = _triples(schur, vertex_slots[:, :, None], vertex_slots[:, None, :])
    kl = ku = int(np.max(np.abs(s_row - s_col), initial=0))
    ab = np.zeros((2 * kl + ku + 1, nv), order="F")
    np.add.at(ab, (kl + ku + s_row - s_col, s_col), s_val)
    # Equilibrated in turn, rows by rs and columns by cs: back-substituting
    # rows far from unit max-norm overflows long before the state does.
    cell_row = np.arange(2 * kl + ku + 1)[:, None] - (kl + ku) + np.arange(nv)
    inside = (cell_row >= 0) & (cell_row < nv)
    rs = np.zeros(nv)
    np.maximum.at(rs, cell_row[inside], np.abs(ab[inside]))
    if np.any(rs == 0.0):
        raise FactorizationError(int(elements.order[np.argmin(rs > 0.0)]) + 1)
    rs = 1.0 / rs
    ab[inside] *= rs[cell_row[inside]]
    cs = np.abs(ab).max(axis=0)
    cs = np.where(cs > 0.0, 1.0 / cs, 1.0)
    ab *= cs
    if nv:
        lu, ipiv, info = dgbtrf(ab, kl, ku)
        if info > 0:
            raise FactorizationError(int(elements.order[info - 1]) + 1)
        if info < 0:
            raise RuntimeError(f"illegal argument {-info} in banded factorization")
    else:
        lu, ipiv = ab, np.zeros(0, dtype=np.int32)

    # N = M_ii^-1 M_iv on the rescaled vertex columns; the interior columns
    # are scaled by d >= 1 so that its rows have at most unit max-norm, and
    # the interiors do not overflow before the coefficients do.
    across = inverse @ impl[:, i, v]
    across *= np.append(cs, 0.0).take(vertex_slots)[:, None, :]
    d = np.maximum(np.abs(across).max(axis=2), 1.0)[:, :, None]
    across /= d
    inverse /= d
    eliminate *= np.append(rs, 0.0).take(vertex_slots)[:, :, None]
    vertex = elements.order[:nv]
    r[vertex] *= rs
    c[vertex] *= cs
    c[elements.order[nv:]] *= d.ravel()

    # Per element, the condensation [[I, -M_vi M_ii^-1], [0, M_ii^-1]] of the
    # element's rows; applied to the explicit matrix it gives the step
    # operator, and to the row scaling the load operator.
    expl *= np.append(c, 0.0).take(slot)[:, None, :]
    expl_v = expl[:, v] * np.append(rs, 0.0).take(vertex_slots)[:, :, None]
    folded = np.concatenate((expl_v - eliminate @ expl[:, i], inverse @ expl[:, i]), axis=1)
    # A vertex row gathers the vertex-slot rows of the elements on both
    # sides; the conversion from triples adds them up.
    state = elements.state
    k_row, k_col, k_val = _triples(folded[:, v], vertex_slots[:, :, None], state[:, None, :])
    vertex_rows = sp.csr_matrix((k_val, (k_row, k_col)), shape=(nv, dim))
    m_expl = _csr(folded[:, i], state[:, None], dim, head=vertex_rows)
    interior = _csr(across, vertex_slots[:, None], nv)

    # The load operator: the load on a vertex row is row-scaled, and the
    # load on an interior row is eliminated as m_expl eliminates the
    # interior rows.
    loaded = sys.load_rows
    at = np.empty(dim, dtype=int)
    at[elements.order] = np.arange(dim)
    at = at.take(loaded)
    on_vertex, inner = np.flatnonzero(at < nv), np.flatnonzero(at >= nv)
    e, k = np.divmod(at[inner] - nv, ni)
    scaled = r.take(loaded[inner])[:, None]
    l_row, l_col, l_val = _triples(
        np.hstack((-eliminate[e, :, k] * scaled, inverse[e, :, k] * scaled)),
        state[e],
        inner[:, None],
    )
    fold = sp.csr_matrix(
        (
            np.concatenate((r.take(loaded[on_vertex]), l_val)),
            (np.concatenate((at[on_vertex], l_row)), np.concatenate((on_vertex, l_col))),
        ),
        shape=(dim, loaded.size),
    )
    load_rows = np.flatnonzero(np.diff(fold.indptr))
    return CondensedFactorization(
        lu=lu, ipiv=ipiv, kl=kl, ku=ku, dim=dim, m_expl=m_expl,
        row_scale=r, col_scale=c, order=elements.order, n_vertex=nv,
        interior=interior, load_rows=load_rows, load_fold=fold[load_rows],
    )


def stack(facts: Sequence[CondensedFactorization]) -> CondensedFactorization:
    """Several condensed systems as one, block-diagonal: the free numbering
    runs member after member, and the condensed state holds every member's
    vertex DOFs, then every member's interiors.

    Each member's LU factors move into the widest member's band layout,
    where the extra diagonals hold exact zeros, and its pivots shift by the
    vertex DOFs before it.  Every step thus does for each member the
    operations of its own step, in the same order.
    """
    nv = np.array([f.n_vertex for f in facts])
    dims = np.array([f.dim for f in facts])
    free_start = np.cumsum(dims) - dims
    vertex_start = np.cumsum(nv) - nv
    interior_start = nv.sum() + np.cumsum(dims - nv) - (dims - nv)
    # Condensed index of every member's state entries, member after member.
    place = np.concatenate([
        np.concatenate((np.arange(v) + vs, np.arange(d - v) + is_))
        for v, d, vs, is_ in zip(nv, dims, vertex_start, interior_start)
    ])
    dim = int(dims.sum())
    # Converted from COO, every row keeps its members' column order.
    step = sp.block_diag([f.m_expl for f in facts], format="coo")
    m_expl = sp.csr_matrix((step.data, (place[step.row], place[step.col])), shape=(dim, dim))
    order = np.empty(dim, dtype=int)
    order[place] = np.concatenate([f.order + s for f, s in zip(facts, free_start)])
    kl = max(f.kl for f in facts)
    lu = np.zeros((3 * kl + 1, int(nv.sum())), order="F")
    for f, vs in zip(facts, vertex_start):
        lu[2 * (kl - f.kl):2 * kl + f.kl + 1, vs:vs + f.n_vertex] = f.lu
    return CondensedFactorization(
        lu=lu,
        ipiv=np.concatenate([f.ipiv + vs for f, vs in zip(facts, vertex_start)]).astype(np.int32),
        kl=kl, ku=kl, dim=dim, m_expl=m_expl,
        row_scale=np.concatenate([f.row_scale for f in facts]),
        col_scale=np.concatenate([f.col_scale for f in facts]),
        order=order, n_vertex=int(nv.sum()),
        interior=sp.block_diag([f.interior for f in facts], format="csr"),
        load_rows=np.concatenate([place[f.load_rows + s] for f, s in zip(facts, free_start)]),
        load_fold=sp.block_diag([f.load_fold for f in facts], format="csr"),
    )
