"""Static condensation of the element interiors of the implicit matrix.

An hp discretization couples an element's interior DOFs (its bubbles and
interior flux modes) only within that element.  `condense` uses this to
factor the implicit matrix of the theta scheme once per system:

- it equilibrates the matrix, row and column max-norms to one, because
  temperature and flux rows differ in scale by many orders of magnitude in
  strongly nonlocal regimes;
- it inverts the elements' interior blocks, each distinct block once and
  all in one batched call;
- it factors the Schur complement left on the vertex DOFs with dgbtrf: a
  band of half-bandwidth 1 for the local models and 3 for GK whatever the
  degree, and an empty band, which dgbtrf returns as it is, when no vertex
  DOF is free;
- it folds the row scaling, the explicit matrix, the elimination of the
  interiors and their recovery from the vertex DOFs into one CSR step
  operator, so that a step is one sparse product and one banded solve, and
  folds the load on the rows that boundary data load the same way;
- it diagonalizes each element's interior block of that operator, F_ii,
  in a real basis of its eigenvectors (module `eigenbasis`), each distinct
  block once, and marches the element's interiors in that basis: an
  interior row of the step operator then holds one or two entries in the
  interior columns, where the block holds ni;
- it builds each probe's row on the condensed state, the transpose of
  the map to the coefficients applied to the probe's weights, so that the
  step's product gives the probe values too.

Elements are grouped by the bytes of their blocks, which is exact, since
equal inputs give equal outputs.  It pays because a uniform mesh has few
distinct Jacobians: 12 distinct interior blocks of the step operator in
100 elements at GK degree 10.  The eigenvectors come from LAPACK's QR
iteration, so their last bits, like those of the dgbtrf factors, depend on
the LAPACK build.

It reads the element blocks that `assemble` keeps, SemiDiscreteSystem's
A_blocks and B_blocks, and builds no global matrix.  No step of the set-up
loops over elements in Python but the diagonalization, which loops over
the distinct blocks.  Each map between the state and the coefficients is
kept once: the recovery -N of the interiors on the vertex columns, and W
and W^-1 per distinct block.  `stack` joins several condensed systems,
probe rows included, into one block-diagonal system, from the members'
CSR arrays as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgetrf
from scipy.sparse._sparsetools import csc_matvecs

from .assembly import ProbeRow, SemiDiscreteSystem
from .eigenbasis import EigenbasisRun, diagonalize


class FactorizationError(RuntimeError):
    """Singular implicit matrix; pivot is the 1-based failing index."""

    def __init__(self, pivot: int):
        super().__init__(f"LU factorization failed at pivot {pivot}")
        self.pivot = pivot


@dataclass
class CondensedFactorization:
    """The equilibrated (A + dt theta B), condensed onto the vertex DOFs.

    Row scales r and column scales c (free numbering) bring every row and
    column of the implicit matrix M to unit max-norm.  The vertex rows and
    columns are scaled once more, so that the vertex Schur complement has
    unit max-norm rows and columns too, and the interior columns so that
    N = M_ii^-1 M_iv has rows of at most unit max-norm; otherwise the
    back-substitution overflows long before the coefficients do.

    The scaled coefficients y = alpha / c, in the order `order` (the vertex
    DOFs first, then each element's interior run), are the vertex values v
    and the interiors y_i.  The march runs on the condensed state w = (v, u)
    instead, with u = W^-1 (y_i + N v) per element, the interiors'
    right-hand side before their recovery from v, in the eigenbasis W of
    the element's interior block F_ii of the step: T = W^-1 F_ii W is
    diagonal but for a 2x2 block per complex pair of eigenvalues, or W = I
    and T = F_ii (eigenbasis.diagonalize).  lu and ipiv are the dgbtrf
    factors of the vertex Schur complement M_vv - M_vi M_ii^-1 M_iv, of
    half-bandwidths kl = ku, 1 for the local models and 3 for GK at any
    degree, with no column when no vertex DOF is free.  m_expl maps w to
    the right-hand side of the condensed step: the vertex rows with the
    interiors eliminated, then W^-1 M_ii^-1 times the interior rows, with
    the row scaling and the explicit matrix folded in, the recovery -N v
    folded into the vertex columns and W into the interior columns.  Its
    interior rows hold T, and their right-hand side is already the next
    state's, so a step is one sparse product, the load and the
    back-substitution for v.  load_fold maps a load on
    SemiDiscreteSystem.load_rows, in that order, to the right-hand side on
    the condensed rows load_rows it reaches.

    The interiors are y_i = W u - N v: `recovery` holds -N, one row per
    interior and one column per vertex DOF of the state, and each run of
    `eigenbasis` holds W and W^-1 once per distinct block.  They convert
    between the state and the coefficients, once each way per march, and
    build the probes' rows on w: scales times the product of `functionals`
    with a state are the free part of the probe values on it
    (_functionals).  A system condensed without probes has no
    `functionals` (None) and no scales.
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
    recovery: sp.csr_matrix
    load_rows: np.ndarray
    load_fold: sp.csr_matrix
    eigenbasis: tuple[EigenbasisRun, ...]
    functionals: sp.csr_matrix | None
    scales: np.ndarray

    def state(self, alpha: np.ndarray) -> np.ndarray:
        """The condensed state of a free coefficient vector."""
        nv = self.n_vertex
        w = alpha[self.order] / self.col_scale[self.order]
        # y_i + N v, and then W^-1 (y_i + N v).
        w[nv:] -= self.recovery @ w[:nv]
        for run in self.eigenbasis:
            run.apply_inverse(w)
        return w

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """The free coefficient vector of a condensed state."""
        y = w.copy()
        # -N v, and then W u - N v.
        y[self.n_vertex:] = self.recovery @ w[:self.n_vertex]
        for run in self.eigenbasis:
            run.add_basis(w, y)
        alpha = np.empty(self.dim)
        alpha[self.order] = self.col_scale[self.order] * y
        return alpha


def _functionals(
    fact: CondensedFactorization, probes: Sequence[ProbeRow]
) -> tuple[sp.csr_matrix, np.ndarray]:
    """free_w . coefficients(w)[free_idx] of each probe as a row on the
    condensed state w, without zero entries, scaled to unit max-norm, and
    the scales: the transpose of `coefficients` applied to the weights.
    Unscaled (col_scale reaches 4.7e4), a row overflows on states whose
    coefficients are finite.  The values round apart from ProbeRow.evaluate
    (test_the_probe_functionals_agree_with_the_recovered_coefficients)."""
    dim, nv, n = fact.dim, fact.n_vertex, len(probes)
    position = np.empty(dim, dtype=int)
    position[fact.order] = np.arange(dim)
    free = np.concatenate([r.free_idx for r in probes])
    weight = np.concatenate([r.free_w for r in probes]) * fact.col_scale[free]
    g = np.zeros((dim, n))
    g[position[free], np.repeat(np.arange(n), [r.free_idx.size for r in probes])] = weight
    # g_v += recovery^T g_i by the kernel that `recovery.T @` ends in,
    # without the transpose that `.T` builds, which costs more.
    rec, back = fact.recovery, np.zeros((nv, n))
    csc_matvecs(nv, dim - nv, n, rec.indptr, rec.indices, rec.data, g[nv:].ravel(), back.ravel())
    g[:nv] += back
    for run in fact.eigenbasis:
        run.apply_transpose(g)
    # The nonzero entries, probe after probe, each probe's in column order.
    col, row = np.divmod(np.flatnonzero(g.ravel() != 0.0), n)
    entry = np.argsort(row, kind="stable")
    row, col = row[entry], col[entry]
    value = g[col, row]
    scales = np.zeros(n)
    np.maximum.at(scales, row, np.abs(value))
    indptr = np.searchsorted(row, np.arange(n + 1)).astype(np.int32)
    data = value / scales[row]
    return sp.csr_matrix((data, col.astype(np.int32), indptr), shape=(n, dim)), scales


class _Elements:
    """Where every slot of the element blocks (DofMap.block_dofs: pv DOFs at
    the left vertex, pv at the right one, then ni interior DOFs) sits in the
    free numbering and in the condensed state.

    The condensed state holds the free vertex DOFs in ascending order, then
    the interiors element by element.  Slot maps hold -1 where a DOF is
    constrained.
    """

    def __init__(self, dofmap):
        self.pv = pv = dofmap.per_vertex
        self.ni = dofmap.block_dofs.shape[1] - 2 * pv
        self.free = dofmap.full_to_free[dofmap.block_dofs]
        vertex = np.vstack((self.free[:, :pv], self.free[-1:, pv:2 * pv]))
        is_free = vertex >= 0
        self.nv = nv = int(is_free.sum())
        nodes = np.full(vertex.shape, -1, dtype=np.int32)
        nodes[is_free] = np.arange(nv)
        self.order = np.concatenate((vertex[is_free], self.free[:, 2 * pv:].ravel()))
        interiors = np.arange(nv, self.order.size, dtype=np.int32).reshape(-1, self.ni)
        self.state = np.hstack((nodes[:-1], nodes[1:], interiors))


def _triples(values: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """(row, col, value) of the entries whose row and column are not -1."""
    rows, cols = np.broadcast_arrays(rows, cols)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], values[keep]


def _csr(values: np.ndarray, cols: np.ndarray, n_cols: int, head=None, pattern=None) -> sp.csr_matrix:
    """CSR matrix with the rows of head, if given, and then the rows of
    values, element by element: row values[e, k] holds the entries whose
    column cols[e] is not -1 and, if a pattern of values' shape is given,
    where pattern[e, k] holds.  Each row's columns must ascend."""
    keep = np.repeat((cols >= 0)[:, None, :], values.shape[1], axis=1)
    if pattern is not None:
        keep &= pattern
    data = values[keep]
    indices = np.repeat(cols[:, None, :], values.shape[1], axis=1)[keep]
    # Entry counts as a product with ones, exact in floating point.
    counts = (keep.reshape(-1, values.shape[2]) @ np.ones(values.shape[2])).astype(np.int32)
    if head is not None:
        data = np.concatenate((head.data, data))
        indices = np.concatenate((head.indices, indices))
        counts = np.concatenate((np.diff(head.indptr), counts))
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(counts.size, n_cols))


def _groups(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elements with bitwise equal blocks: first holds one element of
    each group and label each element's group, so that blocks[first[label]]
    equals blocks byte for byte.

    A block's key is the sum of its bytes read as 64-bit words, which is
    exact; an element whose block only shares its key with another's is a
    group of its own."""
    bits = np.ascontiguousarray(blocks).view(np.uint64).reshape(len(blocks), -1)
    _, first, label = np.unique(bits.sum(axis=1), return_index=True, return_inverse=True)
    alone = np.flatnonzero((bits[first[label]] != bits).any(axis=1))
    label[alone] = first.size + np.arange(alone.size)
    return np.concatenate((first, alone)), label


def _singular_pivot(elements: _Elements, interiors: np.ndarray) -> int:
    """1-based free index of the failing pivot of the first singular
    interior block."""
    sign, _ = np.linalg.slogdet(interiors)
    e = int(np.argmax(sign == 0.0))
    _, _, info = dgetrf(interiors[e])
    return int(elements.order[elements.nv + e * elements.ni + max(info, 1) - 1]) + 1


def condense(
    sys: SemiDiscreteSystem, dt: float, theta: float, probes: Sequence[ProbeRow] = ()
) -> CondensedFactorization:
    """Equilibrate the implicit matrix A + dt theta B, invert its interior
    blocks, factor the vertex Schur complement and fold the step operator
    of the explicit matrix A - dt (1 - theta) B, all element block by
    element block, fold the load on sys.load_rows, and build the rows of
    the probes, ProbeRows on the system's free numbering, on the state.

    Raises FactorizationError naming the free index of the failing pivot.
    """
    dim = sys.dim
    elements = _Elements(sys.dofmap)
    pv, ni, nv = elements.pv, elements.ni, elements.nv
    v, i = slice(0, 2 * pv), slice(2 * pv, None)
    # The implicit and explicit matrices on the free DOFs: the rows and
    # columns of the constrained slots are zeroed, since their data enter
    # the load.
    impl = dt * theta * sys.B_blocks
    impl += sys.A_blocks
    expl = np.multiply(sys.B_blocks, dt * (1.0 - theta))
    np.subtract(sys.A_blocks, expl, out=expl)
    slot = elements.free
    for m in (impl, expl):
        m[slot < 0] = 0.0
        m.transpose(0, 2, 1)[slot < 0] = 0.0

    # Row and column max-norms of the implicit matrix; a constrained slot
    # (free index -1) lands on the extra last entry, and its scale is 0.
    # ufunc.at takes its fast path on flat indices.  The rows' is a running
    # maximum over the blocks' columns, faster than a reduction along rows.
    r = np.zeros(dim + 1)
    np.maximum.at(r, slot.ravel(), reduce(np.maximum, np.abs(impl).transpose(2, 0, 1)).ravel())
    if np.any(r[:dim] == 0.0):
        raise FactorizationError(int(np.argmin(r[:dim] > 0.0)) + 1)
    r = 1.0 / r[:dim]
    r_slot = np.append(r, 0.0).take(slot)[:, :, None]
    impl *= r_slot
    c = np.zeros(dim + 1)
    np.maximum.at(c, slot.ravel(), np.abs(impl).max(axis=1).ravel())
    c = np.where(c[:dim] > 0.0, 1.0 / c[:dim], 1.0)
    impl *= np.append(c, 0.0).take(slot)[:, None, :]
    expl *= r_slot

    first, label = _groups(impl[:, i, i])
    try:
        inverse = np.linalg.inv(impl[first, i, i])[label]
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
    lu, ipiv, info = dgbtrf(ab, kl, ku)
    if info > 0:
        raise FactorizationError(int(elements.order[info - 1]) + 1)
    if info < 0:
        raise RuntimeError(f"illegal argument {-info} in banded factorization")

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
    # Blocks that are done with are freed as soon as they are, so that they
    # do not add to the peak memory of the set-up.
    del impl, expl
    # The state holds y_i + N v in place of the interiors y_i, so the
    # interior columns, applied to -N v, fold into the vertex columns.
    folded[:, :, v] -= folded[:, :, i] @ across
    # The state holds W^-1 (y_i + N v), with W the eigenvectors of the
    # interior block F_ii (eigenbasis.diagonalize): F_ii becomes
    # T = W^-1 F_ii W, F_iv becomes W^-1 F_iv and F_vi becomes F_vi W.
    first, label = _groups(folded[:, i, i])
    t, basis, to_basis, pattern = diagonalize(folded[first, i, i])
    folded[:, v, i] = folded[:, v, i] @ basis[label]
    folded[:, i, v] = to_basis[label] @ folded[:, i, v]
    folded[:, i, i] = t[label]

    # The load operator: the load on a vertex row is row-scaled, and the
    # load on an interior row is eliminated, and turned into the basis W,
    # as m_expl eliminates the interior rows.
    state = elements.state
    loaded = sys.load_rows
    at = np.empty(dim, dtype=int)
    at[elements.order] = np.arange(dim)
    at = at.take(loaded)
    on_vertex, inner = np.flatnonzero(at < nv), np.flatnonzero(at >= nv)
    e, k = np.divmod(at[inner] - nv, ni)
    scaled = r.take(loaded[inner])[:, None]
    into = np.matmul(to_basis[label[e]], inverse[e, :, k, None])[:, :, 0]
    l_row, l_col, l_val = _triples(
        np.hstack((-eliminate[e, :, k] * scaled, into * scaled)),
        state[e],
        inner[:, None],
    )
    # No two entries share a row and a column: sorted by both, they are the
    # CSR matrix on the rows they reach.
    rows = np.concatenate((at[on_vertex], l_row))
    cols = np.concatenate((on_vertex, l_col))
    entry = np.lexsort((cols, rows))
    load_rows, fold_row = np.unique(rows, return_inverse=True)
    indptr = np.zeros(load_rows.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(fold_row, minlength=load_rows.size), out=indptr[1:])
    load_fold = sp.csr_matrix(
        (np.concatenate((r.take(loaded[on_vertex]), l_val))[entry], cols[entry].astype(np.int32), indptr),
        shape=(load_rows.size, loaded.size),
    )

    del inverse, eliminate

    # A vertex row gathers the vertex-slot rows of the elements on both
    # sides, laid out in the order of the columns they reach: the left
    # element's first vertex, the vertex itself, where the two elements'
    # rows add up, the right element's second vertex, then the left and the
    # right element's interiors.  An end vertex has one side; the other is
    # a zero row on columns -1.
    on = slice(pv, 2 * pv)
    left = np.concatenate((np.zeros_like(folded[:1, on]), folded[:, on]))
    right = np.concatenate((folded[:, :pv], np.zeros_like(left[:1])))
    none = np.full_like(state[:1], -1)
    left_cols, right_cols = np.concatenate((none, state)), np.concatenate((state, none))
    rows = np.concatenate(
        (left[..., :pv], left[..., on] + right[..., :pv], right[..., on], left[..., i], right[..., i]),
        axis=2,
    )
    cols = np.concatenate(
        (left_cols[:, :pv], np.maximum(left_cols[:, on], right_cols[:, :pv]), right_cols[:, on],
         left_cols[:, i], right_cols[:, i]),
        axis=1,
    )
    free = cols[:, on].ravel() >= 0
    vertex_rows = _csr(rows.reshape(-1, 1, cols.shape[1])[free], np.repeat(cols, pv, axis=0)[free], dim)
    # T's exact zeros stay out of the structure.
    structure = np.ones(folded[:, i].shape, dtype=bool)
    structure[:, :, i] = pattern[label]
    m_expl = _csr(folded[:, i], state, dim, head=vertex_rows, pattern=structure)
    del folded
    fact = CondensedFactorization(
        lu=lu, ipiv=ipiv, kl=kl, ku=ku, dim=dim, m_expl=m_expl,
        row_scale=r, col_scale=c, order=elements.order, n_vertex=nv,
        recovery=_csr(-across, state[:, v], nv), load_rows=load_rows, load_fold=load_fold,
        eigenbasis=(EigenbasisRun(nv, basis, to_basis, label),), functionals=None, scales=np.zeros(0),
    )
    if probes:
        fact.functionals, fact.scales = _functionals(fact, probes)
    return fact


def _joined(pieces, n_cols: int) -> sp.csr_matrix:
    """The CSR matrix of the pieces' rows, one piece after the other: a
    piece (m, rows, cols) gives the rows `rows`, a slice, of the CSR matrix
    m, with each column j moved to cols[j].  Every row keeps its column
    order."""
    data, indices, counts = [], [], [np.zeros(1, dtype=np.int32)]
    for m, rows, cols in pieces:
        entries = slice(m.indptr[rows.start], m.indptr[rows.stop])
        data.append(m.data[entries])
        indices.append(cols[m.indices[entries]].astype(np.int32))
        counts.append(np.diff(m.indptr[rows.start:rows.stop + 1]))
    indptr = np.cumsum(np.concatenate(counts), dtype=np.int32)
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(indptr.size - 1, n_cols)
    )


def stack(facts: Sequence[CondensedFactorization]) -> CondensedFactorization:
    """Several condensed systems as one, block-diagonal: the free numbering
    runs member after member, and the condensed state holds every member's
    vertex DOFs, then every member's interiors.

    The step operator, `recovery`, load_fold and the probes' rows join the
    members' CSR arrays: their row pointers offset, their column indices
    mapped into the stack, each row's entries in their order.  Each
    member's LU factors move into the widest member's band layout, where
    the extra diagonals hold exact zeros, and its pivots shift by the
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
    # Each member's condensed columns in the stack.
    cols = [place[s:s + d] for s, d in zip(free_start, dims)]
    m_expl = _joined(
        [(f.m_expl, slice(0, f.n_vertex), c) for f, c in zip(facts, cols)]
        + [(f.m_expl, slice(f.n_vertex, f.dim), c) for f, c in zip(facts, cols)],
        dim,
    )
    recovery = _joined(
        [(f.recovery, slice(0, f.dim - f.n_vertex), np.arange(f.n_vertex) + vs)
         for f, vs in zip(facts, vertex_start)],
        int(nv.sum()),
    )
    n_load = np.array([f.load_fold.shape[1] for f in facts])
    load_fold = _joined(
        [(f.load_fold, slice(0, f.load_rows.size), np.arange(n) + s)
         for f, n, s in zip(facts, n_load, np.cumsum(n_load) - n_load)],
        int(n_load.sum()),
    )
    probed = [(f.functionals, slice(0, f.scales.size), c) for f, c in zip(facts, cols) if f.scales.size]
    functionals = _joined(probed, dim) if probed else None
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
        recovery=recovery,
        load_rows=np.concatenate([place[f.load_rows + s] for f, s in zip(facts, free_start)]),
        load_fold=load_fold,
        eigenbasis=tuple(
            replace(run, start=int(run.start - f.n_vertex + s))
            for f, s in zip(facts, interior_start)
            for run in f.eigenbasis
        ),
        functionals=functionals, scales=np.concatenate([f.scales for f in facts]),
    )
