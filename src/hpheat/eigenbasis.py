"""Real block diagonalization of the element interiors' step blocks.

`condense` marches each element's interiors in a basis of eigenvectors W of
the element's interior block F of the step operator (the fast
diagonalization method of Lynch, Rice & Thomas, Numer. Math. 6, 185, 1964).
In that basis the block is T = W^-1 F W, diagonal but for a real 2x2 block
per complex pair of eigenvalues, so an interior row of the step operator
holds one or two entries in the interior columns.  `diagonalize` computes
T, W and W^-1 with LAPACK dgeev, one block at a time, and falls back to
W = I where W is ill-conditioned.  The last bits of T and W depend on the
LAPACK build.  An EigenbasisRun keeps W and W^-1 once per distinct block
of a system's elements, and converts their interiors both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeev

# The largest condition number kappa_1(W) = |W|_1 |W^-1|_1 of the
# eigenvectors W of an interior block that marches in their basis.  The
# conversions to and from the basis lose accuracy in proportion to it; a
# block above it marches as it stands (W = I).
MAX_EIGENVECTOR_COND = 1e3


@dataclass(frozen=True)
class EigenbasisRun:
    """W and W^-1 for the element interiors of one system, which run
    element by element in the arrays that its methods take: `basis` and
    `inverse` hold W and W^-1 once per distinct interior block, and `label`
    the block of each element."""

    basis: np.ndarray
    inverse: np.ndarray
    label: np.ndarray

    def _run(self, x: np.ndarray) -> np.ndarray:
        """The interiors x, a view element by element, then x's columns."""
        return x.reshape(self.label.size, self.basis.shape[1], -1)

    def apply_inverse(self, w: np.ndarray) -> None:
        """Turn w, the interiors z, into W^-1 z, in place."""
        run = self._run(w)
        run[...] = self.inverse[self.label] @ run

    def add_basis(self, w: np.ndarray, y: np.ndarray) -> None:
        """Add W u to the interiors y, u the interiors w, one column of W
        after the other: a reduction over the outermost axis of the
        C-contiguous `terms` adds its rows, the columns' terms, in turn."""
        u, out = self._run(w)[..., 0], self._run(y)[..., 0]
        terms = self.basis.transpose(2, 0, 1).take(self.label, axis=1)
        terms *= u.T[:, :, None]
        terms[0] += out
        np.add.reduce(terms, axis=0, out=out)

    def apply_transpose(self, g: np.ndarray) -> None:
        """Turn the interiors z of each column of g into W^T z, in place,
        one row of W after the other, from z's nonzero entries."""
        run = self._run(g)
        e, k, p = np.unravel_index((run.ravel() != 0.0).nonzero()[0], run.shape)
        terms = self.basis[self.label[e], k] * run[e, k, p, None]
        run[e, :, p] = 0.0
        np.add.at(run, (e[:, None], np.arange(run.shape[1]), p[:, None]), terms)


def diagonalize(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """T, W, W^-1 and the structure of T for each block, block = W T W^-1.

    W holds the right eigenvectors from LAPACK dgeev: an eigenvector x of a
    complex pair, the one whose eigenvalue a + ib has b > 0, as the columns
    Re x, Im x, so that T is diagonal but for the 2x2 block [[a, b], [-b, a]]
    of each pair, and the structure holds the diagonal and those blocks.
    Where dgeev fails or kappa_1(W) exceeds MAX_EIGENVECTOR_COND, W = I and
    T is the block, with a full structure.  A W that numpy cannot invert, a
    singular one such as a defective block can give, does the same to every
    block.
    """
    n, ni, _ = blocks.shape
    wr, wi = np.empty((2, n, ni))
    vectors = np.empty_like(blocks)
    failed = np.empty(n, dtype=bool)
    for k, block in enumerate(blocks):
        wr[k], wi[k], _, vectors[k], failed[k] = dgeev(block, compute_vl=0)
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        inverse = vectors
        failed[:] = True
    # The inverse of a W near singularity may overflow, and a failed
    # block's W may hold anything: its condition number is then infinite
    # or NaN, and either way not within the bound.
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.abs(vectors).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    failed |= ~(cond <= MAX_EIGENVECTOR_COND)
    # A failed block's eigenvalues may hold anything too; its T is the block.
    wr[failed] = wi[failed] = 0.0
    identity = np.eye(ni)
    # b at (j, j + 1) for the first column j of each pair.
    pair = np.maximum(wi, 0.0)[:, :, None] * np.eye(ni, k=1)
    pair_t = pair.transpose(0, 2, 1)
    whole = failed[:, None, None]
    return (
        np.where(whole, blocks, wr[:, :, None] * identity + pair - pair_t),
        np.where(whole, identity, vectors),
        np.where(whole, identity, inverse),
        whole | (identity + pair + pair_t > 0.0),
    )
