"""Compressed sparse rows on numpy alone: the few kernels the learners use.

A :class:`CsrMatrix` holds ``data``, ``indices`` and ``indptr`` as scipy's
CSR does. Each kernel adds its terms in the order scipy.sparse's compiled
loops add them, so every fitted weight and every score is the same float64
bits as the scipy expression named in its docstring:

* :meth:`CsrMatrix.normalized` leaves each row's columns in descending
  order, as ``diags @ csr`` does, so :meth:`CsrMatrix.dot` over a
  vectorizer's output sums features from the highest column down;
* row norms come from ``np.add.reduceat`` over the column-sorted row,
  which is how scipy sums a CSR row;
* a column sum (:meth:`CsrMatrix.tdot`, :meth:`CsrMatrix.class_mass`)
  visits rows in ascending order;
* :meth:`CsrMatrix.similarity` sums a query's features in stored order,
  visiting the training rows of each feature in ascending order.

Every scatter is ``np.add.at``, which is unbuffered and applies its terms
in index order, into a zeroed output.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence, Tuple

import numpy as np


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    offsets = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)


def _scatter_rows(n_rows: int, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``out[rows[i]] += terms[i]`` into a zeroed ``(n_rows, k)`` output, in
    order of ``i``, as one flat ``np.add.at`` (numpy's fast 1-d path)."""
    width = terms.shape[1]
    out = np.zeros(n_rows * width)
    np.add.at(out, (rows[:, None] * width + np.arange(width)).ravel(), terms.ravel())
    return out.reshape(n_rows, width)


class CsrMatrix:
    """A float64 CSR matrix: row ``r`` holds ``indices[indptr[r]:indptr[r+1]]``
    with values ``data[indptr[r]:indptr[r+1]]``."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: Tuple[int, int]):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = shape

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n_cols: int) -> "CsrMatrix":
        """The count matrix of ``rows``: entry ``(r, c)`` is how often column
        ``c`` occurs in ``rows[r]`` (a negative column is skipped), each
        row's columns ascending."""
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
        width = max(n_cols, 1)
        keys = np.repeat(np.arange(len(rows)) * width, lengths) + flat
        keys, counts = np.unique(keys[flat >= 0], return_counts=True)
        row_of, indices = np.divmod(keys, width)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=len(rows)), out=indptr[1:])
        return cls(counts.astype(np.float64), indices, indptr, (len(rows), n_cols))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def take(self, rows: np.ndarray) -> "CsrMatrix":
        """``csr[rows]``: the given rows, in that order, each as stored."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        source = _ranges(starts, lengths)
        return CsrMatrix(self.data[source], self.indices[source], indptr,
                         (len(rows), self.shape[1]))

    def normalized(self) -> "CsrMatrix":
        """Rows scaled to unit L2 norm (an empty row stays empty), each
        row's columns reversed: ``diags(1 / norms) @ csr`` on a CSR with
        ascending columns."""
        lengths = np.diff(self.indptr)
        nonempty = np.flatnonzero(lengths)
        sums = np.zeros(self.shape[0])
        if nonempty.size:
            squares = self.data * self.data
            sums[nonempty] = np.add.reduceat(squares, self.indptr[nonempty])
        norms = np.sqrt(sums)
        norms[norms == 0] = 1.0
        rows = self.row_ids()
        # Entry p of row r moves to indptr[r] + indptr[r + 1] - 1 - p.
        reverse = self.indptr[rows] + self.indptr[rows + 1] - 1 - np.arange(self.nnz)
        data = (1.0 / norms)[rows] * self.data
        return CsrMatrix(data[reverse], self.indices[reverse], self.indptr, self.shape)

    def dot(self, dense: np.ndarray) -> np.ndarray:
        """``csr @ dense``: each row's terms added in stored order."""
        terms = self.data[:, None] * dense[self.indices]
        return _scatter_rows(self.shape[0], self.row_ids(), terms)

    def tdot(self, dense: np.ndarray) -> np.ndarray:
        """``dense.T @ csr``: each column's terms added over rows ascending."""
        terms = self.data[:, None] * dense[self.row_ids()]
        return _scatter_rows(self.shape[1], self.indices, terms).T

    def class_mass(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        """``indicator @ csr`` for the one-hot ``indicator[labels[r], r] = 1``:
        each class's feature sums over its rows, ascending."""
        out = np.zeros(n_classes * self.shape[1])
        np.add.at(out, labels[self.row_ids()] * self.shape[1] + self.indices, self.data)
        return out.reshape(n_classes, self.shape[1])

    def by_column(self) -> "CsrMatrix":
        """The transpose as CSR (the CSC of this matrix): each column's rows
        ascending, as scipy converts ``csr.T`` before a sparse product."""
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.shape[1]), out=indptr[1:])
        return CsrMatrix(self.data[order], self.row_ids()[order], indptr,
                         (self.shape[1], self.shape[0]))

    def similarity(self, columns: "CsrMatrix") -> np.ndarray:
        """``(self @ train.T).toarray()`` given ``columns = train.by_column()``:
        each query feature in stored order adds its product with every
        training row holding that feature, rows ascending."""
        n_train = columns.shape[1]
        starts = columns.indptr[self.indices]
        lengths = columns.indptr[self.indices + 1] - starts
        source = _ranges(starts, lengths)
        targets = np.repeat(self.row_ids() * n_train, lengths) + columns.indices[source]
        out = np.zeros(self.shape[0] * n_train)
        np.add.at(out, targets, np.repeat(self.data, lengths) * columns.data[source])
        return out.reshape(self.shape[0], n_train)
