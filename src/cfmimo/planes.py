"""Kernels for stacks of small N x N matrices held as entry planes.

A stack of matrices of shape (..., N, N) is held as its entry planes, an
array of shape (N, N, ...) in which plane (i, j) is the C-contiguous array
of entry (i, j) of every matrix. A product, a trace or an inverse of the
whole stack is then a sum of N^2 or N^3 element-wise operations on long,
contiguous planes. Batched `@` and `np.linalg.inv` make one BLAS or LAPACK
call per matrix instead, and element-wise work over a trailing axis of
length N runs numpy's inner loop N elements at a time; for N = 2 to 4 that
overhead, not the arithmetic, is the cost.

`channel_stats` and `estimation_terms` build R, Psi and the MMSE estimator
in this layout and hand out the (..., N, N) views of `stacked`, so that
`planes` gives their planes back without a copy.
"""

from __future__ import annotations

import numpy as np


def planes(stack: np.ndarray) -> np.ndarray:
    """The (N, N, ...) entry planes of a (..., N, N) stack, C-contiguous.

    A stack that is a view from `stacked` gives its planes without a copy;
    any other stack is copied once.
    """
    return np.ascontiguousarray(np.moveaxis(stack, (-2, -1), (0, 1)))


def stacked(entry_planes: np.ndarray) -> np.ndarray:
    """The (..., N, N) stack of (N, N, ...) entry planes, as a view."""
    return np.moveaxis(entry_planes, (0, 1), (-2, -1))


def product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
            term: np.ndarray | None = None) -> np.ndarray:
    """Entry planes of the matrix products a b: out[i, j] = sum_c a[i, c] b[c, j].

    a (N, C, ...) and b (C, Q, ...) are entry planes whose trailing axes
    broadcast together; b may be one column (Q = 1), the planes b[:, None]
    of a stack of vectors. out, the (N, Q, ...) result, and term, one
    (...) plane, are buffers to write into, allocated when not given.
    """
    if out is None or term is None:
        shape = np.broadcast_shapes(a.shape[2:], b.shape[2:])
        if out is None:
            out = np.empty((a.shape[0], b.shape[1]) + shape,
                           np.result_type(a, b))
        if term is None:
            term = np.empty(shape, out.dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            np.multiply(a[i, 0], b[0, j], out=out[i, j])
            for c in range(1, b.shape[0]):
                out[i, j] += np.multiply(a[i, c], b[c, j], out=term)
    return out


def trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) = sum_ij a[i, j] b[j, i] of every matrix of two plane stacks."""
    return np.einsum("ij...,ji...->...", a, b)


def inverse(a: np.ndarray) -> np.ndarray:
    """Entry planes of the inverses of Hermitian positive definite matrices.

    Gauss-Jordan elimination on the planes, in place on a copy of a. It
    does not pivot: every pivot of a Hermitian positive definite matrix is
    a Schur complement of a leading block, itself positive definite, so no
    pivot is zero.
    """
    inv = np.array(a, dtype=np.result_type(a, 1.0))
    for k in range(inv.shape[0]):
        pivot = 1.0 / inv[k, k]
        factor = inv[:, k].copy()
        factor[k] = 0.0
        # Column k becomes that of the identity, the rows' elimination
        # then writes the inverse into it.
        inv[:, k] = 0.0
        inv[k, k] = 1.0
        inv[k] *= pivot
        inv -= factor[:, None] * inv[k]
    return inv
