"""Container for discretely observed functional data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LengthMismatchError, NonFiniteInputError, NonIncreasingKnotsError, as_reals

__all__ = ["FunctionalDataset"]


def _orthonormal_basis(A: np.ndarray) -> np.ndarray:
    """Q (m, k) with orthonormal columns and A = Q Q' A, for A (m, k), m > k.

    The Q of a Householder QR of A, written with numpy's elementwise and
    einsum kernels.  LAPACK's QR (numpy.linalg.qr) agrees to roundoff, but
    at 200 x 50 it wakes OpenBLAS's thread pool, which stalled a call for
    75-150 ms on a 2-core machine, against 3 ms here, when a second OpenBLAS
    had run in the same process (scipy's, which clustering then loaded).
    Nothing on the replicate pipeline loads scipy now; this QR stays
    because it keeps the outputs as they are and does not touch the pool.
    """
    A = A.copy()
    m, k = A.shape
    reflectors = []
    for j in range(k):
        v = A[j:, j].copy()
        v[0] += math.copysign(math.sqrt(np.einsum("i,i", v, v)), v[0])
        norm = math.sqrt(np.einsum("i,i", v, v))
        v = v / norm if norm > 0.0 else None  # a zero column needs no reflection
        if v is not None:
            A[j:, j + 1:] -= 2.0 * v[:, None] * np.einsum("i,ij->j", v, A[j:, j + 1:])
        reflectors.append(v)
    Q = np.eye(m, k)
    for j in reversed(range(k)):
        v = reflectors[j]
        if v is not None:
            Q[j:, j:] -= 2.0 * v[:, None] * np.einsum("i,ij->j", v, Q[j:, j:])
    return Q


# The largest sum of squares S of the observations taken.  A penalized
# fit's residuals have norm at most sqrt(S), so a forward difference of
# the knot search (steps of at least 1e-6, freeknot._FD_STEP) has norm at
# most 2e6 sqrt(S) and each entry of its Gauss-Newton matrix is at most
# 4e12 S: finite, as every sum of squares of a fit and of the row basis is.
_MAX_SQUARES = 1e295


@dataclass(frozen=True)
class FunctionalDataset:
    """A family of curves observed on one shared sample grid.

    t : (h,) strictly increasing sample points.
    values : (h, n) observation matrix, one column per curve, finite, with a
    sum of squares of at most 1e295 (_MAX_SQUARES).
    """

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = as_reals(self.t, "sample grid", NonFiniteInputError)
        values = np.atleast_2d(as_reals(self.values, "observations", NonFiniteInputError))
        if values.shape[0] == 1 and t.size > 1:
            values = values.T
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        if t.ndim != 1 or t.size < 2:
            raise LengthMismatchError("need a 1-d grid with at least 2 points")
        if values.ndim != 2:
            raise LengthMismatchError(f"values must be an (h, n) matrix, got shape {values.shape}")
        if values.shape[0] != t.size:
            raise LengthMismatchError(
                f"grid has {t.size} points but values has {values.shape[0]} rows"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(values))):
            raise NonFiniteInputError("grid and observations must be finite")
        if not np.einsum("ij,ij", values, values) <= _MAX_SQUARES:
            raise NonFiniteInputError(f"the sum of squares of the observations exceeds "
                                      f"{_MAX_SQUARES:g}; rescale the data")
        if np.any(t[1:] <= t[:-1]):
            raise NonIncreasingKnotsError("sample grid must be strictly increasing")

    @property
    def n_points(self) -> int:
        return self.t.size

    @property
    def n_curves(self) -> int:
        return self.values.shape[1]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])

    @cached_property
    def row_basis(self) -> np.ndarray | None:
        """Orthonormal (n, h) basis Q of the row space of values when n > h, else None.

        values = values Q Q', so a matrix M = A values keeps its Frobenius
        norm, and a pair of them their inner product, as M Q: the knot
        search scores residuals on h columns however many curves there are.
        Computed on first use and kept on this instance only.
        """
        if self.n_curves <= self.n_points:
            return None
        return _orthonormal_basis(self.values.T)

    @cached_property
    def reduced(self) -> "FunctionalDataset":
        """This dataset with values values @ row_basis on the same grid, or
        this dataset itself when there is no row basis.

        A penalized fit's df does not depend on the values, and its sse and
        GCV are the same on these (h, min(h, n)) data up to roundoff, so the
        knot search and the GCV grid (lambda_select.gcv_grid_search) fit them
        in place of the (h, n).  Computed on first use and kept on this
        instance only.
        """
        Q = self.row_basis
        return self if Q is None else FunctionalDataset(t=self.t, values=self.values @ Q)
