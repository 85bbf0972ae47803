"""Clustering of fitted curves and partition agreement scores.

Distances between curves are true L2 distances between the fitted splines:
with shared basis and Gram matrix G, d(x_i, x_j)^2 = (c_i - c_j)' G
(c_i - c_j).  Factoring G = L L' turns this into plain Euclidean geometry on
the whitened vectors z = L' c, which is where Lloyd iterations, linkage, and
dispersions are computed.  Only the functions that use scipy import it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthMismatchError, TooFewCurvesError
from .penalty import gram_matrix
from .smoother import FitModel

__all__ = [
    "Partition",
    "ClusterResult",
    "ElbowResult",
    "functional_kmeans",
    "hierarchical_cluster",
    "elbow_curve",
    "confusion_counts",
    "rand_index",
    "adjusted_rand_index",
    "matched_confusion",
]

_LLOYD_MAX_ITER = 100
_LINKAGES = ("ward", "complete", "average")


@dataclass(frozen=True)
class Partition:
    """Cluster labels 1..k with every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ConfigError("labels must be a nonempty 1-d array")
        if labels.min() < 1 or labels.max() > self.k:
            raise ConfigError(f"labels must lie in 1..{self.k}")
        if np.unique(labels).size != self.k:
            raise ConfigError("every cluster must be nonempty")

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(eq=False)
class ClusterResult:
    """One clustering of the curves in a fitted model."""

    partition: Partition
    centroids: np.ndarray  # (n_basis, k) coefficient vectors in the shared basis
    w: float  # within-cluster dispersion, sum of squared L2 curve distances
    iterations: int
    seed: int | None
    method: str


def _embedding(model: FitModel) -> tuple[np.ndarray, np.ndarray]:
    """Whitened curve vectors (n, n_basis) and the Gram Cholesky factor."""
    from scipy.linalg import cholesky
    G = gram_matrix(model.spec).values
    L = cholesky(G, lower=True, check_finite=False)
    return (L.T @ model.coeffs).T, L


def _z_to_coeffs(L: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Map z-space centroids (k, n_basis) back to coefficient columns."""
    from scipy.linalg import solve_triangular
    return solve_triangular(L.T, centers.T, lower=False, check_finite=False)


def _sq_dists(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = z[:, None, :] - centers[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


def _seed_centers(z: np.ndarray, k: int, rng) -> np.ndarray:
    """Distance-weighted seeding: each new center drawn proportional to d^2."""
    n = z.shape[0]
    centers = np.empty((k, z.shape[1]))
    centers[0] = z[rng.integers(n)]
    d2 = np.einsum("ij,ij->i", z - centers[0], z - centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)  # all points coincide with a chosen center
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = z[idx]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", z - centers[j], z - centers[j]))
    return centers


def _lloyd(z: np.ndarray, centers: np.ndarray):
    """Lloyd iterations from the given centers; returns labels, centers, W, iters."""
    n, k = z.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for it in range(1, _LLOYD_MAX_ITER + 1):
        d2 = _sq_dists(z, centers)
        new_labels = d2.argmin(axis=1)
        # Re-seed empty clusters with the worst-served point.
        for j in range(k):
            if not np.any(new_labels == j):
                worst = d2[np.arange(n), new_labels].argmax()
                new_labels[worst] = j
                centers[j] = z[worst]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = z[labels == j].mean(axis=0)
    d2 = _sq_dists(z, centers)
    w = float(d2[np.arange(n), labels].sum())
    return labels, centers, w, it


def _kmeans_z(z: np.ndarray, k: int, seed: int, restarts: int, inits=()):
    """Lowest-dispersion Lloyd run in z-space over the given initial centers
    followed by `restarts` seeded distance-weighted ones; exact ties keep
    the earliest start.

    Returns the partition, its centers (k, n_basis) in z-space with row j
    belonging to label j + 1, the dispersion W and the iteration count.
    """
    if restarts < 1:
        raise ConfigError("restarts must be at least 1")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    starts = list(inits)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append(_seed_centers(z, k, rng))
    best = None
    for centers0 in starts:
        labels, centers, w, iters = _lloyd(z, centers0.copy())
        if best is None or w < best[0]:
            best = (w, labels, centers, iters)
    w, labels, centers, iters = best
    partition, seen = _as_partition(labels)
    return partition, centers[seen], w, iters


def functional_kmeans(model: FitModel, k: int, seed: int = 0, restarts: int = 20) -> ClusterResult:
    """k-means on the L2 geometry of the fitted curves.

    Runs `restarts` seeded distance-weighted initializations and keeps the
    lowest dispersion; exact ties keep the earliest candidate, so results
    are deterministic for a fixed seed.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    z, L = _embedding(model)
    n = z.shape[0]
    if n < k:
        raise TooFewCurvesError(f"cannot form {k} clusters from {n} curves")
    partition, centers, w, iters = _kmeans_z(z, k, seed, restarts)
    return ClusterResult(
        partition=partition, centroids=_z_to_coeffs(L, centers), w=w,
        iterations=iters, seed=seed, method="kmeans",
    )


def _as_partition(raw_labels: np.ndarray) -> tuple[Partition, np.ndarray]:
    """Relabel arbitrary cluster ids to 1..k in order of first appearance.

    Also returns the raw ids in that order, so raw id seen[j] became j + 1.
    """
    ids, first, inverse = np.unique(raw_labels, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return Partition(labels=rank[inverse] + 1, k=ids.size), ids[order]


def hierarchical_cluster(model: FitModel, k: int, linkage: str = "ward") -> ClusterResult:
    """Agglomerative clustering of the fitted curves, cut at k clusters."""
    from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
    from scipy.spatial.distance import pdist
    if linkage not in _LINKAGES:
        raise ConfigError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    if k < 1:
        raise ConfigError("k must be at least 1")
    z, L = _embedding(model)
    n = z.shape[0]
    if n < k:
        raise TooFewCurvesError(f"cannot form {k} clusters from {n} curves")
    if linkage == "ward":
        merge_tree = scipy_linkage(z, method="ward")
    else:
        merge_tree = scipy_linkage(pdist(z), method=linkage)
    labels = fcluster(merge_tree, t=k, criterion="maxclust")
    partition, _ = _as_partition(labels)
    centers = np.stack(
        [z[partition.labels == j].mean(axis=0) for j in range(1, partition.k + 1)], axis=0
    )
    d2 = _sq_dists(z, centers)
    w = float(d2[np.arange(n), partition.labels - 1].sum())
    return ClusterResult(
        partition=partition, centroids=_z_to_coeffs(L, centers), w=w,
        iterations=0, seed=None, method=f"hier-{linkage}",
    )


@dataclass(frozen=True)
class ElbowResult:
    """Dispersion curve W(1..k_max) and the curvature-based suggestion."""

    w: np.ndarray
    suggested_k: int
    low_confidence: bool


def elbow_curve(model: FitModel, k_max: int, seed: int = 0, restarts: int = 20) -> ElbowResult:
    """Dispersion-vs-k curve with the elbow (max second difference) marked.

    The curves are embedded once; each k reuses the previous solution's
    centroids (plus the worst-served point) as one initialization
    candidate, which makes W non-increasing in k.  The suggestion is
    flagged low-confidence when the strongest curvature is below 5% of W(1).
    """
    if k_max < 2:
        raise ConfigError("k_max must be at least 2")
    z, _ = _embedding(model)
    n = z.shape[0]
    if n < k_max:
        raise TooFewCurvesError(f"k_max={k_max} exceeds the {n} curves")
    w = np.empty(k_max)
    inits = ()
    for k in range(1, k_max + 1):
        partition, centers, w[k - 1], _ = _kmeans_z(z, k, seed, restarts, inits)
        d2 = _sq_dists(z, centers)
        worst = d2[np.arange(n), partition.labels - 1].argmax()
        inits = (np.vstack([centers, z[worst]]),)
    if k_max < 3:
        return ElbowResult(w=w, suggested_k=k_max, low_confidence=True)
    curvature = w[:-2] - 2.0 * w[1:-1] + w[2:]
    best = int(curvature.argmax())
    suggested = best + 2  # curvature index 0 corresponds to k = 2
    low_confidence = bool(curvature[best] < 0.05 * w[0])
    return ElbowResult(w=w, suggested_k=suggested, low_confidence=low_confidence)


def _check_pair(predicted, truth):
    a = np.asarray(predicted).reshape(-1)
    b = np.asarray(truth).reshape(-1)
    if a.size != b.size:
        raise LengthMismatchError(f"partitions have lengths {a.size} and {b.size}")
    if a.size < 2:
        raise LengthMismatchError("need at least 2 elements to compare partitions")
    return a, b


def _contingency(a, b):
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _pairs(x) -> np.ndarray:
    return x * (x - 1) // 2


def confusion_counts(predicted, truth) -> tuple[int, int, int, int]:
    """Pairwise decision counts (TP, TN, FP, FN) between two partitions.

    A pair is TP when both partitions co-cluster it, FP when only the
    predicted partition does, FN when only the truth does, TN otherwise;
    the four counts sum to n(n-1)/2.
    """
    a, b = _check_pair(predicted, truth)
    table = _contingency(a, b)
    tp = int(_pairs(table).sum())
    same_pred = int(_pairs(table.sum(axis=1)).sum())
    same_truth = int(_pairs(table.sum(axis=0)).sum())
    total = int(_pairs(np.int64(a.size)))
    fp = same_pred - tp
    fn = same_truth - tp
    tn = total - tp - fp - fn
    return tp, tn, fp, fn


def rand_index(predicted, truth) -> float:
    """Fraction of pairs on which the two partitions agree, in [0, 1]."""
    tp, tn, fp, fn = confusion_counts(predicted, truth)
    return (tp + tn) / (tp + tn + fp + fn)


def partitions_equal(predicted, truth) -> bool:
    """True when the partitions are identical up to relabeling."""
    a, b = _check_pair(predicted, truth)
    table = _contingency(a, b)
    return bool(np.all((table > 0).sum(axis=0) == 1) and np.all((table > 0).sum(axis=1) == 1))


def adjusted_rand_index(predicted, truth) -> float:
    """Chance-corrected pair agreement (permutation-model adjustment).

    Identical partitions score 1; independent random partitions score about
    0; the value can go negative.  When both partitions are trivial the
    adjustment denominator vanishes: the score is then 1 for equal
    partitions and 0 otherwise, with a warning.
    """
    tp, tn, fp, fn = confusion_counts(predicted, truth)
    same_pred, same_truth, total = tp + fp, tp + fn, tp + tn + fp + fn
    expected = same_pred * same_truth / total
    max_index = 0.5 * (same_pred + same_truth)
    denom = max_index - expected
    if denom == 0:
        warnings.warn(
            "both partitions are trivial; adjusted Rand index is degenerate",
            stacklevel=2,
        )
        return 1.0 if partitions_equal(predicted, truth) else 0.0
    return (tp - expected) / denom


def matched_confusion(predicted, truth) -> dict:
    """Per-cluster report under the best cluster-to-truth assignment.

    Clusters are matched to truth groups by maximizing total overlap
    (Hungarian assignment); each predicted cluster reports its cardinality,
    matched group, and false positives (members outside the matched group).
    """
    from scipy.optimize import linear_sum_assignment
    a, b = _check_pair(predicted, truth)
    pred_ids = np.unique(a)
    truth_ids = np.unique(b)
    table = _contingency(a, b)
    rows, cols = linear_sum_assignment(table, maximize=True)
    match = {int(pred_ids[i]): int(truth_ids[j]) for i, j in zip(rows, cols)}
    clusters = {}
    for i, pid in enumerate(pred_ids):
        size = int(table[i].sum())
        matched = match.get(int(pid))
        overlap = int(table[i, np.where(truth_ids == matched)[0][0]]) if matched is not None else 0
        clusters[int(pid)] = {
            "size": size,
            "matched_group": matched,
            "false_positives": size - overlap,
        }
    return clusters
