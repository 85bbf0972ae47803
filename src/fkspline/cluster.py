"""Clustering of fitted curves and partition agreement scores.

Distances between curves are true L2 distances between the fitted splines:
with shared basis and Gram matrix G, d(x_i, x_j)^2 = (c_i - c_j)' G
(c_i - c_j).  Factoring G = L L' turns this into plain Euclidean geometry on
the whitened vectors z = L' c, which is where Lloyd iterations, linkage, and
dispersions are computed.  Clustering runs on numpy alone; only
``matched_confusion`` imports scipy, for its assignment solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, LengthMismatchError, TooFewCurvesError, as_instance, as_integer,
                     as_reals)
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
    "partitions_equal",
    "adjusted_rand_index",
    "matched_confusion",
]

_LLOYD_MAX_ITER = 100
_DIFF_VALUES = 1 << 18  # 2 MB of point-center differences per batch
_LINKAGES = ("ward", "complete", "average")


@dataclass(frozen=True)
class Partition:
    """Cluster labels 1..k with every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", as_integer(self.k, 1, "k"))
        labels = as_reals(self.labels, "labels")
        if labels.ndim != 1 or labels.size == 0:
            raise ConfigError("labels must be a nonempty 1-d array")
        _check_integral(labels)
        if labels.min() < 1 or labels.max() > self.k:
            raise ConfigError(f"labels must lie in 1..{self.k}")
        labels = labels.astype(int)
        object.__setattr__(self, "labels", labels)
        if np.count_nonzero(np.bincount(labels)) != self.k:
            raise ConfigError("every cluster must be nonempty")

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(eq=False)
class ClusterResult:
    """One clustering of the curves in a fitted model."""

    partition: Partition
    centroids: np.ndarray  # (n_basis, k) member means of the coefficient vectors
    w: float  # within-cluster dispersion, sum of squared L2 curve distances
    iterations: int
    seed: int | None
    method: str


def _embedding(model: FitModel) -> np.ndarray:
    """Whitened curve vectors z = L' c (n, n_basis), with G = L L'."""
    L = np.linalg.cholesky(gram_matrix(model.spec).values)
    return (L.T @ model.coeffs).T


def _sq_dists(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (..., n, k) from the points z (n, d) to each set of
    centers (..., k, d).  A stack of sets (s, k, d) is taken a few sets at a
    time, so that about _DIFF_VALUES differences at most are held at once."""
    if centers.ndim == 3:
        s, step = centers.shape[0], max(1, _DIFF_VALUES // (centers.shape[1] * z.size))
        if s > step:
            return np.concatenate([_sq_dists(z, centers[i:i + step]) for i in range(0, s, step)])
    diff = z[:, None, :] - centers[..., None, :, :]
    return np.einsum("...ikj,...ikj->...ik", diff, diff)


def _dispersion(z: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum of squared distances (...) from each point to its own center, for
    labels (..., n) in 0..k-1 and centers (..., k, d)."""
    served = np.take_along_axis(_sq_dists(z, centers), labels[..., None], axis=-1)
    return served[..., 0].sum(axis=-1)


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
            # rng.choice(n, p=d2 / total) without its checks of p: the
            # same draw and the same stream position after it
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        centers[j] = z[idx]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", z - centers[j], z - centers[j]))
    return centers


def _reseed_empty(z: np.ndarray, d2: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """Give each empty cluster, in label order, its own point: the
    worst-served point not already taken this iteration.  Updates labels (n,)
    and centers (k, d) in place; d2 (n, k) holds the distances labels came from.
    """
    served = d2[np.arange(labels.size), labels]
    for j in range(centers.shape[0]):
        if not np.any(labels == j):
            worst = served.argmax()
            labels[worst] = j
            centers[j] = z[worst]
            served[worst] = -np.inf


def _group_means(z: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Member means (s, k, d) of z (n, d) under each row of labels (s, n).

    bincount adds each group's points in point order, as numpy's
    ``z[labels == j].mean(axis=0)`` does for d >= 2, so the two agree bit for
    bit there; with d = 1 numpy sums pairwise and they agree to roundoff.
    """
    s, (n, d) = labels.shape[0], z.shape
    group = np.arange(s)[:, None] * k + labels
    sums = np.bincount((group[:, :, None] * d + np.arange(d)).ravel(),
                       weights=np.broadcast_to(z, (s, n, d)).ravel(), minlength=s * k * d)
    counts = np.bincount(group.ravel(), minlength=s * k)
    return (sums.reshape(s * k, d) / counts[:, None]).reshape(s, k, d)


def _centroids(model: FitModel, partition: Partition) -> np.ndarray:
    """Member means (n_basis, k) of the curves' coefficient vectors."""
    return _group_means(model.coeffs.T, partition.labels[None] - 1, partition.k)[0].T


def _lloyd_lockstep(z: np.ndarray, starts: np.ndarray):
    """Lloyd iterations from every stack of initial centers (s, k, d) at once.

    Each start stops at the first iteration that leaves its labels unchanged
    or at the iteration cap.  Returns labels (s, n) in 0..k-1, centers
    (s, k, d), dispersions W (s,) and iteration counts (s,).
    """
    centers = np.array(starts, dtype=float)
    s, k, _ = centers.shape
    labels = np.full((s, z.shape[0]), -1)
    iterations = np.zeros(s, dtype=int)
    moving = np.arange(s)
    for it in range(1, _LLOYD_MAX_ITER + 1):
        iterations[moving] = it
        d2 = _sq_dists(z, centers[moving])
        new_labels = d2.argmin(axis=2)
        counts = np.bincount((np.arange(moving.size)[:, None] * k + new_labels).ravel(),
                             minlength=moving.size * k).reshape(-1, k)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            _reseed_empty(z, d2[r], new_labels[r], centers[moving[r]])
        changed = (new_labels != labels[moving]).any(axis=1)
        moving, new_labels = moving[changed], new_labels[changed]
        if moving.size == 0:
            break
        labels[moving] = new_labels
        centers[moving] = _group_means(z, new_labels, k)
    return labels, centers, _dispersion(z, centers, labels), iterations


def _check_k(k: int, n: int) -> int:
    """k as an int; raise what clustering n curves into k clusters raises for k."""
    k = as_integer(k, 1, "k")
    if n < k:
        raise TooFewCurvesError(f"cannot form {k} clusters from {n} curves")
    return k


def _check_k_max(k_max: int, n: int) -> int:
    """k_max as an int; raise what an elbow curve of n curves up to k_max raises for k_max."""
    k_max = as_integer(k_max, 2, "k_max")
    if n < k_max:
        raise TooFewCurvesError(f"k_max={k_max} exceeds the {n} curves")
    return k_max


def _check_kmeans(restarts: int, seed: int) -> tuple[int, int]:
    """restarts and seed as ints; raise what k-means raises for them."""
    return as_integer(restarts, 1, "restarts"), as_integer(seed, 0, "seed")


def _kmeans_z(z: np.ndarray, k: int, seed: int, restarts: int, inits=()):
    """Lowest-dispersion Lloyd run in z-space over the given initial centers
    followed by `restarts` seeded distance-weighted ones; exact ties keep
    the earliest start.

    Returns the partition, its centers (k, n_basis) in z-space with row j
    belonging to label j + 1, the dispersion W and the iteration count.
    """
    starts = list(inits)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append(_seed_centers(z, k, rng))
    labels, centers, w, iterations = _lloyd_lockstep(z, np.stack(starts))
    best = int(np.argmin(w))
    partition, seen = _as_partition(labels[best])
    return partition, centers[best][seen], float(w[best]), int(iterations[best])


def functional_kmeans(model: FitModel, k: int, seed: int = 0, restarts: int = 20) -> ClusterResult:
    """k-means on the L2 geometry of the fitted curves.

    Runs `restarts` seeded distance-weighted initializations and keeps the
    lowest dispersion; exact ties keep the earliest candidate, so results
    are deterministic for a fixed seed.
    """
    model = as_instance(model, FitModel, "model")
    k, (restarts, seed) = _check_k(k, model.n_curves), _check_kmeans(restarts, seed)
    partition, _, w, iters = _kmeans_z(_embedding(model), k, seed, restarts)
    return ClusterResult(
        partition=partition, centroids=_centroids(model, partition), w=w,
        iterations=iters, seed=seed, method="kmeans",
    )


def _distinct(x: np.ndarray):
    """np.unique(x, return_index=True, return_inverse=True) of a 1-d array
    by one stable sort (np.unique imports numpy.ma)."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _as_partition(raw_labels: np.ndarray) -> tuple[Partition, np.ndarray]:
    """Relabel arbitrary cluster ids to 1..k in order of first appearance.

    Also returns the raw ids in that order, so raw id seen[j] became j + 1.
    """
    ids, first, inverse = _distinct(raw_labels)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return Partition(labels=rank[inverse] + 1, k=ids.size), ids[order]


def _agglomerate(z: np.ndarray, k: int, linkage: str) -> np.ndarray:
    """Cluster ids (n,) of the agglomerative hierarchy of z (n, d) cut at k
    clusters; each id is a member point's index.

    Each round merges every pair of clusters that are each other's nearest
    neighbour (Murtagh 1983).  For the reducible ward, complete and average
    linkages this builds the hierarchy that merging one closest pair at a
    time does.  A merged pair lives on in the lower of its two slots.  Ward
    distances come from cluster sizes and centroids, kept squared:
    d^2 = 2|A||B|/(|A|+|B|) |mu_A - mu_B|^2.  Complete and average ones are
    the largest and the size-weighted mean point distance, combined for all
    of a round's pairs at once, rows first and then the merged columns
    (Lance & Williams 1967).  A merge's height is at least its parts'
    heights, and the cut applies the n - k lowest merges (ties in merge
    order), so exactly k clusters come back.
    """
    n = z.shape[0]
    norms = np.einsum("ij,ij->i", z, z)
    dist = z @ z.T  # squared point distances from inner products
    dist *= -2.0
    dist += norms
    dist += norms[:, None]
    np.maximum(dist, 0.0, out=dist)
    if linkage != "ward":
        np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    slot = np.arange(n)
    sizes = np.ones(n)
    heights = np.zeros(n)  # height of the merge that formed each cluster
    means = z.copy()
    kept, absorbed, merge_heights = [slot[:0]], [slot[:0]], [heights[:0]]  # none for n = 1
    while True:
        nearest = dist.argmin(axis=1)  # an emptied slot's row is all inf: nearest 0
        a = np.flatnonzero((nearest[nearest] == slot) & (slot < nearest))
        if a.size == 0:
            break
        b = nearest[a]
        h = np.maximum(dist[a, b], np.maximum(heights[a], heights[b]))
        kept.append(a)
        absorbed.append(b)
        merge_heights.append(h)
        sa, sb = sizes[a, None], sizes[b, None]
        if linkage == "complete":
            rows = np.maximum(dist[a], dist[b])
            rows[:, a] = np.maximum(rows[:, a], rows[:, b])
        elif linkage == "average":
            rows = (sa * dist[a] + sb * dist[b]) / (sa + sb)
            rows[:, a] = (rows[:, a] * sa.T + rows[:, b] * sb.T) / (sa + sb).T
        sizes[a] += sizes[b]
        heights[a] = h
        dist[b] = np.inf
        dist[:, b] = np.inf
        if linkage == "ward":
            means[a] = (sa * means[a] + sb * means[b]) / (sa + sb)
            norms[a] = np.einsum("ij,ij->i", means[a], means[a])
            norms[b] = np.inf  # so emptied slots stay at distance inf
            rows = means[a] @ means.T
            rows *= -2.0
            rows += norms
            rows += norms[a, None]
            np.maximum(rows, 0.0, out=rows)
            rows *= 2.0 / (1.0 / sizes[a, None] + 1.0 / sizes)
        else:
            rows[:, b] = np.inf
        dist[a] = rows
        dist[:, a] = rows.T
        dist[a, a] = np.inf
    kept, absorbed = np.concatenate(kept), np.concatenate(absorbed)
    lowest = np.argsort(np.concatenate(merge_heights), kind="stable")[: n - k]
    parent = np.arange(n)
    parent[absorbed[lowest]] = kept[lowest]
    while True:
        root = parent[parent]
        if np.array_equal(root, parent):
            return root
        parent = root


def hierarchical_cluster(model: FitModel, k: int, linkage: str = "ward") -> ClusterResult:
    """Agglomerative clustering of the fitted curves, cut at k clusters."""
    if linkage not in _LINKAGES:
        raise ConfigError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    k = _check_k(k, as_instance(model, FitModel, "model").n_curves)
    z = _embedding(model)
    partition, _ = _as_partition(_agglomerate(z, k, linkage))
    labels = partition.labels[None] - 1
    w = _dispersion(z, _group_means(z, labels, partition.k), labels)[0]
    return ClusterResult(
        partition=partition, centroids=_centroids(model, partition), w=float(w),
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
    model = as_instance(model, FitModel, "model")
    k_max, (restarts, seed) = _check_k_max(k_max, model.n_curves), _check_kmeans(restarts, seed)
    z = _embedding(model)
    n = z.shape[0]
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


def _check_integral(labels: np.ndarray) -> None:
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):  # nan, inf and 1.5 alike
        raise ConfigError("labels must be integers")


def _check_pair(predicted, truth):
    """Both label arguments flattened: integers (as Partition checks them) of one length."""
    a, b = (as_reals(labels, "labels").reshape(-1) for labels in (predicted, truth))
    _check_integral(np.concatenate([a, b]))
    if a.size != b.size:
        raise LengthMismatchError(f"partitions have lengths {a.size} and {b.size}")
    if a.size < 2:
        raise LengthMismatchError("need at least 2 elements to compare partitions")
    return a, b


def _contingency(a, b):
    ai, bi = _distinct(a)[2], _distinct(b)[2]
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
    pred_ids, truth_ids = _distinct(a)[0], _distinct(b)[0]
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
