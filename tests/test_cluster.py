"""Functional clustering, partition agreement indices, and the elbow rule."""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.integrate import quad
from scipy.spatial.distance import pdist

from fkspline import (
    ConfigError,
    gram_matrix,
    FunctionalDataset,
    PenaltyConfig,
    TooFewCurvesError,
    adjusted_rand_index,
    confusion_counts,
    elbow_curve,
    fit_coefficients,
    functional_kmeans,
    hierarchical_cluster,
    make_basis_spec,
    matched_confusion,
    partitions_equal,
    rand_index,
)

import fkspline.cluster
from fkspline.cluster import Partition, _agglomerate, _kmeans_z, _lloyd_lockstep, _seed_centers

from conftest import coefficient_model, constant_curve_model


def pairwise_counts_oracle(a, b):
    """Count agreeing/disagreeing pairs by direct enumeration."""
    a = np.asarray(a)
    b = np.asarray(b)
    tp = tn = fp = fn = 0
    for i, j in itertools.combinations(range(a.size), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            tp += 1
        elif not same_a and not same_b:
            tn += 1
        elif same_a and not same_b:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def ari_fraction_oracle(a, b):
    """Exact adjusted agreement via integer arithmetic on the contingency table."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    total = Fraction(n * (n - 1), 2)
    cells = {}
    for x, y in zip(a, b):
        cells[(x, y)] = cells.get((x, y), 0) + 1
    same_both = sum(Fraction(c * (c - 1), 2) for c in cells.values())
    row = {}
    col = {}
    for (x, y), c in cells.items():
        row[x] = row.get(x, 0) + c
        col[y] = col.get(y, 0) + c
    same_a = sum(Fraction(c * (c - 1), 2) for c in row.values())
    same_b = sum(Fraction(c * (c - 1), 2) for c in col.values())
    expected = same_a * same_b / total
    max_index = Fraction(same_a + same_b, 2)
    if max_index == expected:
        return None  # degenerate
    return (same_both - expected) / (max_index - expected)


def all_partitions(n, max_blocks=3):
    """Every canonical labeling of n items into at most max_blocks blocks."""
    seen = set()
    out = []
    for labels in itertools.product(range(1, max_blocks + 1), repeat=n):
        canon = []
        mapping = {}
        for x in labels:
            mapping.setdefault(x, len(mapping) + 1)
            canon.append(mapping[x])
        key = tuple(canon)
        if key not in seen:
            seen.add(key)
            out.append(np.array(canon))
    return out


def twin_wave_model():
    """Ten copies each of sin 2 pi t and cos 2 pi t on 30 points, fitted on
    knots 0.25, 0.5, 0.75: two distinct curves, so every partition into more
    than two clusters that keeps the waves apart has W = 0."""
    t = np.linspace(0.0, 1.0, 30)
    waves = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
    spec = make_basis_spec(0.0, 1.0, 4, [0.25, 0.5, 0.75])
    dataset = FunctionalDataset(t=t, values=np.repeat(waves, 10, axis=1))
    return fit_coefficients(dataset, spec, PenaltyConfig())


def sequential_lloyd(z, centers):
    """Reference: one start's Lloyd iterations, one cluster mean at a time;
    each empty cluster, in label order, takes the worst-served point not
    already taken.  Returns labels, centers, W and the iteration count."""
    n, k = z.shape[0], centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1)
    for it in range(1, fkspline.cluster._LLOYD_MAX_ITER + 1):
        diff = z[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ikj,ikj->ik", diff, diff)
        new_labels = d2.argmin(axis=1)
        served = d2[np.arange(n), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                worst = served.argmax()
                new_labels[worst] = j
                centers[j] = z[worst]
                served[worst] = -np.inf
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = z[labels == j].mean(axis=0)
    diff = z[:, None, :] - centers[None, :, :]
    d2 = np.einsum("ikj,ikj->ik", diff, diff)
    return labels, centers, float(d2[np.arange(n), labels].sum()), it


class TestPartition:
    @pytest.mark.parametrize("labels, k, message", [
        (None, 2, "labels must be a nonempty 1-d array"),
        ([1], None, "k must be an integer >= 1, got None"),
        ([1, 2], "2", "k must be an integer >= 1, got '2'"),
        ([1.5, 2], 2, "labels must be integers"),
    ], ids=["labels-None", "k-None", "k-string", "fractional-label"])
    def test_bad_input_is_a_config_error(self, labels, k, message):
        with pytest.raises(ConfigError) as exc:
            Partition(labels, k)
        assert str(exc.value) == message

    def test_integral_values_are_stored_as_ints(self):
        partition = Partition([1.0, 2.0, 2.0], 2.0)
        assert partition.labels.dtype == np.array([1]).dtype and type(partition.k) is int
        assert partition.labels.tolist() == [1, 2, 2] and partition.k == 2


class TestPairCounts:
    def test_two_versus_two_split(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 1, 2])
        assert confusion_counts(a, b) == (0, 2, 2, 2)

    def test_all_merged_versus_singletons(self):
        a = np.array([1, 1, 1])
        b = np.array([1, 2, 3])
        assert confusion_counts(a, b) == (0, 0, 3, 0)

    def test_counts_sum_to_all_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a = rng.integers(1, 4, n)
            b = rng.integers(1, 4, n)
            counts = confusion_counts(a, b)
            assert sum(counts) == n * (n - 1) // 2

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            a = rng.integers(1, 4, n)
            b = rng.integers(1, 4, n)
            assert confusion_counts(a, b) == pairwise_counts_oracle(a, b)

    @pytest.mark.parametrize("metric, predicted, truth", [
        (rand_index, [[1], [2, 3]], [1, 2]),  # ragged labels
        (adjusted_rand_index, [[1], [2, 3]], [1, 2]),
        (confusion_counts, [np.nan, 1], [1, 2]),
        (matched_confusion, [np.nan, 1, 1], [1, 2, 2]),
        (partitions_equal, ["a", "b"], [1, 2]),
        (rand_index, [1, 2, 2], [1.5, 2, 2]),
        (confusion_counts, [1, 2], [np.inf, 2]),
    ], ids=["ragged-ri", "ragged-ari", "nan-counts", "nan-matched", "text", "fraction", "inf"])
    def test_labels_that_are_not_integers_are_config_errors(self, metric, predicted, truth):
        with pytest.raises(ConfigError):
            metric(predicted, truth)


class TestAgreementIndices:
    def test_rand_index_examples(self):
        assert rand_index(np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2])) == pytest.approx(1 / 3)
        assert rand_index(np.array([1, 2]), np.array([1, 1])) == 0.0
        assert rand_index(np.array([1, 1, 2]), np.array([1, 1, 2])) == 1.0

    def test_adjusted_index_examples(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 1, 2])
        assert adjusted_rand_index(a, b) == pytest.approx(-0.5, abs=1e-12)
        assert adjusted_rand_index(a, a) == 1.0

    def test_identical_up_to_relabeling_gives_one(self):
        a = np.array([1, 1, 2, 3, 3])
        b = np.array([2, 2, 3, 1, 1])
        assert adjusted_rand_index(a, b) == 1.0
        assert partitions_equal(a, b)

    def test_exhaustive_small_partitions_match_oracles(self):
        for n in (2, 3, 4, 5):
            parts = all_partitions(n)
            for a in parts:
                for b in parts:
                    counts = confusion_counts(a, b)
                    assert counts == pairwise_counts_oracle(a, b)
                    tp, tn, fp, fn = counts
                    assert rand_index(a, b) == (tp + tn) / (tp + tn + fp + fn)
                    exact = ari_fraction_oracle(a, b)
                    if exact is not None:
                        got = adjusted_rand_index(a, b)
                        assert got == pytest.approx(float(exact), abs=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.integers(1, 4, 40)
        b = rng.integers(1, 4, 40)
        base = adjusted_rand_index(a, b)
        for _ in range(5):
            perm_a = rng.permutation(3) + 1
            perm_b = rng.permutation(3) + 1
            assert adjusted_rand_index(perm_a[a - 1], perm_b[b - 1]) == pytest.approx(
                base, abs=1e-13
            )

    def test_independent_partitions_average_near_zero(self):
        rng = np.random.default_rng(9)
        vals = []
        for _ in range(100):
            a = rng.integers(1, 4, 60)
            b = rng.integers(1, 4, 60)
            vals.append(adjusted_rand_index(a, b))
        assert abs(np.mean(vals)) < 0.05

    def test_degenerate_pairs_warn(self):
        a = np.array([1, 1, 1])
        with pytest.warns(UserWarning):
            assert adjusted_rand_index(a, a) == 1.0
        s = np.array([1, 2, 3])
        with pytest.warns(UserWarning):
            assert adjusted_rand_index(s, s) == 1.0
        # one trivial, one not: the denominator stays positive, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adjusted_rand_index(a, s) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            rand_index(np.array([1, 2]), np.array([1, 2, 3]))


class TestMatchedConfusion:
    def test_best_assignment_and_false_positives(self):
        predicted = np.array([1, 1, 2, 2, 2])
        truth = np.array([1, 1, 1, 2, 2])
        table = matched_confusion(predicted, truth)
        assert table[1] == {"size": 2, "matched_group": 1, "false_positives": 0}
        assert table[2] == {"size": 3, "matched_group": 2, "false_positives": 1}


class TestFunctionalKMeans:
    def test_two_well_separated_level_groups(self):
        model = constant_curve_model([0.0, 0.2, 0.1, 10.0, 10.2, 10.1])
        result = functional_kmeans(model, 2, seed=0)
        truth = np.array([1, 1, 1, 2, 2, 2])
        assert adjusted_rand_index(result.partition.labels, truth) == 1.0

    def test_single_cluster_dispersion_is_total(self):
        levels = np.array([0.0, 0.2, 0.1, 10.0, 10.2, 10.1])
        model = constant_curve_model(levels)
        result = functional_kmeans(model, 1, seed=3)
        expected = float(((levels - levels.mean()) ** 2).sum())
        assert result.w == pytest.approx(expected, rel=1e-12)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        model = constant_curve_model(rng.normal(size=30))
        a = functional_kmeans(model, 3, seed=7)
        b = functional_kmeans(model, 3, seed=7)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.w == b.w

    def test_distance_uses_curve_geometry_not_coefficients(self):
        # Two curves whose coefficient vectors are equally far from a third
        # in Euclidean terms can be at different functional distances; the
        # clustering must follow the integrated distance.
        spec = make_basis_spec(0.0, 1.0, 4, [0.5])
        rng = np.random.default_rng(0)
        base = rng.standard_normal(spec.n_basis)
        model = coefficient_model(spec, np.column_stack([base, base, base + 3.0]))
        result = functional_kmeans(model, 2, seed=0)
        assert result.partition.labels[0] == result.partition.labels[1]
        assert result.partition.labels[0] != result.partition.labels[2]

    def test_several_empty_clusters_each_get_their_own_point(self):
        # Starts that leave two or more clusters empty must fill each with a
        # different point; giving them all the same point left clusters
        # empty, their means nan and W far from the optimum 0.
        result = functional_kmeans(twin_wave_model(), 4, seed=0)
        assert result.partition.k == 4
        assert result.w < 1e-20
        assert np.isfinite(result.centroids).all()

    def test_centroids_are_member_means_of_the_coefficients(self):
        rng = np.random.default_rng(12)
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.7])
        coeffs = rng.standard_normal((spec.n_basis, 30))
        result = functional_kmeans(coefficient_model(spec, coeffs), 3, seed=1)
        for j in range(1, 4):
            members = coeffs[:, result.partition.labels == j]
            np.testing.assert_allclose(result.centroids[:, j - 1], members.mean(axis=1),
                                       rtol=1e-13, atol=1e-15)

    def test_k_validation(self):
        model = constant_curve_model([0.0, 1.0, 2.0])
        with pytest.raises(ConfigError):
            functional_kmeans(model, 0)
        with pytest.raises(TooFewCurvesError):
            functional_kmeans(model, 4)


class TestLockstepLloyd:
    """All starts' Lloyd iterations in lockstep equal running them one by one."""

    @staticmethod
    def starts(z, k, rng):
        """Seeded starts, plus starts that leave clusters empty: centers far
        outside the data and repeated centers."""
        seeded = [_seed_centers(z, k, np.random.default_rng([7, r])) for r in range(6)]
        far = z[rng.choice(z.shape[0], k, replace=False)].copy()
        far[k // 2:] += 1e3
        repeated = np.repeat(z[:1], k, axis=0)
        return np.stack(seeded + [far, repeated])

    def assert_matches_sequential(self, z, starts, exact=True):
        labels, centers, w, iterations = _lloyd_lockstep(z, starts)
        for s, start in enumerate(starts):
            ref_labels, ref_centers, ref_w, ref_iterations = sequential_lloyd(z, start)
            assert np.array_equal(labels[s], ref_labels)
            assert iterations[s] == ref_iterations
            if exact:
                assert np.array_equal(centers[s], ref_centers)
                assert w[s] == ref_w
            else:
                assert w[s] == pytest.approx(ref_w, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("case", range(8))
    def test_matches_sequential_starts(self, case):
        rng = np.random.default_rng(100 + case)
        n, d, k = int(rng.integers(10, 200)), int(rng.integers(2, 13)), int(rng.integers(1, 9))
        groups = rng.normal(0.0, 3.0, (k, d))
        z = groups[rng.integers(0, k, n)] + rng.standard_normal((n, d))
        self.assert_matches_sequential(z, self.starts(z, k, rng))

    def test_one_coordinate_matches_to_roundoff(self):
        # With one coordinate numpy's mean sums pairwise, not in point order.
        rng = np.random.default_rng(3)
        z = rng.standard_normal((150, 1))
        self.assert_matches_sequential(z, self.starts(z, 4, rng), exact=False)

    def test_several_empty_clusters_take_distinct_points(self):
        z = np.arange(10.0)[:, None] * np.ones((1, 2))
        start = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 200.0], [300.0, 300.0]])
        labels, _, w, _ = _lloyd_lockstep(z, start[None])
        assert np.unique(labels[0]).size == 4
        assert np.isfinite(w[0])
        self.assert_matches_sequential(z, start[None])

    def test_elbow_inits_and_restarts_keep_the_first_lowest_start(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((120, 5))
        partition, centers, _, _ = _kmeans_z(z, 3, 4, 3)
        diff = z[:, None, :] - centers[None, :, :]
        worst = np.einsum("ikj,ikj->ik", diff, diff)[np.arange(120), partition.labels - 1].argmax()
        inits = (np.vstack([centers, z[worst]]),)
        partition, _, w, iterations = _kmeans_z(z, 4, 4, 5, inits)
        starts = [inits[0]] + [_seed_centers(z, 4, np.random.default_rng([4, r])) for r in range(5)]
        refs = [sequential_lloyd(z, start) for start in starts]
        best = min(range(len(refs)), key=lambda s: (refs[s][2], s))
        assert partitions_equal(partition.labels, refs[best][0])
        assert (w, iterations) == (refs[best][2], refs[best][3])


class TestHierarchical:
    @pytest.mark.parametrize("linkage", ["ward", "complete", "average"])
    def test_two_far_groups_any_linkage(self, linkage):
        model = constant_curve_model([0.0, 0.2, 0.1, 10.0, 10.2, 10.1])
        result = hierarchical_cluster(model, 2, linkage)
        truth = np.array([1, 1, 1, 2, 2, 2])
        assert adjusted_rand_index(result.partition.labels, truth) == 1.0

    def test_complete_linkage_toy(self):
        model = constant_curve_model([0.0, 1.0, 10.0, 11.0])
        result = hierarchical_cluster(model, 2, "complete")
        assert partitions_equal(result.partition.labels, np.array([1, 1, 2, 2]))

    def test_singletons_when_k_equals_n(self):
        model = constant_curve_model([0.0, 1.0, 2.0])
        result = hierarchical_cluster(model, 3, "ward")
        assert len(set(result.partition.labels.tolist())) == 3

    @pytest.mark.parametrize("linkage", ["ward", "complete", "average"])
    def test_one_curve_is_one_cluster(self, linkage):
        result = hierarchical_cluster(constant_curve_model([1.0]), 1, linkage)
        assert result.partition.labels.tolist() == [1] and result.w == 0.0

    @pytest.mark.parametrize("linkage", ["ward", "complete", "average"])
    def test_tied_heights_still_give_k_clusters(self, linkage):
        # Eighteen merges at height 0: a cut that stops at tied heights
        # returned 2 clusters for k = 4.
        result = hierarchical_cluster(twin_wave_model(), 4, linkage)
        assert result.partition.k == 4
        assert not set(result.partition.labels[:10]) & set(result.partition.labels[10:])
        assert result.w < 1e-20

    @pytest.mark.parametrize("linkage", ["ward", "complete", "average"])
    def test_matches_scipy_cut_on_tie_free_data(self, linkage):
        rng = np.random.default_rng({"ward": 0, "complete": 1, "average": 2}[linkage])
        cases = [(220, 12, 1), (220, 12, 4), (220, 12, 220), (7, 3, 7), (5, 1, 2)]
        cases += [(int(rng.integers(5, 220)), int(rng.integers(1, 14)), int(rng.integers(1, 10)))
                  for _ in range(40)]
        for n, d, k in cases:
            z = rng.standard_normal((n, d)) * np.exp(rng.uniform(-2.0, 2.0, d))
            z[: n // 2] += 4.0  # some cluster structure
            merges = scipy_linkage(z, "ward") if linkage == "ward" else scipy_linkage(pdist(z), linkage)
            ref = fcluster(merges, t=min(k, n), criterion="maxclust")
            got = _agglomerate(z, min(k, n), linkage)
            assert np.unique(got).size == min(k, n)
            assert partitions_equal(got, ref), (n, d, k)

    def test_centroids_are_member_means_of_the_coefficients(self):
        rng = np.random.default_rng(13)
        spec = make_basis_spec(0.0, 1.0, 3, [0.5])
        coeffs = rng.standard_normal((spec.n_basis, 25))
        result = hierarchical_cluster(coefficient_model(spec, coeffs), 3, "average")
        for j in range(1, 4):
            members = coeffs[:, result.partition.labels == j]
            np.testing.assert_allclose(result.centroids[:, j - 1], members.mean(axis=1),
                                       rtol=1e-13, atol=1e-15)

    def test_unknown_linkage(self):
        model = constant_curve_model([0.0, 1.0, 2.0])
        with pytest.raises(ConfigError):
            hierarchical_cluster(model, 2, "centroidal-voronoi")


class TestCurveDistance:
    def test_gram_distance_matches_quadrature(self):
        rng = np.random.default_rng(6)
        t = np.linspace(0, 1, 40)
        ys = np.column_stack(
            [np.sin(3 * t), np.cos(2 * t) + 0.3 * t]
        ) + 0.02 * rng.standard_normal((40, 2))
        spec = make_basis_spec(0.0, 1.0, 4, [0.35, 0.7])
        model = fit_coefficients(
            FunctionalDataset(t=t, values=ys), spec, PenaltyConfig(lambda2=1e-6)
        )
        # squared L2 distance via adaptive quadrature on the fitted curves
        diff = lambda x: (
            model.predict(np.array([x]))[0, 0] - model.predict(np.array([x]))[0, 1]
        ) ** 2
        ref, _ = quad(diff, 0.0, 1.0, points=[0.35, 0.7], limit=200)
        km = functional_kmeans(model, 2, seed=0)
        # with one curve per cluster, the dispersion is zero and the centers
        # are the curves; recover the distance from a 1-cluster run instead:
        # W(1) = sum of squared distances to the mean = half the squared
        # distance between two curves
        one = functional_kmeans(model, 1, seed=0)
        assert one.w == pytest.approx(ref / 2.0, rel=1e-8)
        assert km.w == pytest.approx(0.0, abs=1e-12)


class TestElbow:
    def test_dispersion_curve_monotone_and_rule_consistent(self):
        rng = np.random.default_rng(8)
        levels = np.concatenate([rng.normal(c, 0.05, 10) for c in (0.0, 3.0, 6.0, 9.0)])
        model = constant_curve_model(levels)
        result = elbow_curve(model, 8, seed=0, restarts=10)
        assert result.w.shape == (8,)
        assert np.all(np.diff(result.w) <= 1e-9)
        curv = result.w[:-2] - 2 * result.w[1:-1] + result.w[2:]
        assert result.suggested_k == int(curv.argmax()) + 2
        assert not result.low_confidence

    def test_two_level_groups_suggest_two(self):
        rng = np.random.default_rng(10)
        levels = np.concatenate([rng.normal(c, 0.05, 12) for c in (0.0, 8.0)])
        model = constant_curve_model(levels)
        result = elbow_curve(model, 6, seed=0, restarts=10)
        assert result.suggested_k == 2
        assert not result.low_confidence

    def test_equidistant_groups_suggest_their_count(self):
        # Four tight clouds at the vertices of a regular tetrahedron of the
        # whitened coordinate space are mutually equidistant, so no smaller
        # split dominates and the dispersion collapses exactly at four.
        rng = np.random.default_rng(4)
        spec = make_basis_spec(0.0, 1.0, 3, [])
        G = gram_matrix(spec).values
        L = np.linalg.cholesky(G)
        verts = 5.0 * np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        )
        z = np.repeat(verts, 10, axis=0) + 0.05 * rng.standard_normal((40, 3))
        coeffs = np.linalg.solve(L.T, z.T)
        model = coefficient_model(spec, coeffs)
        result = elbow_curve(model, 6, seed=0, restarts=10)
        assert result.suggested_k == 4
        assert not result.low_confidence

    def test_flag_matches_curvature_rule(self):
        rng = np.random.default_rng(3)
        spec = make_basis_spec(0.0, 1.0, 4, list(np.linspace(0.05, 0.95, 16)))
        model = coefficient_model(spec, rng.standard_normal((spec.n_basis, 150)))
        result = elbow_curve(model, 6, seed=0, restarts=5)
        curv = result.w[:-2] - 2 * result.w[1:-1] + result.w[2:]
        assert result.low_confidence == bool(curv.max() < 0.05 * result.w[0])

    def test_structureless_blob_is_flagged(self):
        rng = np.random.default_rng(3)
        spec = make_basis_spec(0.0, 1.0, 4, list(np.linspace(0.05, 0.95, 16)))
        model = coefficient_model(spec, rng.standard_normal((spec.n_basis, 150)))
        result = elbow_curve(model, 6, seed=0, restarts=5)
        assert result.low_confidence

    def test_curves_are_embedded_once(self, monkeypatch):
        calls = []

        def counting_gram_matrix(spec):
            calls.append(spec)
            return gram_matrix(spec)

        monkeypatch.setattr(fkspline.cluster, "gram_matrix", counting_gram_matrix)
        rng = np.random.default_rng(10)
        model = constant_curve_model(rng.normal(0.0, 1.0, 20))
        elbow_curve(model, 6)
        assert len(calls) == 1

    def test_no_worse_than_plain_kmeans_at_each_k(self):
        # Each k runs the same seeded restarts as functional_kmeans plus one
        # start from the previous solution, so W can only be lower.
        rng = np.random.default_rng(5)
        spec = make_basis_spec(0.0, 1.0, 4, [0.3, 0.7])
        model = coefficient_model(spec, rng.standard_normal((spec.n_basis, 40)))
        result = elbow_curve(model, 6, seed=2, restarts=4)
        plain = [functional_kmeans(model, k, seed=2, restarts=4).w for k in range(1, 7)]
        assert result.w[0] == plain[0]
        assert np.all(result.w <= np.array(plain))

    @pytest.mark.parametrize("call", [
        lambda model: functional_kmeans(model, 2.5),
        lambda model: hierarchical_cluster(model, 2.5),
        lambda model: elbow_curve(model, 3.5),
        lambda model: functional_kmeans(model, 2, restarts=2.5),
        lambda model: functional_kmeans(model, 2, seed=1.5),
        lambda model: elbow_curve(model, 3, restarts=2.5),
        lambda model: elbow_curve(model, 3, seed=float("nan")),
    ], ids=["kmeans-k", "ward-k", "elbow-k_max", "kmeans-restarts", "kmeans-seed",
            "elbow-restarts", "elbow-seed"])
    def test_counts_must_be_integers(self, call):
        model = constant_curve_model([0.0, 0.2, 0.1, 10.0, 10.2, 10.1])
        with pytest.raises(ConfigError, match="must be an integer"):
            call(model)

    def test_integral_floats_are_the_integers(self):
        model = constant_curve_model([0.0, 0.2, 0.1, 10.0, 10.2, 10.1, 5.0])
        ints = functional_kmeans(model, 3, seed=1, restarts=2)
        floats = functional_kmeans(model, 3.0, seed=1.0, restarts=2.0)
        assert np.array_equal(ints.partition.labels, floats.partition.labels)
        assert floats.seed == 1 and type(floats.seed) is int
        assert np.array_equal(elbow_curve(model, 4, seed=1, restarts=2).w,
                              elbow_curve(model, 4.0, seed=1.0, restarts=2.0).w)
        assert np.array_equal(hierarchical_cluster(model, 3).partition.labels,
                              hierarchical_cluster(model, 3.0).partition.labels)

    def test_k_max_validation(self):
        model = constant_curve_model([0.0, 1.0, 2.0])
        with pytest.raises(ConfigError):
            elbow_curve(model, 1)
        with pytest.raises(TooFewCurvesError):
            elbow_curve(model, 4)
        short = elbow_curve(model, 2, restarts=3)
        assert short.low_confidence  # too few candidates to see a bend
