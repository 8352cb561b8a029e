import numpy as np
import pytest

from driftpp.core import Chunk
from driftpp.errors import DegenerateData, DimensionError
from driftpp.pca import (
    pca_fit,
    pca_transform,
    tevr,
)


def svd_route_basis(matrix):
    """Independent reference: principal axes via SVD of the centered data."""
    centered = matrix - matrix.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variances = singular**2 / (matrix.shape[0] - 1)
    return vt, variances


def align_signs(rows):
    out = np.array(rows)
    for i, row in enumerate(out):
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            out[i] = -row
    return out


class TestFit:
    def test_rank_one_line(self):
        xs = np.linspace(-3, 3, 40)
        chunk = Chunk("line", np.column_stack([xs, 2 * xs]), np.zeros(40, int))
        basis = pca_fit(chunk, 2)
        np.testing.assert_allclose(basis.explained_variance_ratio, [1.0, 0.0], atol=1e-9)
        direction = basis.components[0]
        np.testing.assert_allclose(direction / direction[0], [1.0, 2.0], atol=1e-9)

    def test_isotropic_cloud_splits_variance(self, rng):
        rows = rng.normal(size=(4000, 2))
        chunk = Chunk("iso", rows, np.zeros(4000, int))
        basis = pca_fit(chunk, 2)
        np.testing.assert_allclose(
            basis.explained_variance_ratio, [0.5, 0.5], atol=0.05
        )

    def test_matches_svd_oracle(self, rng):
        for n, d in [(50, 8), (120, 5), (200, 12)]:
            rows = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
            chunk = Chunk("x", rows, np.zeros(n, int))
            basis = pca_fit(chunk, d)
            want_axes, want_vars = svd_route_basis(rows)
            np.testing.assert_allclose(
                align_signs(basis.components), align_signs(want_axes), atol=1e-8
            )
            np.testing.assert_allclose(
                basis.explained_variance_ratio, want_vars / want_vars.sum(), atol=1e-8
            )

    def test_components_orthonormal(self, rng):
        rows = rng.normal(size=(80, 6))
        basis = pca_fit(Chunk("x", rows, np.zeros(80, int)), 6)
        gram = basis.components @ basis.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_sign_rule_largest_entry_positive(self, rng):
        rows = rng.normal(size=(60, 5)) * np.array([5.0, 1.0, 1.0, 1.0, 1.0])
        basis = pca_fit(Chunk("x", rows, np.zeros(60, int)), 5)
        for row in basis.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_mean_shift_invariance(self, rng):
        rows = rng.normal(size=(60, 4))
        shifted = rows + np.array([100.0, -40.0, 7.0, 0.5])
        a = pca_fit(Chunk("a", rows, np.zeros(60, int)), 4)
        b = pca_fit(Chunk("b", shifted, np.zeros(60, int)), 4)
        np.testing.assert_allclose(a.components, b.components, atol=1e-8)
        np.testing.assert_allclose(
            a.explained_variance_ratio, b.explained_variance_ratio, atol=1e-9
        )

    def test_prefix_property(self, rng):
        rows = rng.normal(size=(70, 8)) @ rng.normal(size=(8, 8))
        chunk = Chunk("x", rows, np.zeros(70, int))
        small = pca_fit(chunk, 3)
        large = pca_fit(chunk, 5)
        np.testing.assert_allclose(small.components, large.components[:3], atol=1e-10)

    def test_components_within_rounding_of_zero_are_zero_rows(self, rng):
        # rank-3 rows in 8 dimensions at 6 components: rows 3-5 are noise
        rows = rng.normal(size=(200, 3)) @ rng.normal(size=(3, 8))
        basis = pca_fit(Chunk("x", rows, np.zeros(200, int)), 6)
        assert basis.components.shape == (6, 8)
        assert (basis.components[3:] == 0.0).all()
        kept = basis.components[:3]
        np.testing.assert_allclose(kept @ kept.T, np.eye(3), atol=1e-10)

    def test_single_row_raises(self):
        with pytest.raises(DegenerateData):
            pca_fit(Chunk("x", [[1.0, 2.0]], [0]), 1)

    def test_zero_variance_raises(self):
        rows = np.ones((10, 3))
        with pytest.raises(DegenerateData):
            pca_fit(Chunk("x", rows, np.zeros(10, int)), 2)

    @pytest.mark.parametrize("k", [0, 5])
    def test_component_count_out_of_range(self, rng, k):
        rows = rng.normal(size=(20, 4))
        with pytest.raises(DimensionError):
            pca_fit(Chunk("x", rows, np.zeros(20, int)), k)


class TestTransform:
    def test_round_trip_full_rank(self, rng):
        rows = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
        chunk = Chunk("x", rows, np.zeros(40, int))
        basis = pca_fit(chunk, 6)
        reduced = pca_transform(basis, chunk)
        restored = reduced.features @ basis.components + basis.mean
        np.testing.assert_allclose(restored, rows, atol=1e-8)

    def test_rank_one_single_component_preserves_geometry(self):
        xs = np.linspace(-2, 2, 30)
        rows = np.column_stack([xs, 2 * xs])
        chunk = Chunk("line", rows, np.zeros(30, int))
        basis = pca_fit(chunk, 1)
        reduced = pca_transform(basis, chunk)
        # pairwise distances survive projection onto the data's own line
        scores = reduced.features[:, 0]
        want = np.abs(xs[:, None] - xs[None, :]) * np.sqrt(5)
        got = np.abs(scores[:, None] - scores[None, :])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_preserves_labels_and_id(self, rng):
        rows = rng.normal(size=(25, 4))
        labels = rng.integers(0, 2, 25)
        chunk = Chunk("keepme", rows, labels)
        basis = pca_fit(chunk, 2)
        reduced = pca_transform(basis, chunk)
        assert reduced.id == "keepme"
        np.testing.assert_array_equal(reduced.labels, chunk.labels)
        assert reduced.features.shape == (25, 2)

    def test_dim_mismatch_raises(self, rng):
        rows = rng.normal(size=(20, 4))
        basis = pca_fit(Chunk("x", rows, np.zeros(20, int)), 3)
        other = Chunk("y", rng.normal(size=(5, 6)), np.zeros(5, int))
        with pytest.raises(DimensionError):
            pca_transform(basis, other)


class TestTevr:
    def test_full_spectrum_sums_to_one(self, rng):
        rows = rng.normal(size=(50, 7))
        basis = pca_fit(Chunk("x", rows, np.zeros(50, int)), 4)
        assert tevr(basis, 7) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_k(self, rng):
        rows = rng.normal(size=(50, 7)) @ rng.normal(size=(7, 7))
        basis = pca_fit(Chunk("x", rows, np.zeros(50, int)), 7)
        values = [tevr(basis, k) for k in range(1, 8)]
        assert values == sorted(values)

    def test_dominant_direction(self, rng):
        rows = rng.normal(size=(200, 6)) * np.array([20.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        basis = pca_fit(Chunk("x", rows, np.zeros(200, int)), 6)
        assert tevr(basis, 1) >= 0.98

    @pytest.mark.parametrize("k", [0, 8])
    def test_k_out_of_range(self, rng, k):
        rows = rng.normal(size=(30, 7))
        basis = pca_fit(Chunk("x", rows, np.zeros(30, int)), 3)
        with pytest.raises(DimensionError):
            tevr(basis, k)

