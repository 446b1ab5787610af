import math

import numpy as np
import pytest

from edakit.pca import PcaModel, fit_pca, jacobi_eigh, reconstruct, transform_pca


def random_data(seed, n=40, d=5):
    rng = np.random.default_rng(seed)
    scale = np.diag(rng.uniform(0.5, 4.0, d))
    mix = rng.normal(0, 1, (d, d))
    return rng.normal(0, 1, (n, d)) @ scale @ mix + rng.uniform(-5, 5, d)


class TestJacobi:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        for d in range(2, 7):
            a = rng.normal(0, 1, (d, d))
            s = a @ a.T
            vals, vecs = jacobi_eigh(s)
            want = np.sort(np.linalg.eigvalsh(s))
            assert np.allclose(np.sort(vals), want, atol=1e-10)
            # eigenvector property: S v = lambda v
            for j in range(d):
                assert np.allclose(s @ vecs[:, j], vals[j] * vecs[:, j], atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        vals, vecs = jacobi_eigh(np.zeros((3, 3)))
        assert np.allclose(vals, 0)
        assert np.allclose(vecs, np.eye(3))


class TestFitPca:
    def test_collinear_rank_one(self):
        data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        m = fit_pca(data, 1)
        expected = np.array([1.0, 2.0]) / math.sqrt(5)
        assert np.allclose(m.components[0], expected, atol=1e-12)
        assert math.isclose(m.explained_ratio[0], 1.0, abs_tol=1e-12)

    def test_full_rank_ratios_sum_to_one(self):
        data = random_data(1)
        m = fit_pca(data, min(data.shape[0] - 1, data.shape[1]))
        assert math.isclose(float(m.explained_ratio.sum()), 1.0, abs_tol=1e-10)

    def test_components_orthonormal(self):
        m = fit_pca(random_data(2), 4)
        gram = m.components @ m.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_eigenvalues_match_oracle(self):
        for seed in range(5):
            data = random_data(seed, n=60, d=6)
            m = fit_pca(data, 6)
            cov = np.cov(data, rowvar=False, ddof=1)
            want = np.sort(np.linalg.eigvalsh(cov))[::-1]
            assert np.allclose(m.explained_variance, want, atol=1e-8)

    def test_descending_variances(self):
        m = fit_pca(random_data(3), 5)
        ev = m.explained_variance
        assert all(ev[i] >= ev[i + 1] for i in range(len(ev) - 1))

    def test_sign_convention(self):
        m = fit_pca(random_data(4), 5)
        for row in m.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_isotropic_blob_splits_evenly(self):
        rng = np.random.default_rng(99)
        data = rng.normal(0, 1, (500, 2))
        m = fit_pca(data, 2)
        assert abs(m.explained_ratio[0] - 0.5) < 0.05
        assert abs(m.explained_ratio[1] - 0.5) < 0.05

    def test_k_out_of_range(self):
        data = random_data(5)
        with pytest.raises(ValueError, match="outside valid range"):
            fit_pca(data, 0)
        with pytest.raises(ValueError, match="outside valid range"):
            fit_pca(data, data.shape[1] + 1)

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_pca(np.ones((5, 3)), 1)

    def test_missing_cells_rejected(self):
        data = random_data(6)
        data[0, 0] = np.nan
        with pytest.raises(ValueError, match="impute"):
            fit_pca(data, 2)

    def test_deterministic(self):
        data = random_data(7)
        a = fit_pca(data, 3)
        b = fit_pca(data, 3)
        assert a.components.tobytes() == b.components.tobytes()
        assert a.explained_variance.tobytes() == b.explained_variance.tobytes()


class TestTransformReconstruct:
    def test_training_scores_variance(self):
        data = random_data(8)
        m = fit_pca(data, 3)
        scores = transform_pca(m, data)
        got = scores.var(axis=0, ddof=1)
        assert np.allclose(got, m.explained_variance[:3], rtol=1e-8)

    def test_mean_maps_to_zero(self):
        data = random_data(9)
        m = fit_pca(data, 2)
        z = transform_pca(m, data.mean(axis=0, keepdims=True))
        assert np.allclose(z, 0, atol=1e-9)

    def test_collinear_scores(self):
        data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        m = fit_pca(data, 1)
        scores = transform_pca(m, data).ravel()
        root5 = math.sqrt(5)
        assert np.allclose(scores, [-root5, 0.0, root5], atol=1e-12)

    def test_full_rank_round_trip(self):
        data = random_data(10)
        m = fit_pca(data, data.shape[1])
        back = reconstruct(m, transform_pca(m, data))
        assert np.allclose(back, data, atol=1e-8)

    def test_truncated_error_equals_dropped_variance(self):
        data = random_data(11, n=80, d=5)
        n = data.shape[0]
        full = fit_pca(data, 5)
        for k in (1, 2, 3, 4):
            m = fit_pca(data, k)
            err = float(np.sum((data - reconstruct(m, transform_pca(m, data))) ** 2))
            dropped = float(full.explained_variance[k:].sum()) * (n - 1)
            assert math.isclose(err, dropped, rel_tol=1e-8, abs_tol=1e-8)

    def test_reconstruction_error_monotone_in_k(self):
        data = random_data(12, n=50, d=6)
        errs = []
        for k in range(1, 7):
            m = fit_pca(data, k)
            errs.append(float(np.sum((data - reconstruct(m, transform_pca(m, data))) ** 2)))
        assert all(errs[i] >= errs[i + 1] - 1e-9 for i in range(len(errs) - 1))

    def test_zero_scores_give_means(self):
        data = random_data(13)
        m = fit_pca(data, 2)
        back = reconstruct(m, np.zeros((1, 2)))
        assert np.allclose(back, data.mean(axis=0), atol=1e-12)

    def test_dimension_mismatch(self):
        m = fit_pca(random_data(14), 2)
        with pytest.raises(ValueError, match="features"):
            transform_pca(m, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="columns"):
            reconstruct(m, np.zeros((3, 4)))


class TestStandardize:
    @pytest.mark.parametrize("const", [2.0, 0.1], ids=["exact_mean", "rounded_mean"])
    def test_constant_column_rejected(self, const):
        data = np.column_stack([np.full(3, const), [0.0, 1.0, 4.0]])
        with pytest.raises(ValueError, match="constant column under standardization"):
            fit_pca(data, 1, standardize=True)

    def test_round_trip_with_scales(self):
        data = random_data(15)
        m = fit_pca(data, data.shape[1], standardize=True)
        back = reconstruct(m, transform_pca(m, data))
        assert np.allclose(back, data, atol=1e-8)

    def test_scores_have_unit_total_variance_per_feature(self):
        data = random_data(16)
        m = fit_pca(data, data.shape[1], standardize=True)
        # correlation PCA: total variance equals the feature count
        total = float(m.explained_variance.sum())
        assert math.isclose(total, data.shape[1], rel_tol=1e-8)


class TestSerialization:
    def test_json_round_trip(self):
        m = fit_pca(random_data(17), 3)
        m2 = PcaModel.from_dict(m.to_dict())
        assert np.allclose(m.components, m2.components)
        assert np.allclose(m.means, m2.means)
        assert m2.scales is None
