"""Linear embedding tests with independent eigendecomposition oracles."""

import hashlib

import numpy as np
import pytest

from latentscope.embedding.common import center, standardize
from latentscope.embedding.pca import _fix_signs, pca_fit_transform
from latentscope.embedding.pls import one_hot, pls_fit_transform
from latentscope.errors import DegenerateInputError

from conftest import two_clusters


class TestPcaOracles:
    def test_line_data_exact(self):
        # points on the line span{(1,1)}: t in {-2,-1,1,2} gives eigenvalue
        # sum(t^2)/(n-1) * |(1,1)|^2 = (10/3)*2 = 20/3 and axis (1,1)/sqrt(2)
        t = np.array([-2.0, -1.0, 1.0, 2.0])
        x = np.column_stack([t, t])
        model, emb = pca_fit_transform(x, k=2)
        assert model.eigenvalues[0] == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(model.components[0],
                                   np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(emb.values[:, 0], t * np.sqrt(2), atol=1e-12)
        assert model.rank == 1
        assert model.rank_deficient is True

    def test_matches_eigh_of_covariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(50, 20)) @ np.diag(rng.uniform(0.5, 3.0, 20))
        k = 5
        model, _ = pca_fit_transform(x, k=k)
        xc, _ = center(x)
        cov = xc.T @ xc / (x.shape[0] - 1)
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[::-1]
        evecs = evecs[:, ::-1]
        np.testing.assert_allclose(model.eigenvalues, evals[:k], rtol=1e-10)
        # compare subspaces through projectors so sign/ordering cannot matter
        p_ours = model.components.T @ model.components
        p_ref = evecs[:, :k] @ evecs[:, :k].T
        np.testing.assert_allclose(p_ours, p_ref, atol=1e-8)

    def test_scores_are_centered_projections(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 8))
        model, emb = pca_fit_transform(x, k=3)
        xc, _ = center(x)
        np.testing.assert_allclose(emb.values, xc @ model.components.T, atol=1e-12)
        np.testing.assert_allclose(emb.values.mean(axis=0), 0.0, atol=1e-10)
        # per-component score variance equals the eigenvalue
        np.testing.assert_allclose(emb.values.var(axis=0, ddof=1),
                                   model.eigenvalues, rtol=1e-10)


class TestPcaInvariants:
    def test_orthonormal_components(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 10))
        model, _ = pca_fit_transform(x, k=4)
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(4), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(25, 6))
        model, _ = pca_fit_transform(x, k=3)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_duplicated_rows_same_axes(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(20, 5))
        m1, e1 = pca_fit_transform(x, k=3)
        m2, e2 = pca_fit_transform(np.vstack([x, x]), k=3)
        np.testing.assert_allclose(m1.components, m2.components, atol=1e-8)
        np.testing.assert_allclose(e2.values[:20], e1.values, atol=1e-8)
        np.testing.assert_allclose(e2.values[20:], e1.values, atol=1e-8)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(12, 4))
        model, emb = pca_fit_transform(x, k=4)
        xc, _ = center(x)
        np.testing.assert_allclose(emb.values @ model.components, xc, atol=1e-10)

    def test_rank_deficient_padding(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 10))  # centered rank at most 2
        model, emb = pca_fit_transform(x, k=3)
        assert model.rank <= 2
        assert model.rank_deficient is True
        np.testing.assert_array_equal(model.components[2], np.zeros(10))
        assert model.eigenvalues[2] == 0.0
        assert emb.metadata["rank_deficient"] is True

    def test_single_row_raises(self):
        with pytest.raises(DegenerateInputError):
            pca_fit_transform(np.ones((1, 4)), k=2)

    def test_embedding_record(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(6, 4))
        ids = [f"P{i}" for i in range(6)]
        _, emb = pca_fit_transform(x, k=2, subject_ids=ids, layer="L2")
        assert emb.method == "pca"
        assert emb.layer == "L2"
        assert emb.subject_ids == ids
        assert emb.n_components == 2


def _pca_svd_reference(x: np.ndarray, k: int):
    """The SVD route that pca_fit_transform took before the Gram matrix: axes
    from the economy SVD of the centered matrix, rank s > s_0 * max(n, p) * eps.
    Returns (components, eigenvalues, rank)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    xc, _ = center(x)
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    tol = s[0] * max(x.shape) * np.finfo(np.float64).eps if s.size else 0.0
    rank = int((s > tol).sum())
    components = np.zeros((k, x.shape[1]))
    eigenvalues = np.zeros(k)
    usable = min(k, rank)
    components[:usable] = vt[:usable]
    eigenvalues[:usable] = (s[:usable] ** 2) / (n - 1)
    return _fix_signs(components), eigenvalues, rank


def _low_rank_plus_noise(seed: int, n: int, p: int, r: int = 6,
                         noise: float = 0.1) -> np.ndarray:
    # r strong directions with well separated variances over an offset, as
    # in post-ReLU activations, plus isotropic noise
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n, r)) * np.linspace(4.0, 1.0, r)
    return (scores @ rng.normal(size=(r, p)) + 2.0
            + noise * rng.normal(size=(n, p)))


class TestGramRoute:
    """The n x n Gram route against the SVD of the centered matrix."""

    @pytest.mark.parametrize("n,p", [(24, 50_000), (80, 20_000), (40, 10)])
    def test_matches_svd_reference(self, n, p):
        x = _low_rank_plus_noise(n * 1000 + p % 997, n, p)
        model, emb = pca_fit_transform(x, k=3)
        ref_components, ref_eigenvalues, ref_rank = _pca_svd_reference(x, 3)
        assert model.rank == ref_rank == min(n - 1, p)
        np.testing.assert_allclose(model.eigenvalues, ref_eigenvalues,
                                   rtol=1e-10)
        for ours, ref in zip(model.components, ref_components):
            cos = (ours @ ref) / (np.linalg.norm(ours) * np.linalg.norm(ref))
            assert cos >= 1.0 - 1e-10  # same axis and the same sign
        xc, _ = center(x)
        np.testing.assert_allclose(emb.values, xc @ ref_components.T,
                                   rtol=1e-8, atol=1e-8 * np.abs(emb.values).max())

    def _check_rank(self, x, rank, k=3):
        model, emb = pca_fit_transform(x, k=k)
        assert model.rank == rank == _pca_svd_reference(x, k)[2]
        assert model.rank_deficient is (rank < k)
        assert emb.metadata["rank_deficient"] is (rank < k)
        np.testing.assert_array_equal(model.components[rank:],
                                      np.zeros((k - rank, x.shape[1])))
        np.testing.assert_array_equal(model.eigenvalues[rank:], 0.0)
        np.testing.assert_array_equal(emb.values[:, rank:], 0.0)
        assert (model.eigenvalues[:rank] > 0).all()
        np.testing.assert_allclose(model.components[:rank] @ model.components[:rank].T,
                                   np.eye(rank), atol=1e-10)
        return model

    def test_exact_rank_one(self):
        rng = np.random.default_rng(41)
        x = np.outer(rng.normal(size=24), rng.normal(size=5000)) + 3.0
        self._check_rank(x, 1)

    def test_exact_rank_two(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 8000)) - 1.5
        self._check_rank(x, 2)

    def test_duplicated_rows(self):
        # two distinct subjects, each three times: one centered direction
        rng = np.random.default_rng(43)
        a, b = rng.normal(size=(2, 4000))
        model = self._check_rank(np.vstack([a, a, a, b, b, b]), 1)
        d = (b - a) / np.linalg.norm(b - a)
        assert abs(model.components[0] @ d) == pytest.approx(1.0, abs=1e-12)
        assert model.eigenvalues[0] == pytest.approx(
            6 * 0.25 * np.sum((b - a) ** 2) / 5, rel=1e-12)

    def test_three_rows(self):
        # three subjects span at most two centered directions
        self._check_rank(np.random.default_rng(44).normal(size=(3, 10)), 2)

    def test_constant_rows(self):
        model, emb = pca_fit_transform(np.zeros((5, 7)), k=3)
        assert model.rank == 0
        assert model.rank_deficient is True
        np.testing.assert_array_equal(model.components, np.zeros((3, 7)))
        np.testing.assert_array_equal(emb.values, np.zeros((5, 3)))


class TestPcaPinnedBits:
    """Digests recorded after PCA moved to the n x n Gram matrix. Any change
    to the float operations of the fit, or to their order, moves them."""

    def _check(self, x, k, expected):
        model, emb = pca_fit_transform(x, k=k)
        got = {"components": _digest(model.components),
               "eigenvalues": _digest(model.eigenvalues),
               "scores": _digest(emb.values)}
        assert got == expected
        return model

    def test_wide(self):
        self._check(_low_rank_plus_noise(51, 24, 6000), 3, {
            "components": "2b83830b9af6056c6b6b5bba17655f49445d35d6bdb1217373083c20fd7f5791",
            "eigenvalues": "606ff768e6df673b7abfb2bd7490464cb32238fd4f864b8ded566000c1d48a8f",
            "scores": "64ef8432c752efad418978ed271cfd40e2c3c6f0fabd9944e0dcffecd171f412",
        })

    def test_rank_deficient(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 300))
        model = self._check(x, 3, {
            "components": "2c988b90f0ae17cb1b7d2e96ce9824d8c171914394675aa6dec39409a148fcc3",
            "eigenvalues": "9e509aaf61f8b9458228deb5904868f3476f6c340e2c2ed1aaf399d34c21e0ba",
            "scores": "235f00c9c94a8e7a28dec2573090142dcac113356e593d1713bb883b837207db",
        })
        assert model.rank == 2


class TestPlsOracles:
    def test_univariate_weight_is_normalized_cross_covariance(self):
        # with a single response the cross-covariance matrix is one column,
        # whose normalized direction is exactly the optimal weight vector
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        model, _ = pls_fit_transform(x, y, k=1)
        xs, _, _, _ = standardize(x)
        yc, _ = center(y[:, None])
        c = (xs.T @ yc)[:, 0]
        w_ref = c / np.linalg.norm(c)
        j = np.argmax(np.abs(w_ref))
        if w_ref[j] < 0:
            w_ref = -w_ref
        np.testing.assert_allclose(model.x_weights[0], w_ref, atol=1e-10)

    def test_first_weight_monte_carlo_dominance(self):
        # no random unit direction should beat the fitted weight on the
        # squared cross-covariance objective
        rng = np.random.default_rng(22)
        x = rng.normal(size=(30, 6))
        y = one_hot(rng.integers(0, 3, size=30))
        model, _ = pls_fit_transform(x, y, k=1)
        xs, _, _, _ = standardize(x)
        yc, _ = center(y)
        c = xs.T @ yc
        best = np.linalg.norm(c.T @ model.x_weights[0])
        for _ in range(1000):
            r = rng.normal(size=6)
            r /= np.linalg.norm(r)
            assert np.linalg.norm(c.T @ r) <= best * (1 + 1e-9)

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=60)
        x = rng.normal(size=(60, 5)) * 0.1
        x[:, 2] = y + 0.05 * rng.normal(size=60)
        model, _ = pls_fit_transform(x, y, k=1)
        w = np.abs(model.x_weights[0])
        assert np.argmax(w) == 2
        assert w[2] > 0.9


class TestPlsInvariants:
    def test_score_columns_orthogonal(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(35, 8))
        y = one_hot(rng.integers(0, 4, size=35))
        _, emb = pls_fit_transform(x, y, k=3)
        g = emb.values.T @ emb.values
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(g))

    def test_unit_weights(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(20, 6))
        y = rng.normal(size=20)
        model, _ = pls_fit_transform(x, y, k=3)
        np.testing.assert_allclose(np.linalg.norm(model.x_weights, axis=1),
                                   np.ones(3), atol=1e-10)

    def test_separates_planted_clusters(self):
        values = two_clusters(seed=0)
        labels = np.array([0] * 10 + [1] * 10)
        _, emb = pls_fit_transform(values, one_hot(labels), k=2)
        t = emb.values[:, 0]
        assert min(t[10:]) > max(t[:10]) or min(t[:10]) > max(t[10:])

    def test_duplicated_column_becomes_degenerate(self):
        # identical columns collapse to a rank-1 X; the first component
        # removes everything, leaving nothing for the remaining two
        rng = np.random.default_rng(26)
        base = rng.normal(size=20)
        x = np.column_stack([base, base])
        y = base + 0.1 * rng.normal(size=20)
        model, emb = pls_fit_transform(x, y, k=3)
        assert model.degenerate_components == 2
        assert emb.metadata["degenerate_components"] == 2
        np.testing.assert_array_equal(emb.values[:, 1:], np.zeros((20, 2)))

    def test_constant_y_raises(self):
        rng = np.random.default_rng(27)
        with pytest.raises(DegenerateInputError):
            pls_fit_transform(rng.normal(size=(10, 3)), np.ones(10), k=1)

    def test_row_mismatch_raises(self):
        rng = np.random.default_rng(28)
        with pytest.raises(DegenerateInputError):
            pls_fit_transform(rng.normal(size=(10, 3)), np.arange(9.0), k=1)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestPlsPinnedBits:
    """Digests of the fitted arrays, recorded before X was deflated in place
    row by row. Any change to the float operations of the fit, or to their
    order, moves them."""

    def _check(self, x, y, k, expected):
        model, emb = pls_fit_transform(x, y, k=k)
        got = {name: _digest(getattr(model, name))
               for name in ("x_weights", "x_loadings", "y_loadings")}
        got["scores"] = _digest(emb.values)
        assert got == expected
        return model

    def test_wide_one_hot(self):
        rng = np.random.default_rng(101)
        x = rng.normal(size=(40, 3000))
        y = one_hot(rng.integers(0, 3, size=40))
        self._check(x, y, 3, {
            "x_weights": "25173a83d0aad9e49fd4648f09e93560631ef15385b91ab9a74ff1ee9c8f8ea5",
            "x_loadings": "6d2d74d00411e8e6f418c0d29a7eef6d626d30bacd232e293dbced3a609ea117",
            "y_loadings": "c1092849de97429aef0ff6ec4fa46d05092920a28701707d71fcbde826126e97",
            "scores": "de3d5a87ec35caf6e6fd7bd8e972496b6e36e1918848c8d5b92c378186819514",
        })

    def test_tall_multivariate_y(self):
        rng = np.random.default_rng(102)
        x = rng.normal(size=(60, 12)) * rng.uniform(0.1, 5.0, 12)
        y = rng.normal(size=(60, 2))
        self._check(x, y, 3, {
            "x_weights": "d1d8f70d06f4cd766db81c345afecaf49143d924f1f60751f8c13604a3d45f4b",
            "x_loadings": "9e3a4e8b7fc5e7367c15e096dbee289883302e703b12a8de05e1bc8d6327da6b",
            "y_loadings": "b0f4646f657786387207890c24f615b0ede7256bd3cc49c834067b969f9f5a63",
            "scores": "2f65e0b67a445076d6fb1212eac21795f216440f769766a50632bb56063ad8b0",
        })

    def test_degenerate_tail(self):
        rng = np.random.default_rng(26)
        base = rng.normal(size=20)
        x = np.column_stack([base, base])
        y = base + 0.1 * rng.normal(size=20)
        model = self._check(x, y, 3, {
            "x_weights": "0773de8c617c9b13610ca33533e6fd10286f4e2ab61641ea0d0e24ac8d57676f",
            "x_loadings": "070dbf5f97d89b3513e359bd3c4f95257b57f587388e8ad0db702e3710845b48",
            "y_loadings": "aff77ddffa11fc2a0893653606b9344f14b35bdc6e0065e8ba353905b2242926",
            "scores": "96ed49bfc74a0184b12207178562d6ef23869d6e600733f907d107524853cc42",
        })
        assert model.degenerate_components == 2


class TestOneHot:
    def test_sorted_class_columns(self):
        out = one_hot(np.array([0, 3, 0, 1]))
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        np.testing.assert_array_equal(out, expected)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        labels = rng.integers(0, 4, size=50)
        out = one_hot(labels)
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(50))
        assert out.shape == (50, len(np.unique(labels)))
