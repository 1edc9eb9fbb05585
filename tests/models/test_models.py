"""Tests for repro.models (linear, preprocess)."""

import numpy as np
import pytest

from repro.errors import TrainingError, ValidationError
from repro.models.linear import LogisticRegression
from repro.models.preprocess import MeanImputer, StandardScaler


@pytest.fixture(scope="module")
def linear_task():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(800, 6))
    w = rng.normal(size=6)
    y = (X @ w > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="module")
def multiclass_task():
    rng = np.random.default_rng(1)
    centers = rng.normal(size=(3, 4)) * 4.0
    labels = rng.integers(0, 3, size=600)
    X = centers[labels] + rng.normal(size=(600, 4))
    return X, labels


class TestLogisticRegression:
    def test_learns_linear_boundary(self, linear_task):
        X, y = linear_task
        model = LogisticRegression().fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.95

    def test_multiclass(self, multiclass_task):
        X, y = multiclass_task
        model = LogisticRegression().fit(X, y)
        assert model.n_classes == 3
        assert np.mean(model.predict(X) == y) > 0.9

    def test_probabilities_normalized(self, linear_task):
        X, y = linear_task
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X[:50])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_deterministic(self, linear_task):
        X, y = linear_task
        a = LogisticRegression().fit(X, y)
        b = LogisticRegression().fit(X, y)
        np.testing.assert_allclose(a.weights, b.weights)

    def test_sample_weight_shifts_decision(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        # Heavily weight class 0: predictions should skew toward 0.
        weights = np.where(y == 0, 10.0, 0.1)
        model = LogisticRegression().fit(X, y, sample_weight=weights)
        baseline = LogisticRegression().fit(X, y)
        assert model.predict(X).mean() < baseline.predict(X).mean()

    def test_rejects_nan_features(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(TrainingError):
            LogisticRegression().fit(X, np.array([0]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValidationError):
            LogisticRegression().fit(np.zeros((2, 1)), np.array([-1, 0]))

    def test_unfitted_predict_raises(self):
        with pytest.raises(TrainingError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_bad_sample_weight(self, linear_task):
        X, y = linear_task
        with pytest.raises(ValidationError):
            LogisticRegression().fit(X, y, sample_weight=np.zeros(len(y)))
        with pytest.raises(ValidationError):
            LogisticRegression().fit(X, y, sample_weight=np.ones(3))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            LogisticRegression(learning_rate=0.0)
        with pytest.raises(ValidationError):
            LogisticRegression(l2=-1.0)

    def test_decision_scores_match_argmax(self, multiclass_task):
        X, y = multiclass_task
        model = LogisticRegression().fit(X, y)
        np.testing.assert_array_equal(
            model.decision_scores(X).argmax(axis=1), model.predict(X)
        )


class TestMeanImputer:
    def test_fills_with_column_means(self):
        X = np.array([[1.0, 10.0], [3.0, np.nan], [np.nan, 30.0]])
        imputed = MeanImputer().fit_transform(X)
        assert imputed[1, 1] == 20.0
        assert imputed[2, 0] == 2.0
        assert not np.isnan(imputed).any()

    def test_all_nan_column_gets_zero(self):
        X = np.array([[np.nan], [np.nan]])
        imputed = MeanImputer().fit_transform(X)
        np.testing.assert_array_equal(imputed, [[0.0], [0.0]])

    def test_transform_uses_training_means(self):
        imputer = MeanImputer().fit(np.array([[10.0], [20.0]]))
        out = imputer.transform(np.array([[np.nan]]))
        assert out[0, 0] == 15.0

    def test_unfitted_raises(self):
        with pytest.raises(TrainingError):
            MeanImputer().transform(np.zeros((1, 1)))


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5.0, scale=3.0, size=(1000, 2))
        scaled = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.full((10, 1), 7.0)
        scaled = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(scaled, 0.0)

    def test_nan_aware_fit(self):
        X = np.array([[1.0], [np.nan], [3.0]])
        scaler = StandardScaler().fit(X)
        assert scaler.means[0] == 2.0

    def test_unfitted_raises(self):
        with pytest.raises(TrainingError):
            StandardScaler().transform(np.zeros((1, 1)))
