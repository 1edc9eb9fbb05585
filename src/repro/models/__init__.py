"""Downstream model substrate.

The paper's downstream systems (recommenders, rankers, NED products) are
stand-ins here: numpy logistic regression with a
sklearn-ish ``fit``/``predict``/``predict_proba`` interface, plus the
evaluation metrics (accuracy, F1, per-slice accuracy) the monitoring and
patching layers consume.
"""

from repro.models.linear import LogisticRegression
from repro.models.metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
    slice_accuracies,
)
from repro.models.preprocess import MeanImputer, StandardScaler

__all__ = [
    "LogisticRegression",
    "MeanImputer",
    "StandardScaler",
    "accuracy",
    "confusion_matrix",
    "f1_score",
    "precision_recall_f1",
    "slice_accuracies",
]
