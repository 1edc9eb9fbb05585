"""Named entity disambiguation (Bootleg-style).

Paper section 3.1.1: "recent work from [Orr et al.] explored incorporating
structured data into entity embedding pretraining through named entity
disambiguation ... by adding structured data of the type of an entity and
its knowledge graph relations, they could boost performance over rare
entities by 40 F1 points."

This package reproduces that system shape end to end:

* :mod:`repro.ned.features` — per-candidate feature extraction: popularity
  prior, self-supervised embedding co-occurrence score, type-match score
  (from a learned context->type classifier) and KG-relation overlap.
* :mod:`repro.ned.models` — disambiguation models assembled from feature
  subsets: prior-only, embedding-only, and the structured (+types,
  +relations) model.
* :mod:`repro.ned.evaluation` — overall / head / tail F1 evaluation, where
  "tail" is defined by training-mention count, exactly the rare-entity
  split the claim is about.
"""

from repro.ned.evaluation import NedEvaluation, evaluate_model, tail_entity_ids
from repro.ned.features import CandidateFeaturizer, TypeClassifier
from repro.ned.models import NedModel, train_ned_model

__all__ = [
    "CandidateFeaturizer",
    "NedEvaluation",
    "NedModel",
    "TypeClassifier",
    "evaluate_model",
    "tail_entity_ids",
    "train_ned_model",
]
