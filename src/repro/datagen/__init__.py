"""Synthetic workload generators.

The paper's substrate was industrial (Uber Michelangelo feature data,
Wikipedia-scale corpora, Wikidata-scale knowledge bases). None of that is
available offline, so this package provides deterministic generators that
preserve the distributional structure each experiment depends on — Zipfian
entity popularity, drifting feature streams, topic-structured co-occurrence
corpora and classification tasks with planted error slices. See DESIGN.md
section 5 for the substitution argument per experiment.

All generators take an explicit seed (or ``numpy.random.Generator``) and are
bit-for-bit reproducible.
"""

from repro.datagen.corpus import CorpusConfig, SyntheticCorpus, generate_corpus
from repro.datagen.drift import (
    CategoricalShift,
    DriftInjector,
    MeanShift,
    NullBurst,
    VarianceShift,
)
from repro.datagen.kb import (
    Entity,
    KnowledgeBase,
    KBConfig,
    Mention,
    MentionConfig,
    generate_kb,
    generate_mentions,
)
from repro.datagen.streams import EventStream, StreamConfig, generate_stream
from repro.datagen.tabular import (
    RideEventConfig,
    TabularDataset,
    generate_ride_events,
)
from repro.datagen.tasks import (
    ClassificationTask,
    SlicedTaskConfig,
    generate_entity_task,
    generate_sliced_task,
)
from repro.datagen.workloads import (
    ZipfianWorkloadConfig,
    generate_zipfian_keys,
    theoretical_hit_rate,
    zipf_probabilities,
)

__all__ = [
    "CategoricalShift",
    "ClassificationTask",
    "CorpusConfig",
    "DriftInjector",
    "Entity",
    "EventStream",
    "KBConfig",
    "KnowledgeBase",
    "MeanShift",
    "Mention",
    "MentionConfig",
    "NullBurst",
    "RideEventConfig",
    "SlicedTaskConfig",
    "StreamConfig",
    "SyntheticCorpus",
    "TabularDataset",
    "VarianceShift",
    "ZipfianWorkloadConfig",
    "generate_corpus",
    "generate_entity_task",
    "generate_kb",
    "generate_mentions",
    "generate_ride_events",
    "generate_sliced_task",
    "generate_stream",
    "generate_zipfian_keys",
    "theoretical_hit_rate",
    "zipf_probabilities",
]
