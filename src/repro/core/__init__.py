"""The paper's contribution: HybridGNN and its training machinery."""

from repro.core.config import HybridGNNConfig, TrainerConfig
from repro.core.hybrid_aggregation import (
    ExplorationFlow,
    MetapathFlow,
    RandomNeighborFlow,
    aggregate_layers,
)
from repro.core.hierarchical_attention import (
    MetapathLevelAttention,
    RelationshipLevelAttention,
)
from repro.core.loss import skip_gram_loss, softplus
from repro.core.model import HybridGNN
from repro.core.trainer import SkipGramTrainer, TrainingHistory
from repro.core.features import (
    LearnedFeatures,
    ProjectedFeatures,
    make_feature_source,
)
from repro.core.recommender import Recommendation, Recommender
from repro.core.persistence import (
    EmbeddingStore,
    export_embeddings,
    load_checkpoint_into,
    load_embeddings,
    save_checkpoint,
)

__all__ = [
    "HybridGNNConfig",
    "TrainerConfig",
    "HybridGNN",
    "SkipGramTrainer",
    "TrainingHistory",
    "MetapathFlow",
    "ExplorationFlow",
    "RandomNeighborFlow",
    "aggregate_layers",
    "MetapathLevelAttention",
    "RelationshipLevelAttention",
    "skip_gram_loss",
    "softplus",
    "Recommender",
    "Recommendation",
    "LearnedFeatures",
    "ProjectedFeatures",
    "make_feature_source",
    "save_checkpoint",
    "load_checkpoint_into",
    "export_embeddings",
    "load_embeddings",
    "EmbeddingStore",
]
