"""Consistency-guided prompt and adapter tuning for a miniature frozen
dual encoder, with synthetic benchmarks for base-to-novel, cross-dataset,
and domain-shift evaluation."""

from .autodiff import (
    DomainError,
    GradError,
    SGD,
    ShapeError,
    Tensor,
    backward,
    cosine_similarity,
    cross_entropy_from_logits,
    l2_normalize,
    layernorm,
    no_grad,
    softmax,
)
from .checkpoints import CheckpointError
from .consistency import (
    Augmenter,
    ConsistencyConfig,
    consistency_loss,
    perturb_image,
    perturb_text,
)
from .datasets import (
    Dataset,
    DatasetError,
    DatasetManifest,
    FewShotSplit,
    build_default_suite,
    generate_dataset,
    make_fewshot_split,
    make_shifted_variant,
)
from .encoders import (
    DualEncoder,
    EncoderConfig,
    Tokenizer,
    VocabularyError,
    build_pretrain_split,
    contrastive_pretrain,
    load_backbone,
    save_backbone,
)
from .evaluation import (
    base_to_novel_eval,
    cross_dataset_eval,
    domain_gen_eval,
    harmonic_mean,
    predict,
)
from .training import (
    FinetuneResult,
    NonFiniteLossError,
    TrainConfig,
    Trainer,
    TunedModel,
    finetune,
    load_finetune_checkpoint,
    supervised_loss,
    total_loss,
)
from .tuning import (
    Adapter,
    PromptSet,
    apply_adapter,
    make_adapters,
    trainable_parameters,
)

__version__ = "0.1.0"
