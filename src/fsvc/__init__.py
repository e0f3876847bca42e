"""Few-shot video classification over frame-level feature sequences."""

from .align import (
    SaliencyParams,
    cosine,
    dtw,
    dtw_bruteforce,
    frame_distance_matrix,
    multi_saliency,
    otam_similarity,
)
from .core import (
    Episode,
    FeatureSequence,
    FsvcError,
    Manifest,
    RngStream,
    load_manifest,
    read_feature_file,
    sample_episode,
    save_manifest,
    write_feature_file,
)
from .harness import EvalReport, build_splits, evaluate
from .heads import (
    AdamState,
    LinearHead,
    adam_step,
    dropout_mask,
    imprint,
    linear_forward,
    softmax_xent,
    train_head,
)
from .protocols import (
    EmbeddingParams,
    MethodConfig,
    TrainedModel,
    adapt_and_predict,
    load_checkpoint,
    meta_train,
    pretrain_embedding,
    save_checkpoint,
    train_classification,
    train_model,
)
from .synthdata import GeneratorSpec, gen_benchmark, gen_class_prototype, gen_video

__version__ = "0.1.0"
