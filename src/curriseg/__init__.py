"""Curriculum-trained two-stage segmentation of small objects.

The package trains a tiny encoder-decoder through three detection
phases of increasing difficulty (ground-truth crops, self-predicted
crops, raw images), maintains slow-moving weight caches, trains a
segmentation model on the pooled crops, and predicts through a
detect-crop-segment-paste pipeline. Everything is deterministic,
pure numpy, and fully specified down to the on-disk bit level.
"""

from .backbone import (
    BackboneSpec,
    OptimizerConfig,
    OptState,
    forward,
    init_params,
    loss_and_grad,
    param_count,
    train_step,
)
from .ema import CacheModel, cache_init, cache_update
from .errors import (
    AlignmentError,
    AlphaOutOfRange,
    BadImageDepth,
    BadMagic,
    CorruptManifest,
    CountMismatch,
    CurrisegError,
    EmptyDataset,
    LayoutMismatch,
    LengthMismatch,
    MissingFile,
    NonFiniteLoss,
    ShapeMismatch,
    ValueOutOfRange,
    VersionUnsupported,
)
from .evaluation import EvalReport, dsc, evaluate_set
from .geometry import (
    GaussianKernel,
    bbox_from_mask,
    crop_like,
    gaussian_smooth,
    gaussian_smooth_adjoint,
    make_crop_record,
    paste_back,
    threshold,
)
from .losses import LossConfig, loss_bce, loss_grad, loss_iou, loss_smoothed, loss_total
from .predictor import IterationRecord, PredictConfig, PredictTrace, predict
from .rng import Rng, derive_seed
from .storage import (
    load_checkpoint,
    load_image,
    load_mask,
    load_phase,
    read_pgm,
    save_checkpoint,
    save_image,
    save_mask,
    save_phase,
    write_pgm,
)
from .synthdata import GenConfig, generate
from .trainer import (
    EpochRecord,
    PhaseConfig,
    RunState,
    build_d1,
    build_d2,
    detection_dsc,
    end_to_end_dsc,
    history_from_json,
    history_to_json,
    load_cache,
    run_full,
    run_phase,
)
from .types import (
    BBox,
    CropRecord,
    DatasetItem,
    DatasetPhase,
    Image,
    LossBreakdown,
    Mask,
    ParamVector,
    ProbMap,
    masks_equal,
    mean_breakdown,
)

__version__ = "0.1.0"
