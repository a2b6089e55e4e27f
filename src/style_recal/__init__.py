"""Style-based channel recalibration: layers, models, and experiment harness.

A small numpy framework implementing per-channel feature recalibration driven
by global style statistics (channel mean and standard deviation), the
squeeze-and-excitation alternative, residual networks to host them, exact
parameter/FLOP accounting, and the analyses that probe what the learned gates
do (dynamic channel pruning, gate correlation structure, top-activated image
retrieval).
"""

__version__ = "0.1.0"

from .tensor import Parameter, Tape, Tensor, grad_check, using_dtype
from .layers import BatchNorm, Conv2d, Linear, Module, global_pool
from .recalib import ChannelRecalib, RecalibVariant
from .models import (
    ArchitectureConfig,
    StageSpec,
    build_resnet,
    cifar_resnet_config,
    imagenet_resnet50_config,
    named_config,
)
from .complexity import analyze, count_flops, count_params, se_extra_params, srm_extra_params
from .data import Dataset, SynthStyleSpec, augment, load_cifar10, synth_style
from .train import SGD, TrainConfig, evaluate, lr_at, train
from .analysis import (
    AnalysisRecord,
    capture_record,
    correlation_matrix,
    prune_eval,
    sum_squared_corr,
    top_activated,
)

__all__ = [
    "__version__",
    "Tensor",
    "Parameter",
    "Tape",
    "grad_check",
    "using_dtype",
    "Module",
    "Conv2d",
    "BatchNorm",
    "Linear",
    "global_pool",
    "RecalibVariant",
    "ChannelRecalib",
    "ArchitectureConfig",
    "StageSpec",
    "build_resnet",
    "cifar_resnet_config",
    "imagenet_resnet50_config",
    "named_config",
    "analyze",
    "count_params",
    "count_flops",
    "srm_extra_params",
    "se_extra_params",
    "Dataset",
    "SynthStyleSpec",
    "synth_style",
    "load_cifar10",
    "augment",
    "TrainConfig",
    "SGD",
    "train",
    "evaluate",
    "lr_at",
    "AnalysisRecord",
    "capture_record",
    "prune_eval",
    "correlation_matrix",
    "sum_squared_corr",
    "top_activated",
]
