"""Sparse spiking convolutional networks trained timestep-wise on binary
event-camera data: event parsing and voxelization, a COO sparse-convolution
substrate, LIF spiking layers with surrogate-gradient BPTT, and the training
and evaluation suites (accuracy, sparsity audit, anytime inference,
stride-vs-pool comparison)."""

from .event_io import (
    BinaryVoxelGrid,
    EventStream,
    build_voxel_grid,
    load_dvs128,
    parse_aedat,
    parse_portable_events,
    split_dvs128,
    synth_dataset,
)
from .sparse import (
    ConvKernel2D,
    SparseTensor2D,
    count_nonzero,
    densify,
    out_coords,
    sparse_conv2d,
    sparse_max_pool2d,
    sparsify,
)
from .spiking import (
    LIFLayerState,
    LIFParams,
    SpikingNet,
    heaviside_spike,
    lazy_decay_advance,
    lif_step,
    load_checkpoint,
    network_forward,
    save_checkpoint,
    surrogate_grad,
)
from .autograd import (
    GradientTape,
    backward,
    finite_diff_check,
    soft_forward_mode,
)
from .training import (
    DESK_CONFIG,
    TrainConfig,
    anytime_eval,
    evaluate,
    init_model,
    sparsity_audit,
    stride_vs_pool_study,
    train,
)

__version__ = "0.1.0"
