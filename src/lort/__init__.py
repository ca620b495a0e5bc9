"""Monaural speech enhancement with linear-complexity Taylor attention.

Modules: array kernels (`arrays`), WAV + STFT plumbing (`signal`), the
layer primitives that declare and apply their own weights, and the one
weight initializer (`layers`: the `Layer` tree with its leaves `Conv`,
`Norm`, `PRelu` and `Param`, `DenseStack`, `init_store`), the attention and
locally-refined-convolution blocks (`attention`, `local_refine`), the
assembled network (`model`), training objectives (`objectives`), the
weight store (`weights`), numeric verification (`verify`), and the CLI
(`cli`).
"""
from .arrays import ConvSpec, FlopMeter, conv2d, lsigmoid, normalize, sigmoid, silu
from .attention import (
    AttentionInput,
    OpCount,
    count_ops,
    msar_correct,
    scea,
    softmax_attention,
    taylor_attention,
)
from .errors import (
    DegenerateAttentionError,
    DivergenceError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSpecError,
    LortError,
    NonInvertibleWindowError,
    ShapeError,
    WavParseError,
    WeightFormatError,
    WeightLookupError,
)
from .local_refine import Dlc, Lrc, cfn, lrc_block, tf_dlc
from .model import (
    ForwardResult,
    ModelConfig,
    build_model,
    count_params,
    estimate_flops,
    forward,
    init_weights,
)
from .objectives import (
    LossReport,
    LossWeights,
    anti_wrap,
    evaluate_losses,
    loss_consistency,
    loss_mag,
    loss_phase,
    loss_ri,
    total_loss,
)
from .signal import (
    ComplexSpec,
    Waveform,
    decompose,
    hann_window,
    istft,
    read_wav,
    recompose,
    snr_db,
    stft,
    write_wav,
)
from .verify import (
    GradCheckResult,
    SpsaConfig,
    SweepResult,
    finite_diff,
    gradcheck_losses,
    spsa_train,
    table2_trend,
    taylor_error_sweep,
)
from .weights import WeightStore

__version__ = "0.1.0"
