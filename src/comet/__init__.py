"""Bit-exact simulator of an OBC LUT + shift-accumulate CNN accelerator."""

from .fxp import FxpFormat, bit_slice, from_bits, obc_delta, quantize_saturate
from .lut_arch import (
    HYBRID,
    KINDS,
    PARALLEL,
    SHARED,
    SPLIT,
    LutArch,
    LutCost,
    PreparedLut,
    StructTrace,
    lut_cost,
)
from .obc_ipc import (
    IpcProblem,
    ObcLut,
    SaTrace,
    Scheme,
    build_naive_lut,
    ipc_obc,
    ipc_oracle,
    merged_offset,
    piso_schedule,
    sa_run,
)
from .im2col_addr import AddrEvent, CounterState, LayerConfigWord, run_layer, step
from .gemm_core import GemmConfig, TilePlan, gemm_obc, gemm_oracle, im2col
from .cnn_model import ModelSpec, build_modified_lenet5, infer, infer_oracle
from .metrics import ResourceReport, aep, ens, eps, throughput_mac
from .tensor_io import WeightBundle, gen_input, gen_weights, read_cbt, write_cbt

__version__ = "0.1.0"
