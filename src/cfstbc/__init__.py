"""Cell-free massive MIMO uplink simulator with Golden-code STBC users.

Dual-antenna users spread 4 symbols over two slots with the Golden code;
distributed base stations decode linearly (ZF or MMSE) on the equivalent
channel, working in the Gram domain (G^H G and G^H y from H^H H and H^H Y),
with the Gram inversion done exactly or by a truncated Neumann series, and
a central unit combines the per-BS soft outputs.
"""

import os as _os

# Single-threaded BLAS unless already set: parallelism comes from worker
# processes. No effect if numpy was imported before this package.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    LargeScaleProfile,
    draw_large_scale,
    draw_noise,
    draw_small_scale,
    received_block,
)
from .golden import (
    GoldenParams,
    encode,
    equivalent_channel,
    golden_params,
    large_m_diagnostic,
    slot_maps,
    stack_system,
    system_gram,
    system_matched,
    vec,
    verify_exchangeability,
)
from .linalg import (
    DegenerateSplitError,
    NeumannSplit,
    SingularMatrixError,
    convergence_margin,
    convergence_margins,
    exact_inverse,
    gram,
    neumann_inverse,
    neumann_r2,
    split_diag,
)
from .metrics import (
    NOISE_SNR_SCALED,
    NOISE_UNIT,
    BerEstimate,
    DegenerateSinrError,
    SinrReport,
    ber_accumulate,
    sinr_from_products,
    sinr_profile,
    sinr_streams,
    spectral_efficiency,
)
from .receiver import (
    BPSK,
    CONSTELLATIONS,
    QAM4,
    Constellation,
    DecoderMatrix,
    Inversion,
    cpu_combine,
    detect,
    mmse_matrix,
    per_bs_soft,
    zf_matrix,
)
from .simulate import (
    BerPoint,
    ConfigError,
    RunResult,
    ScenarioConfig,
    SePoint,
    desk_ber_config,
    full_ber_config,
    run_ber_sweep,
    run_se_sweep,
    se_sweep_config,
    trial_rng,
    trials_for_bits,
)

__all__ = [name for name in dir() if not name.startswith("_")]
