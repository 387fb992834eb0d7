"""Per-stream SINR, spectral-efficiency lower bound, and BER estimates.

The SINR of symbol stream k(i) = 4(k-1) + i sums desired power, residual
interference, and noise amplification across base stations, each BS taken
separately; :func:`sinr_from_products` takes each BS's A G and noise gains
from the Gram domain. Two noise-scaling conventions are supported for the
interference-plus-noise variance:

* ``"snr-scaled"`` (default): the whole denominator, noise included, is
  multiplied by rho/2 -- the form the rate results in this line of work
  are usually quoted in.
* ``"unit"``: only interference scales with rho/2 while noise keeps its
  physical unit variance; this variant matches the empirical variance of
  the decomposed soft signal at any rho (the two coincide at rho = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

NOISE_SNR_SCALED = "snr-scaled"
NOISE_UNIT = "unit"
_NOISE_TERMS = (NOISE_SNR_SCALED, NOISE_UNIT)


class DegenerateSinrError(ValueError):
    """SINR denominator vanished (no interference and no noise power)."""


@dataclass(frozen=True)
class BerEstimate:
    """Monte Carlo bit-error-rate estimate with a 95% normal half-width."""

    bit_errors: int
    bits_total: int
    ber: float
    confidence_halfwidth: float

    @classmethod
    def from_counts(cls, bit_errors: int, bits_total: int) -> "BerEstimate":
        if bits_total < 1:
            raise ValueError("bits_total must be >= 1")
        if not 0 <= bit_errors <= bits_total:
            raise ValueError("bit_errors must lie in [0, bits_total]")
        p = bit_errors / bits_total
        halfwidth = 1.96 * np.sqrt(p * (1.0 - p) / bits_total)
        return cls(
            bit_errors=bit_errors,
            bits_total=bits_total,
            ber=p,
            confidence_halfwidth=float(halfwidth),
        )


def spectral_efficiency(sinrs: Sequence[float]) -> float | np.ndarray:
    """Per-user SE lower bound, (1/2) sum_i log2(1 + SINR_i) over 4 streams.

    The 1/2 reflects four symbols spread over two slots. Leading axes of a
    (..., 4) input are kept: one SE per user.
    """
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.ndim < 1 or sinrs.shape[-1] != 4:
        raise ValueError(f"expected exactly 4 stream SINRs, got shape {sinrs.shape}")
    if np.any(sinrs < 0):
        raise ValueError("SINRs must be non-negative")
    return 0.5 * np.sum(np.log2(1.0 + sinrs), axis=-1)


def sinr_from_products(
    ag_mats: Sequence[np.ndarray],
    noise_gains: Sequence[np.ndarray],
    rho: float,
    noise_term: str = NOISE_SNR_SCALED,
) -> np.ndarray:
    """SINR of every stream from each BS's A G and its noise gains diag(A A^H).

    Both come from the Gram domain as A G = Z^-1 G^H G and
    diag(A A^H) = diag(Z^-1 G^H G Z^-H), so the decoder A is never needed.
    ``ag_mats`` is (..., L, n, n) and ``noise_gains`` (..., L, n) over the L
    BSs; the leading axes are kept, and the BSs are summed in order.
    """
    if noise_term not in _NOISE_TERMS:
        raise ValueError(f"noise_term must be one of {_NOISE_TERMS}")
    ag_mats = np.asarray(ag_mats)
    noise_gains = np.asarray(noise_gains)
    desired = np.zeros(ag_mats.shape[:-3] + ag_mats.shape[-1:])
    interference = np.zeros_like(desired)
    noise = np.zeros_like(desired)
    for l in range(ag_mats.shape[-3]):
        P = np.abs(ag_mats[..., l, :, :]) ** 2
        diag = np.diagonal(P, axis1=-2, axis2=-1)
        desired += diag
        interference += P.sum(axis=-1) - diag
        noise += noise_gains[..., l, :]
    if noise_term == NOISE_SNR_SCALED:
        denom = rho / 2.0 * (interference + noise)
    else:
        denom = rho / 2.0 * interference + noise
    if np.any(denom == 0.0):
        raise DegenerateSinrError("zero interference-plus-noise power")
    return rho / 2.0 * desired / denom
