"""Per-stream SINR, spectral-efficiency lower bound, and BER bookkeeping.

The SINR of symbol stream k(i) = 4(k-1) + i sums desired power, residual
interference, and noise amplification across base stations, each BS taken
separately. Two noise-scaling conventions are supported for the
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


@dataclass(frozen=True)
class SinrReport:
    """Per-stream SINRs, shape (K, 4), and the per-user SE lower bound (K,)."""

    sinr: np.ndarray
    se: np.ndarray


def ber_accumulate(tx_bits: np.ndarray, rx_bits: np.ndarray) -> BerEstimate:
    """Compare two bit streams of equal length."""
    tx = np.asarray(tx_bits).reshape(-1)
    rx = np.asarray(rx_bits).reshape(-1)
    if tx.shape != rx.shape:
        raise ValueError(f"bit streams differ in length: {tx.size} vs {rx.size}")
    return BerEstimate.from_counts(int(np.count_nonzero(tx != rx)), tx.size)


def _check_index(a_mats: Sequence[np.ndarray], index: int) -> None:
    n = a_mats[0].shape[0]
    if not 0 <= index < n:
        raise IndexError(f"stream index {index} out of range for {n} streams")


def interference_noise_variance(
    a_mats: Sequence[np.ndarray],
    g_mats: Sequence[np.ndarray],
    rho: float,
    index: int,
    noise_term: str = NOISE_SNR_SCALED,
) -> float:
    """Interference-plus-noise power of stream ``index`` summed over BSs.

    Per BS: sum_{t != index} |(A G)_{index,t}|^2 for interference plus the
    squared norm of row ``index`` of A for noise, combined under the chosen
    noise-scaling convention.
    """
    if noise_term not in _NOISE_TERMS:
        raise ValueError(f"noise_term must be one of {_NOISE_TERMS}")
    _check_index(a_mats, index)
    interference = 0.0
    noise = 0.0
    for A, G in zip(a_mats, g_mats):
        row = A[index] @ G
        interference += np.sum(np.abs(row) ** 2) - np.abs(row[index]) ** 2
        noise += np.sum(np.abs(A[index]) ** 2)
    if noise_term == NOISE_SNR_SCALED:
        return float(rho / 2.0 * (interference + noise))
    return float(rho / 2.0 * interference + noise)


def sinr(
    a_mats: Sequence[np.ndarray],
    g_mats: Sequence[np.ndarray],
    rho: float,
    index: int,
    noise_term: str = NOISE_SNR_SCALED,
) -> float:
    """SINR of stream ``index``: desired power over interference-plus-noise."""
    _check_index(a_mats, index)
    desired = 0.0
    for A, G in zip(a_mats, g_mats):
        desired += np.abs(A[index] @ G[:, index]) ** 2
    denom = interference_noise_variance(a_mats, g_mats, rho, index, noise_term)
    if denom == 0.0:
        raise DegenerateSinrError(f"zero interference-plus-noise for stream {index}")
    return float(rho / 2.0 * desired / denom)


def spectral_efficiency(sinrs: Sequence[float]) -> float:
    """Per-user SE lower bound, (1/2) sum_i log2(1 + SINR_i) over 4 streams.

    The 1/2 reflects four symbols spread over two slots.
    """
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.shape != (4,):
        raise ValueError(f"expected exactly 4 stream SINRs, got shape {sinrs.shape}")
    if np.any(sinrs < 0):
        raise ValueError("SINRs must be non-negative")
    return float(0.5 * np.sum(np.log2(1.0 + sinrs)))


def sinr_from_products(
    ag_mats: Sequence[np.ndarray],
    noise_gains: Sequence[np.ndarray],
    rho: float,
    noise_term: str = NOISE_SNR_SCALED,
) -> np.ndarray:
    """SINR of every stream from each BS's A G and its noise gains diag(A A^H).

    Both come from the Gram domain as A G = Z^-1 G^H G and
    diag(A A^H) = diag(Z^-1 G^H G Z^-H), so the decoder A is never needed.
    """
    if noise_term not in _NOISE_TERMS:
        raise ValueError(f"noise_term must be one of {_NOISE_TERMS}")
    n = ag_mats[0].shape[0]
    desired = np.zeros(n)
    interference = np.zeros(n)
    noise = np.zeros(n)
    for AG, gains in zip(ag_mats, noise_gains):
        P = np.abs(AG) ** 2
        diag = np.diagonal(P)
        desired += diag
        interference += P.sum(axis=1) - diag
        noise += gains
    if noise_term == NOISE_SNR_SCALED:
        denom = rho / 2.0 * (interference + noise)
    else:
        denom = rho / 2.0 * interference + noise
    if np.any(denom == 0.0):
        raise DegenerateSinrError("zero interference-plus-noise power")
    return rho / 2.0 * desired / denom


def sinr_streams(
    a_mats: Sequence[np.ndarray],
    g_mats: Sequence[np.ndarray],
    rho: float,
    noise_term: str = NOISE_SNR_SCALED,
) -> np.ndarray:
    """SINR of every stream at once, vectorized over the full A @ G products.

    Agrees with the per-index :func:`sinr` entry point.
    """
    return sinr_from_products(
        [A @ G for A, G in zip(a_mats, g_mats)],
        [np.sum(np.abs(A) ** 2, axis=1) for A in a_mats],
        rho,
        noise_term,
    )


def sinr_profile(
    a_mats: Sequence[np.ndarray],
    g_mats: Sequence[np.ndarray],
    rho: float,
    num_users: int,
    noise_term: str = NOISE_SNR_SCALED,
) -> SinrReport:
    """All-stream SINRs grouped per user plus each user's SE lower bound."""
    n = a_mats[0].shape[0]
    if n != 4 * num_users:
        raise ValueError(f"decoder has {n} streams, expected 4K = {4 * num_users}")
    values = sinr_streams(a_mats, g_mats, rho, noise_term).reshape(num_users, 4)
    se = np.array([spectral_efficiency(row) for row in values])
    return SinrReport(sinr=values, se=se)
