"""The stacked decode path: the reference the Gram-domain kernel is checked against.

Each BS forms its 2M x 4K equivalent channel G (the beta-scaled per-user
Golden-code rewrites side by side) and the 4K x 2M linear decoder
A = Z^-1 G^H, applies A to vec(Y), and the central unit sums the soft
outputs and gains. ``cfstbc.simulate`` and ``cfstbc diag`` never form G or
A: they work from the fading products H^H H and H^H Y.

The one-draw-per-call channel generators and the realization types they
fill are here too: the oracles draw each stream through them, while the
kernel draws a trial's streams straight into arrays (``simulate._draw``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cfstbc import (
    NOISE_SNR_SCALED,
    BerEstimate,
    DecoderMatrix,
    GoldenParams,
    Inversion,
    convergence_margins,
    equivalent_channel,
    golden_params,
    sinr_from_products,
    spectral_efficiency,
)


@dataclass(frozen=True)
class LargeScaleProfile:
    """Per-(BS, user) large-scale power gains, shape (L, K)."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        if betas.ndim != 2:
            raise ValueError(f"betas must be 2-D (L, K), got shape {betas.shape}")
        if not np.all(np.isfinite(betas)) or np.any(betas < 0):
            raise ValueError("betas must be finite and non-negative")
        if betas.shape[1] > 1 and np.any(np.diff(betas, axis=1) > 0):
            raise ValueError("each row of betas must be sorted non-increasing")
        object.__setattr__(self, "betas", betas)

    @property
    def num_bs(self) -> int:
        return self.betas.shape[0]

    @property
    def num_users(self) -> int:
        return self.betas.shape[1]


@dataclass(frozen=True)
class ChannelRealization:
    """Small-scale fading for every (BS, user) pair plus the gain profile.

    ``h`` has shape (L, K, M, J) with J the number of user antennas.
    """

    h: np.ndarray
    profile: LargeScaleProfile

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 4:
            raise ValueError(f"h must be 4-D (L, K, M, J), got shape {h.shape}")
        if h.shape[:2] != self.profile.betas.shape:
            raise ValueError(
                f"h leading dims {h.shape[:2]} do not match profile "
                f"{self.profile.betas.shape}"
            )
        if h.shape[3] not in (1, 2):
            raise ValueError(f"users carry 1 or 2 antennas, got {h.shape[3]}")
        if not np.all(np.isfinite(h)):
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "h", h)

    @property
    def num_bs(self) -> int:
        return self.h.shape[0]

    @property
    def num_users(self) -> int:
        return self.h.shape[1]

    @property
    def num_bs_antennas(self) -> int:
        return self.h.shape[2]

    @property
    def antennas_per_user(self) -> int:
        return self.h.shape[3]


def draw_large_scale(L: int, K: int, rng: np.random.Generator) -> LargeScaleProfile:
    """Draw U[0,1] gains for L base stations and K users, sorted per row."""
    if L < 1 or K < 1:
        raise ValueError(f"need L >= 1 and K >= 1, got L={L}, K={K}")
    u = rng.random((L, K))
    return LargeScaleProfile(betas=np.sort(u, axis=1)[:, ::-1])


def draw_small_scale(
    M: int, antennas_per_user: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw an (M, J) matrix of i.i.d. CN(0, 1) fading coefficients."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    # one call draws the real parts, then the imaginary parts: the same
    # values as two calls, without complex temporaries
    parts = np.sqrt(0.5) * rng.standard_normal((2, M, antennas_per_user))
    out = np.empty((M, antennas_per_user), dtype=complex)
    out.real, out.imag = parts
    return out


def draw_noise(M: int, T: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (M, T) block of i.i.d. CN(0, 1) receiver noise."""
    if M < 1 or T < 1:
        raise ValueError(f"need M >= 1 and T >= 1, got M={M}, T={T}")
    return draw_small_scale(M, T, rng)


def gram(G: np.ndarray) -> np.ndarray:
    """Return the Gram matrix G^H G of a tall matrix G."""
    G = np.asarray(G)
    if G.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={G.ndim}")
    if G.shape[0] < G.shape[1]:
        raise ValueError(
            f"gram expects at least as many rows as columns, got {G.shape}"
        )
    return G.conj().T @ G


def convergence_margin(Z: np.ndarray) -> float:
    """:func:`cfstbc.linalg.convergence_margins` of one matrix, as a float."""
    if np.ndim(Z) != 2:
        raise ValueError(f"expected one matrix, got shape {np.shape(Z)}")
    return float(convergence_margins(Z))


def vec(Y: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector (slot 1 above slot 2)."""
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError(f"vec expects a 2-D block, got shape {Y.shape}")
    return Y.reshape(-1, order="F")


def stack_system(h_tildes: np.ndarray, betas_row: np.ndarray) -> np.ndarray:
    """Stack beta-scaled per-user blocks side by side, (K, 2M, 4) -> (2M, 4K).

    Columns 4(k-1)..4k-1 of the result belong to user k.
    """
    h_tildes = np.asarray(h_tildes, dtype=complex)
    betas_row = np.asarray(betas_row, dtype=float)
    if h_tildes.ndim != 3:
        raise ValueError(f"expected (K, 2M, 4) blocks, got shape {h_tildes.shape}")
    if betas_row.shape != (h_tildes.shape[0],):
        raise ValueError(
            f"betas_row must hold one gain per user, got {betas_row.shape} "
            f"for K={h_tildes.shape[0]}"
        )
    scaled = betas_row[:, None, None] * h_tildes
    K, rows, cols = scaled.shape
    return scaled.transpose(1, 0, 2).reshape(rows, K * cols)


def large_m_diagnostic(
    M: int, rng: np.random.Generator, params: GoldenParams = golden_params()
) -> tuple[float, float]:
    """Empirical check that equivalent channels whiten as M grows.

    Draws two independent user channels, returns the max deviation of
    Htilde^H Htilde / M from the identity and the max magnitude of the
    cross-user product Htilde1^H Htilde2 / M. Both shrink like 1/sqrt(M).
    """
    H1 = draw_small_scale(M, 2, rng)
    H2 = draw_small_scale(M, 2, rng)
    Ht1 = equivalent_channel(H1, params)
    Ht2 = equivalent_channel(H2, params)
    diag_error = np.max(np.abs(Ht1.conj().T @ Ht1 / M - np.eye(4)))
    cross_error = np.max(np.abs(Ht1.conj().T @ Ht2 / M))
    return float(diag_error), float(cross_error)


def received_block(
    channels: ChannelRealization,
    codes: np.ndarray,
    rho: float,
    noise: np.ndarray,
    l: int,
) -> np.ndarray:
    """Received (M, T) block at BS l for per-user code blocks.

    Y_l = sum_k sqrt(rho/2) * beta_lk * H_lk @ X_k + W_l. ``codes`` stacks
    the per-user transmit blocks as (K, J, T).
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0 <= l < channels.num_bs:
        raise ValueError(f"BS index {l} out of range for L={channels.num_bs}")
    codes = np.asarray(codes, dtype=complex)
    K = channels.num_users
    J = channels.antennas_per_user
    if codes.shape[:2] != (K, J):
        raise ValueError(
            f"codes must have shape (K={K}, J={J}, T), got {codes.shape}"
        )
    noise = np.asarray(noise, dtype=complex)
    if noise.shape != (channels.num_bs_antennas, codes.shape[2]):
        raise ValueError(
            f"noise shape {noise.shape} does not match "
            f"(M={channels.num_bs_antennas}, T={codes.shape[2]})"
        )
    # sum_k beta_k H_k X_k as one (M, KJ) @ (KJ, T) product
    M = channels.num_bs_antennas
    h_flat = channels.h[l].transpose(1, 0, 2).reshape(M, K * J)
    codes_scaled = (channels.profile.betas[l][:, None, None] * codes).reshape(
        K * J, codes.shape[2]
    )
    return np.sqrt(rho / 2.0) * (h_flat @ codes_scaled) + noise


def zf_matrix(G: np.ndarray, inversion: Inversion) -> DecoderMatrix:
    """Zero-forcing decoder A = inv(G^H G) G^H with the selected inverter."""
    Z = gram(G)
    Zinv = inversion.invert(Z)
    A = Zinv @ G.conj().T
    gains = np.sum(A.T * G, axis=0)  # diag(A @ G) without the full product
    return DecoderMatrix(A=A, kind="zf", inversion=inversion, gram=Z, gains=gains)


def mmse_matrix(G: np.ndarray, rho: float, inversion: Inversion) -> DecoderMatrix:
    """MMSE decoder A = inv(G^H G + (2/rho) I) G^H with the selected inverter."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    Z = gram(G) + (2.0 / rho) * np.eye(G.shape[1])
    Zinv = inversion.invert(Z)
    A = Zinv @ G.conj().T
    gains = np.sum(A.T * G, axis=0)  # diag(A @ G) without the full product
    return DecoderMatrix(A=A, kind="mmse", inversion=inversion, gram=Z, gains=gains)


def per_bs_soft(
    decoder: DecoderMatrix, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Soft symbol vector A @ y at one BS plus the effective symbol gains."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (decoder.A.shape[1],):
        raise ValueError(
            f"received vector has shape {y.shape}, decoder expects "
            f"({decoder.A.shape[1]},)"
        )
    return decoder.A @ y, decoder.gains


def cpu_combine(
    soft: list[np.ndarray], gains: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-BS soft vectors and gains at the central unit."""
    if len(soft) < 1 or len(soft) != len(gains):
        raise ValueError("need one gain vector per soft vector, at least one BS")
    shapes = {np.shape(s) for s in soft} | {np.shape(g) for g in gains}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent vector lengths: {sorted(shapes)}")
    return np.sum(soft, axis=0), np.sum(gains, axis=0)


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


def sinr_streams(
    a_mats: Sequence[np.ndarray],
    g_mats: Sequence[np.ndarray],
    rho: float,
    noise_term: str = NOISE_SNR_SCALED,
) -> np.ndarray:
    """SINR of every stream at once, vectorized over the full A @ G products."""
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
    se = spectral_efficiency(values)
    return SinrReport(sinr=values, se=se)
