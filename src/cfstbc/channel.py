"""Random uplink channel generation: path gains, Rayleigh fading, noise.

Large-scale gains beta_lk are uniform on [0, 1] and sorted per base
station so beta_l1 >= beta_l2 >= ... >= beta_lK. Small-scale fading and
receiver noise are i.i.d. circularly symmetric complex Gaussian with unit
variance per entry. All draws consume a caller-supplied
``numpy.random.Generator`` so realizations are reproducible and
parallel-safe (see ``simulate.trial_rng`` for the stream-keying scheme).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
