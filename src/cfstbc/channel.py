"""Random uplink channel generation: path gains, Rayleigh fading, noise.

Large-scale gains beta_lk are uniform on [0, 1] and sorted per base
station so beta_l1 >= beta_l2 >= ... >= beta_lK. Small-scale fading and
receiver noise are i.i.d. circularly symmetric complex Gaussian with unit
variance per entry. All draws consume a caller-supplied
``numpy.random.Generator`` so realizations are reproducible and
parallel-safe. ``simulate`` hands each draw numpy's SeedSequence->PCG64
stream of its own key, with the states of a whole job of trials derived
at once (see ``simulate.trial_rng`` and ``simulate.stream_states``).
No received block Y is formed: the simulator decodes from the fading
products H^H H and H^H W.
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
