"""Golden-code encoding and the equivalent-channel rewrite of the uplink.

The Golden code maps 4 symbols onto a 2x2 block sent from two antennas
over two slots. Its linear-dispersion structure lets the per-user model
Y = H X + W be rewritten as vec(Y) = Htilde x + vec(W), with vec stacking
columns (slot 1 above slot 2) and Htilde absorbing both the fading and the
code coefficients. Stacking scaled per-user blocks side by side yields the
full receive matrix G the linear decoders operate on.

Because the rewrite is linear with fixed per-slot coefficients, the
decoders' inputs G^H G and G^H vec(Y) also follow from the small fading
products H^H H and H^H Y (:func:`system_gram`, :func:`system_matched`);
the simulator works in that Gram domain and never forms G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import draw_small_scale


@dataclass(frozen=True)
class GoldenParams:
    """The five Golden-code constants."""

    a: complex
    b: float
    c: complex
    d: float
    gamma: complex


def golden_params() -> GoldenParams:
    """Standard Golden-code coefficients built on the golden ratio.

    b and d are the two roots of t^2 - t - 1; a and c normalize the layers
    so both code rows carry unit average energy (|a|^2 + |c|^2 = 1 and
    |ab|^2 + |cd|^2 = 1).
    """
    sqrt5 = np.sqrt(5.0)
    b = (1.0 + sqrt5) / 2.0
    d = (1.0 - sqrt5) / 2.0
    a = (1.0 + 1j * (1.0 - b)) / sqrt5
    c = (1.0 + 1j * (1.0 - d)) / sqrt5
    return GoldenParams(a=a, b=b, c=c, d=d, gamma=1j)


_DEFAULT = golden_params()


def encode(x: np.ndarray, params: GoldenParams = _DEFAULT) -> np.ndarray:
    """Map 4 symbols to a 2x2 code block; broadcasts over leading axes.

    X = [[a(x1 + b x2), gamma a(x3 + b x4)],
         [c(x3 + d x4), c(x1 + d x2)]]
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] != 4:
        raise ValueError(f"expected 4 symbols on the last axis, got {x.shape}")
    x1, x2, x3, x4 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    a, b, c, d, g = params.a, params.b, params.c, params.d, params.gamma
    row1 = np.stack([a * (x1 + b * x2), g * a * (x3 + b * x4)], axis=-1)
    row2 = np.stack([c * (x3 + d * x4), c * (x1 + d * x2)], axis=-1)
    return np.stack([row1, row2], axis=-2)


def vec(Y: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector (slot 1 above slot 2)."""
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError(f"vec expects a 2-D block, got shape {Y.shape}")
    return Y.reshape(-1, order="F")


def equivalent_channel(H: np.ndarray, params: GoldenParams = _DEFAULT) -> np.ndarray:
    """Per-user equivalent channel, (..., M, 2) -> (..., 2M, 4).

    Column j carries the fading-times-coefficient pattern of symbol j so
    that vec(H @ encode(x)) == equivalent_channel(H) @ x.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape[-1] != 2:
        raise ValueError(f"expected two user antennas on the last axis, got {H.shape}")
    h1, h2 = H[..., 0], H[..., 1]
    a, b, c, d, g = params.a, params.b, params.c, params.d, params.gamma
    top = np.stack([a * h1, a * b * h1, c * h2, c * d * h2], axis=-1)
    bottom = np.stack([c * h2, c * d * h2, g * a * h1, g * a * b * h1], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


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


def slot_maps(
    K: int, antennas_per_user: int, params: GoldenParams = _DEFAULT
) -> np.ndarray:
    """Per-slot maps C_s from fading columns to symbol columns, (T, J*K, S*K).

    With H = [H_1 ... H_K] the (M, J*K) fading of one BS, slot s of the
    stacked system (before the beta scaling) is H @ C_s. Dual-antenna users
    give a block-diagonal C_s of the code's 2x4 per-slot coefficients (read
    off the rewrite of H = I); single-antenna users send one symbol in one
    slot, so their map is the identity.
    """
    if antennas_per_user == 1:
        return np.eye(K, dtype=complex)[None]
    per_slot = equivalent_channel(np.eye(2), params).reshape(2, 2, 4)
    return np.stack([np.kron(np.eye(K), C) for C in per_slot])


def system_gram(R: np.ndarray, betas: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """G^H G of the stacked system from the fading Gram R = H^H H, (..., J*K, J*K).

    ``betas`` holds the (..., K) user gains and ``maps`` the
    :func:`slot_maps`; the result is beta (.) beta^T (.) sum_s C_s^H R C_s.
    """
    Z = sum(C.conj().T @ R @ C for C in maps)
    cols = np.repeat(betas, maps.shape[-1] // betas.shape[-1], axis=-1)
    return cols[..., :, None] * Z * cols[..., None, :]


def system_matched(HhY: np.ndarray, betas: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """G^H vec(Y) from the fading's matched filter H^H Y, (..., J*K, T).

    Column s of ``HhY`` is slot s; the result is beta (.) sum_s C_s^H (H^H Y)[:, s].
    """
    mf = sum(HhY[..., s] @ C.conj() for s, C in enumerate(maps))
    return np.repeat(betas, maps.shape[-1] // betas.shape[-1], axis=-1) * mf


def verify_exchangeability(
    H: np.ndarray, x: np.ndarray, params: GoldenParams = _DEFAULT
) -> float:
    """Residual of the rewrite identity, ||vec(H @ encode(x)) - Htilde @ x||."""
    H = np.asarray(H, dtype=complex)
    direct = vec(H @ encode(x, params))
    rewritten = equivalent_channel(H, params) @ np.asarray(x, dtype=complex)
    return float(np.linalg.norm(direct - rewritten))


def large_m_diagnostic(
    M: int, rng: np.random.Generator, params: GoldenParams = _DEFAULT
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
