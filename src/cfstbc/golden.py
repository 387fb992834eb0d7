"""Golden-code encoding and the equivalent-channel rewrite of the uplink.

The Golden code maps 4 symbols onto a 2x2 block sent from two antennas
over two slots. Its linear-dispersion structure lets the per-user model
Y = H X + W be rewritten as vec(Y) = Htilde x + vec(W), with vec stacking
columns (slot 1 above slot 2) and Htilde absorbing both the fading and the
code coefficients. Stacking the beta-scaled per-user blocks side by side
would give the full receive matrix G of one BS.

Because the rewrite is linear with fixed per-slot coefficients, the
decoders' inputs G^H G and G^H vec(Y) follow from the small fading
products H^H H and H^H Y (:func:`system_gram`, :func:`system_matched`);
the simulator works in that Gram domain and never forms G. The code's
slot maps stacked over the slots are unitary, so the diagonal of the
system Gram's inverse follows from the inverse of H^H H alone
(:func:`system_inverse_diagonal`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def system_inverse_diagonal(
    R_inv: np.ndarray, betas: np.ndarray, maps: np.ndarray
) -> np.ndarray:
    """diag(Z^-1) of the stacked system from the fading Gram's inverse R^-1, (..., S*K).

    Stacked over the slots, the maps form a unitary C = [C_1; ...; C_T], so
    Z = B C^H (I (x) R) C B, with B the diagonal of the user gains, gives
    diag(Z^-1) = beta^-2 (.) sum_s diag(C_s^H R^-1 C_s): the 2K x 2K inverse
    of R serves the 4K x 4K system.
    """
    diag = sum(np.sum(C.conj() * (R_inv @ C), axis=-2) for C in maps).real
    cols = np.repeat(betas, maps.shape[-1] // betas.shape[-1], axis=-1)
    return diag / (cols * cols)


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
    direct = (H @ encode(x, params)).reshape(-1, order="F")  # vec: slot 1 above slot 2
    rewritten = equivalent_channel(H, params) @ np.asarray(x, dtype=complex)
    return float(np.linalg.norm(direct - rewritten))
