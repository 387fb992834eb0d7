"""Shared fixtures-in-spirit: seeded system draws and loop-level oracles."""

import numpy as np

from cfstbc import (
    FlopCounter,
    convergence_margin,
    cpu_combine,
    detect,
    draw_large_scale,
    draw_noise,
    draw_small_scale,
    encode,
    equivalent_channel,
    mmse_matrix,
    per_bs_soft,
    received_block,
    sinr_streams,
    spectral_efficiency,
    stack_system,
    trial_rng,
    vec,
    zf_matrix,
)
from cfstbc.simulate import ScenarioConfig, _draw_bits, _draw_channels


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def draw_system(M: int, K: int, seed: int) -> np.ndarray:
    """One beta-scaled stacked receive matrix (2M x 4K) from seeded draws."""
    rng = seeded_rng(seed)
    profile = draw_large_scale(1, K, rng)
    h_tildes = np.stack(
        [equivalent_channel(draw_small_scale(M, 2, rng)) for _ in range(K)]
    )
    return stack_system(h_tildes, profile.betas[0])


def gram_loop(G: np.ndarray) -> np.ndarray:
    """Entry-by-entry double-loop Gram product, the independent oracle."""
    rows, cols = G.shape
    Z = np.zeros((cols, cols), dtype=complex)
    for i in range(cols):
        for j in range(cols):
            acc = 0j
            for r in range(rows):
                acc += np.conj(G[r, i]) * G[r, j]
            Z[i, j] = acc
    return Z


def counted_cholesky_inverse(Z: np.ndarray):
    """Instrumented textbook Cholesky inverse counting every complex op.

    Factor Z = L L^H, then dense forward/back substitution against the
    identity. Returns (Z^{-1}, mults, divs, adds).
    """
    n = Z.shape[0]
    mults = divs = adds = 0
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        acc = Z[j, j]
        for k in range(j):
            acc = acc - L[j, k] * np.conj(L[j, k])
            mults += 1
            adds += 1
        L[j, j] = np.sqrt(acc.real)
        for i in range(j + 1, n):
            acc = Z[i, j]
            for k in range(j):
                acc = acc - L[i, k] * np.conj(L[j, k])
                mults += 1
                adds += 1
            L[i, j] = acc / L[j, j]
            divs += 1
    Y = np.zeros((n, n), dtype=complex)
    for col in range(n):
        for i in range(n):
            acc = 1.0 + 0j if i == col else 0j
            for k in range(i):
                acc = acc - L[i, k] * Y[k, col]
                mults += 1
                adds += 1
            Y[i, col] = acc / L[i, i]
            divs += 1
    X = np.zeros((n, n), dtype=complex)
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = Y[i, col]
            for k in range(i + 1, n):
                acc = acc - np.conj(L[k, i]) * X[k, col]
                mults += 1
                adds += 1
            X[i, col] = acc / np.conj(L[i, i])
            divs += 1
    return X, mults, divs, adds


def random_hpd(n: int, seed: int, spread: float = 1.0) -> np.ndarray:
    """Random Hermitian positive definite matrix with moderate conditioning."""
    rng = seeded_rng(seed)
    Q = np.linalg.qr(random_complex(rng, n, n))[0]
    eigs = np.exp(spread * rng.uniform(-1.0, 1.0, n))
    return (Q * eigs) @ Q.conj().T


# Stacked-system trial oracles: each BS builds the 2M x 4K equivalent channel
# G and the 4K x 2M decoder A = Z^-1 G^H, the path the Gram-domain kernel in
# ``cfstbc.simulate`` replaced. Same draws, same inversion calls.


def _build_decoder(cfg: ScenarioConfig, G, rho: float, counter: FlopCounter):
    if cfg.decoder == "zf":
        return zf_matrix(G, cfg.inversion, counter)
    return mmse_matrix(G, rho, cfg.inversion, counter)


def oracle_dual_trial(cfg, rho, trial, counter, want_margin):
    """One Golden-code block through the stacked chain; (errors, bits, margins)."""
    const = cfg.constellation
    channels = _draw_channels(cfg, cfg.M, trial)
    tx_bits = _draw_bits(cfg, trial, symbols_per_user=4)
    x = np.stack([const.modulate(tx_bits[k]) for k in range(cfg.K)])
    codes = encode(x)

    soft, gains, margins = [], [], []
    for l in range(cfg.L):
        noise = draw_noise(cfg.M, 2, trial_rng(cfg.master_seed, trial, l, 0, "noise"))
        if cfg.noise_scale != 1.0:
            noise = noise * cfg.noise_scale
        Y = received_block(channels, codes, rho, noise, l)
        G = stack_system(equivalent_channel(channels.h[l]), channels.profile.betas[l])
        dec = _build_decoder(cfg, G, rho, counter)
        s, gvec = per_bs_soft(dec, vec(Y))
        soft.append(s)
        gains.append(gvec)
        if want_margin:
            margins.append(convergence_margin(dec.gram))

    r, g = cpu_combine(soft, gains)
    rx_bits = const.demodulate(detect(r, g, rho, const))
    errors = int(np.count_nonzero(rx_bits != tx_bits.reshape(-1)))
    return errors, tx_bits.size, margins


def oracle_single_trial(cfg, rho, trial, counter, want_margin):
    """One slot of the single-antenna chain; (errors, bits, margins)."""
    const = cfg.constellation
    channels = _draw_channels(cfg, cfg.M, trial)
    tx_bits = _draw_bits(cfg, trial, symbols_per_user=1)
    x = np.concatenate([const.modulate(tx_bits[k]) for k in range(cfg.K)])
    rho_eff = 2.0 * rho

    soft, gains, margins = [], [], []
    for l in range(cfg.L):
        G = channels.h[l, :, :, 0].T * channels.profile.betas[l][None, :]
        w = draw_noise(cfg.M, 1, trial_rng(cfg.master_seed, trial, l, 0, "noise"))[:, 0]
        if cfg.noise_scale != 1.0:
            w = w * cfg.noise_scale
        y = np.sqrt(rho) * (G @ x) + w
        dec = _build_decoder(cfg, G, rho_eff, counter)
        s, gvec = per_bs_soft(dec, y)
        soft.append(s)
        gains.append(gvec)
        if want_margin:
            margins.append(convergence_margin(dec.gram))

    r, g = cpu_combine(soft, gains)
    rx_bits = const.demodulate(detect(r, g, rho_eff, const))
    errors = int(np.count_nonzero(rx_bits != tx_bits.reshape(-1)))
    return errors, tx_bits.size, margins


def oracle_se_trial(cfg, m, trial, counter, want_margin):
    """Per-user SE summed over users for one realization; (se, margins)."""
    rho = cfg.rho_fixed
    channels = _draw_channels(cfg, m, trial)
    a_mats, g_mats, margins = [], [], []
    dual = cfg.antennas_per_user == 2
    rho_machinery = rho if dual else 2.0 * rho
    for l in range(cfg.L):
        if dual:
            G = stack_system(
                equivalent_channel(channels.h[l]), channels.profile.betas[l]
            )
        else:
            G = channels.h[l, :, :, 0].T * channels.profile.betas[l][None, :]
        dec = _build_decoder(cfg, G, rho_machinery, counter)
        a_mats.append(dec.A)
        g_mats.append(G)
        if want_margin:
            margins.append(convergence_margin(dec.gram))
    streams = sinr_streams(a_mats, g_mats, rho_machinery, cfg.noise_term)
    if dual:
        se_total = sum(
            spectral_efficiency(streams[4 * k : 4 * k + 4]) for k in range(cfg.K)
        )
    else:
        se_total = float(np.sum(np.log2(1.0 + streams)))
    return se_total, margins
