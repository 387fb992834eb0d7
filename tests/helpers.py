"""Shared fixtures-in-spirit: seeded system draws and loop-level oracles."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotrs

from cfstbc import (
    NOISE_SNR_SCALED,
    NOISE_UNIT,
    DegenerateSinrError,
    SingularMatrixError,
    detect,
    encode,
    equivalent_channel,
    exact_inverse,
    neumann_inverse,
    neumann_r2,
    sinr_from_products,
    slot_maps,
    spectral_efficiency,
    system_gram,
    system_matched,
)
from cfstbc import simulate
from cfstbc.simulate import ScenarioConfig, _draw, _fading, _stream_fields, _streams
from reference import (
    ChannelRealization,
    convergence_margin,
    cpu_combine,
    draw_large_scale,
    draw_noise,
    draw_small_scale,
    mmse_matrix,
    per_bs_soft,
    received_block,
    sinr_streams,
    stack_system,
    vec,
    zf_matrix,
)


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def seedsequence_rng(key) -> np.random.Generator:
    """numpy's own stream of a key tuple: the oracle for the batched states."""
    return np.random.default_rng(np.random.SeedSequence(key))


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def kernel_draw(cfg: ScenarioConfig, m: int, ber: bool, streams):
    """``simulate._draw`` of one trial with its fading as (L, K, m, J): H_lk at [l, k]."""
    betas, normals, bits, noise = _draw(cfg, m, ber, streams)
    J = cfg.antennas_per_user
    h = _fading(normals, m, J).reshape(cfg.L, cfg.K, J, m).swapaxes(2, 3)
    return betas, h, bits, noise


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


def oracle_exact_inverse(Z: np.ndarray) -> np.ndarray:
    """LAPACK zpotrf + zpotrs per matrix: the inverse ``exact_inverse`` replaced.

    Raises :class:`SingularMatrixError` at zpotrf's failing pivot, or at the
    first row of L that is not finite when an infinite entry passes the
    factorization, in the first bad matrix of the stack.
    """
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[-1]
    eye = np.eye(n, dtype=complex)
    out = []
    for z in Z.reshape(-1, n, n):
        L, info = zpotrf(z, lower=True)
        if info == 0 and not np.isfinite(L).all():
            info = 1 + int(np.argmin(np.isfinite(L).all(axis=1)))
        if info > 0:
            raise SingularMatrixError(pivot=info - 1)
        out.append(zpotrs(L, eye, lower=True)[0])
    return np.stack(out).reshape(Z.shape)


# The counting inversions as they stood when ``cfstbc.linalg`` tallied its
# operations while it ran, frozen as the oracle for ``Inversion.ops``: each
# adds to its counter exactly what its ``linalg`` namesake added, summed
# over the matrices of the stack, and returns that namesake's result.


@dataclass
class FlopCounter:
    """Complex-operation tally; counts only grow."""

    complex_mults: int = 0
    complex_divs: int = 0
    complex_adds: int = 0

    def add(self, mults: int = 0, divs: int = 0, adds: int = 0) -> None:
        if mults < 0 or divs < 0 or adds < 0:
            raise ValueError("flop counts are non-decreasing")
        self.complex_mults += mults
        self.complex_divs += divs
        self.complex_adds += adds


def _stack_size(Z) -> tuple[int, int]:
    """The number of matrices in a (..., n, n) stack, and n."""
    shape = np.shape(Z)
    return int(np.prod(shape[:-2])), shape[-1]


def counted_exact_inverse(Z, counter: FlopCounter) -> np.ndarray:
    """The textbook dense Cholesky inverse's counts."""
    count, n = _stack_size(Z)
    Zinv = exact_inverse(Z)
    counter.add(
        mults=count * ((n**3 - n) // 6 + n**2 * (n - 1)),
        divs=count * (n * (n - 1) // 2 + 2 * n**2),
        adds=count * ((n**3 - n) // 6 + n**2 * (n - 1)),
    )
    return Zinv


def counted_neumann_inverse(Z, R: int, counter: FlopCounter) -> np.ndarray:
    """The generic series: n divides for D^-1, n(n-1) multiplies to scale E,
    and a dense product plus a matrix add per extra term."""
    count, n = _stack_size(Z)
    result = neumann_inverse(Z, R)
    counter.add(divs=count * n, mults=count * n * (n - 1))
    for _ in range(1, R):
        counter.add(mults=count * n**3, adds=count * (n**2 * (n - 1) + n**2))
    return result


def counted_neumann_r2(Z, counter: FlopCounter) -> np.ndarray:
    """The two-scaling form: n divides and 2n(n-1) multiplies."""
    count, n = _stack_size(Z)
    out = neumann_r2(Z)
    counter.add(divs=count * n, mults=count * 2 * n * (n - 1))
    return out


def counted_invert(inversion, Z, counter: FlopCounter) -> np.ndarray:
    """``inversion.invert(Z)``, dispatched as it was when it took a counter."""
    if inversion.method == "exact":
        return counted_exact_inverse(Z, counter)
    if inversion.order == 2:
        return counted_neumann_r2(Z, counter)
    return counted_neumann_inverse(Z, inversion.order, counter)


def random_hpd(n: int, seed: int, spread: float = 1.0) -> np.ndarray:
    """Random Hermitian positive definite matrix with moderate conditioning."""
    rng = seeded_rng(seed)
    Q = np.linalg.qr(random_complex(rng, n, n))[0]
    eigs = np.exp(spread * rng.uniform(-1.0, 1.0, n))
    return (Q * eigs) @ Q.conj().T


# Stacked-system trial oracles: each BS builds the 2M x 4K equivalent channel
# G and the 4K x 2M decoder A = Z^-1 G^H, the path the Gram-domain kernel in
# ``cfstbc.simulate`` replaced, one trial and one BS at a time. Same draws.


def _build_decoder(cfg: ScenarioConfig, G, rho: float, counter: FlopCounter):
    if cfg.decoder == "zf":
        dec = zf_matrix(G, cfg.inversion)
    else:
        dec = mmse_matrix(G, rho, cfg.inversion)
    counted_invert(cfg.inversion, dec.gram, counter)  # for its counts only
    return dec


def oracle_dual_trial(cfg, rho, trial, counter, want_margin):
    """One Golden-code block through the stacked chain; (errors, bits, margins)."""
    const = cfg.constellation
    draws = oracle_draw_trial(cfg, cfg.M, trial)
    channels = draws.channels
    tx_bits = draws.bits
    x = np.stack([const.modulate(tx_bits[k]) for k in range(cfg.K)])
    codes = encode(x)

    soft, gains, margins = [], [], []
    for l in range(cfg.L):
        noise = draws.noise[l]
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
    draws = oracle_draw_trial(cfg, cfg.M, trial)
    channels = draws.channels
    tx_bits = draws.bits
    x = np.concatenate([const.modulate(tx_bits[k]) for k in range(cfg.K)])
    rho_eff = 2.0 * rho

    soft, gains, margins = [], [], []
    for l in range(cfg.L):
        G = channels.h[l, :, :, 0].T * channels.profile.betas[l][None, :]
        w = draws.noise[l, :, 0]
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
    channels = oracle_draw_trial(cfg, m, trial, ber=False).channels
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


# Per-index SINR, one stream and one BS at a time: the oracle for the
# vectorized ``cfstbc.metrics.sinr_streams``.

NOISE_TERMS = (NOISE_SNR_SCALED, NOISE_UNIT)


def _check_index(a_mats, index):
    n = a_mats[0].shape[0]
    if not 0 <= index < n:
        raise IndexError(f"stream index {index} out of range for {n} streams")


def interference_noise_variance(a_mats, g_mats, rho, index, noise_term=NOISE_SNR_SCALED):
    """Interference-plus-noise power of stream ``index`` summed over BSs.

    Per BS: sum_{t != index} |(A G)_{index,t}|^2 for interference plus the
    squared norm of row ``index`` of A for noise, combined under the chosen
    noise-scaling convention.
    """
    if noise_term not in NOISE_TERMS:
        raise ValueError(f"noise_term must be one of {NOISE_TERMS}")
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


def sinr(a_mats, g_mats, rho, index, noise_term=NOISE_SNR_SCALED):
    """SINR of stream ``index``: desired power over interference-plus-noise."""
    _check_index(a_mats, index)
    desired = 0.0
    for A, G in zip(a_mats, g_mats):
        desired += np.abs(A[index] @ G[:, index]) ** 2
    denom = interference_noise_variance(a_mats, g_mats, rho, index, noise_term)
    if denom == 0.0:
        raise DegenerateSinrError(f"zero interference-plus-noise for stream {index}")
    return float(rho / 2.0 * desired / denom)


# The one-(m, rho) chunk kernel as it stood before a job's draws were shared
# across the SNR and M grids: every call redraws its trials at its own m, one
# ``draw_small_scale`` call per channel stream, and re-forms R, H^H W and Z.
# The oracle for ``cfstbc.simulate._chunk``, point by point.


class TrialDraws(NamedTuple):
    """Every random input of one trial, each drawn from its own stream."""

    channels: ChannelRealization  # (L, K, M, J) fading and (L, K) gains
    bits: np.ndarray | None  # (K, bits per user), BER trials only
    noise: np.ndarray | None  # (L, M, J) unit-variance noise, BER trials only


def _oracle_draw(cfg: ScenarioConfig, m: int, ber: bool, streams) -> TrialDraws:
    """One trial's draws at m, each from the next of its ``_stream_fields`` streams."""
    J = cfg.antennas_per_user
    profile = draw_large_scale(cfg.L, cfg.K, next(streams))
    fading = np.empty((cfg.L, m, cfg.K, J), dtype=complex)
    for l in range(cfg.L):
        for k in range(cfg.K):
            fading[l, :, k] = draw_small_scale(m, J, next(streams))
    channels = ChannelRealization(fading.transpose(0, 2, 1, 3), profile)
    if not ber:
        return TrialDraws(channels, None, None)
    bits = np.empty((cfg.K, cfg.bits_per_trial() // cfg.K), dtype=np.uint8)
    for k in range(cfg.K):
        bits[k] = next(streams).integers(0, 2, size=bits.shape[1])
    noise = np.empty((cfg.L, m, J), dtype=complex)
    for l in range(cfg.L):
        noise[l] = draw_noise(m, J, next(streams))
    return TrialDraws(channels, bits, noise)


def oracle_draw_trial(cfg: ScenarioConfig, m: int, trial: int, ber: bool = True) -> TrialDraws:
    """One trial's draws at m, each from numpy's own stream of its key."""
    streams = (
        seedsequence_rng((cfg.master_seed, trial, l, k, purpose))
        for l, k, purpose in _stream_fields(cfg, ber)
    )
    return _oracle_draw(cfg, m, ber, streams)


def _oracle_block(
    cfg: ScenarioConfig,
    maps: np.ndarray,
    m: int,
    rho: float,
    trials: range,
    counter: FlopCounter,
    ber: bool,
) -> tuple[list, list[float]]:
    """Decode a block of trials as stacked (trials, L, ...) Gram-domain arrays.

    A BS decoder needs only Z = G^H G (plus the MMSE loading) and G^H y;
    both follow from the fading products R = H^H H and H^H Y through the
    code's slot ``maps``, so neither the stacked G nor the filter
    A = Z^-1 G^H is formed. Returns the per-trial values to add up (one
    bit-error count for the whole block, or each trial's SE summed over
    users) and each margin-sampled trial's margin sum over the BSs.
    """
    dual = cfg.antennas_per_user == 2
    rho_eff = rho if dual else 2.0 * rho
    betas, R, bits, HhW = [], [], [], []
    streams = _streams(cfg.master_seed, trials, _stream_fields(cfg, ber))
    for t in trials:
        draws = _oracle_draw(cfg, m, ber, streams)
        H = draws.channels.h.transpose(0, 2, 1, 3).reshape(cfg.L, m, -1)  # (L, M, K*J), a view
        Hh = H.conj().swapaxes(1, 2)
        betas.append(draws.channels.profile.betas)
        R.append(Hh @ H)
        if ber:
            bits.append(draws.bits)
            HhW.append(Hh @ (cfg.noise_scale * draws.noise))
    betas, R = np.stack(betas), np.stack(R)
    z_raw = system_gram(R, betas, maps)  # (trials, L, n, n)
    Z = z_raw
    if cfg.decoder == "mmse":
        Z = z_raw + (2.0 / rho_eff) * np.eye(z_raw.shape[-1])
    zinv = counted_invert(cfg.inversion, Z, counter)
    margins = [
        sum(convergence_margin(z) for z in Z[i])
        for i, t in enumerate(trials)
        if t < cfg.margin_trials
    ]

    if not ber:
        ag = zinv @ z_raw  # A G per BS
        # diag(A A^H). np.multiply, not `*`: on a large block the operator
        # reuses the conj temporary in place and rounds differently.
        noise = np.sum(np.multiply(ag, zinv.conj()), axis=-1).real
        streams = sinr_from_products(ag, noise, rho_eff, cfg.noise_term)
        if dual:
            # a running sum adds the users in order; np.sum would pair them
            per_user = spectral_efficiency(streams.reshape(len(trials), cfg.K, 4))
            return np.cumsum(per_user, axis=-1)[:, -1].tolist(), margins
        return np.sum(np.log2(1.0 + streams), axis=-1).tolist(), margins

    const = cfg.constellation
    tx_bits = np.stack(bits)
    x = const.modulate(tx_bits.reshape(-1)).reshape(len(trials), cfg.K, -1)
    codes = encode(x) if dual else x[..., None]  # (trials, K, J, T)
    slots = codes.shape[-1]
    sent = (betas[..., None, None] * codes[:, None]).reshape(*R.shape[:2], -1, slots)
    HhY = np.sqrt(rho_eff / 2.0) * (R @ sent) + np.stack(HhW)
    soft = np.einsum("tlij,tlj->ti", zinv, system_matched(HhY, betas, maps))
    gains = np.einsum("tlij,tlji->ti", zinv, z_raw)  # sum over l of diag(A_l G_l)
    rx_bits = const.demodulate(detect(soft, gains, rho_eff, const))
    return [int(np.count_nonzero(rx_bits != tx_bits.reshape(-1)))], margins


def oracle_chunk(cfg: ScenarioConfig, m: int, rho: float, lo: int, hi: int, ber: bool):
    """Trials lo..hi-1, decoded in blocks and summed in trial order."""
    maps = slot_maps(cfg.K, cfg.antennas_per_user)
    n = maps.shape[-1]
    block = max(1, simulate.BLOCK_ELEMENTS // (cfg.L * n * n))
    counter = FlopCounter()
    total = 0
    margin_sum = 0.0
    margin_count = 0
    for start in range(lo, hi, block):
        trials = range(start, min(start + block, hi))
        values, margins = _oracle_block(cfg, maps, m, rho, trials, counter, ber)
        for value in values:
            total += value
        for margin in margins:
            margin_sum += margin
        margin_count += cfg.L * len(margins)
    return {
        "total": total,
        "margin_sum": margin_sum,
        "margin_count": margin_count,
        "mults": counter.complex_mults,
        "divs": counter.complex_divs,
        "adds": counter.complex_adds,
    }
