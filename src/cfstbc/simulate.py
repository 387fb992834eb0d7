"""Deterministic Monte Carlo driver for BER and spectral-efficiency sweeps.

Every random draw flows through a substream keyed by (master_seed, trial,
BS index, user index, purpose), so trials are independent units whose
results do not depend on execution order. Sweeps aggregate per-trial
outputs in fixed chunk order, which makes serial and parallel runs of the
same configuration bit-identical.

One trial kernel serves both scenario families and both sweep kinds. Each
BS decodes in the Gram domain: the decoder's Gram matrix and matched filter
follow from the small fading products H^H H and H^H Y through the code's
fixed per-slot maps (see ``golden.slot_maps``).

* Dual-antenna users send 4 symbols per two-slot block through the Golden
  code.
* Single-antenna users follow the plain one-slot model
  y = sqrt(rho) G x + w: an identity code map with an effective
  rho' = 2 rho, so both the detector scale sqrt(rho'/2) = sqrt(rho) and the
  MMSE regularizer 2/rho' = 1/rho match that model exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelRealization, draw_large_scale, draw_noise, draw_small_scale
from .golden import encode, slot_maps, system_gram, system_matched
from .linalg import FlopCounter, convergence_margin
from .metrics import (
    NOISE_SNR_SCALED,
    BerEstimate,
    sinr_from_products,
    spectral_efficiency,
)
from .receiver import CONSTELLATIONS, Constellation, Inversion, detect

PURPOSES = {"beta": 1, "channel": 2, "noise": 3, "bits": 4}

# Trials per work unit; fixed so chunk boundaries (and therefore float
# reduction order) never depend on the worker count.
TRIAL_CHUNK = 256


class ConfigError(ValueError):
    """Invalid scenario configuration; carries every violation found."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):
        return type(self), (self.problems,)


def trial_rng(
    master_seed: int, trial: int, l: int, k: int, purpose: str
) -> np.random.Generator:
    """Independent substream for one (trial, BS, user, purpose) key.

    Streams are derived through ``numpy.random.SeedSequence``, which is
    collision-resistant and platform-stable.
    """
    key = (master_seed, trial, l, k, PURPOSES[purpose])
    if 0 <= min(key) and max(key) <= 0xFFFFFFFF:
        # SeedSequence turns each such int into one uint32 word; handing it
        # the words directly gives the same stream at a third of the cost.
        key = np.array(key, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one sweep."""

    L: int = 4
    M: int = 64
    K: int = 4
    antennas_per_user: int = 2
    modulation: str = "bpsk"
    decoder: str = "zf"
    inversion: Inversion = field(default_factory=Inversion.exact)
    snr_grid_db: tuple[float, ...] = ()
    rho_fixed: float = 10.0
    m_grid: tuple[int, ...] = ()
    trials: int = 100
    master_seed: int = 0
    noise_scale: float = 1.0
    margin_trials: int = 128
    noise_term: str = NOISE_SNR_SCALED

    @property
    def constellation(self) -> Constellation:
        return CONSTELLATIONS[self.modulation]

    def bits_per_trial(self) -> int:
        """Payload bits carried by one code block (or slot) across all users."""
        bps = self.constellation.bits_per_symbol
        symbols = 4 if self.antennas_per_user == 2 else 1
        return self.K * symbols * bps

    def bits_per_user_per_slot(self) -> float:
        """Rate-fairness figure: payload bits per user per time slot."""
        bps = self.constellation.bits_per_symbol
        if self.antennas_per_user == 2:
            return 4 * bps / 2.0
        return float(bps)

    def _rank_violation(self, m: int) -> str | None:
        if self.decoder != "zf":
            return None
        if self.antennas_per_user == 2 and 2 * m < 4 * self.K:
            return (
                f"ZF with dual-antenna users needs 2M >= 4K, "
                f"got M={m}, K={self.K}"
            )
        if self.antennas_per_user == 1 and m < self.K:
            return f"ZF with single-antenna users needs M >= K, got M={m}, K={self.K}"
        return None

    def validate(self, kind: str) -> list[str]:
        """Collect every violation for a 'ber' or 'se' run (empty if valid)."""
        problems = []
        for name in ("L", "M", "K"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.antennas_per_user not in (1, 2):
            problems.append(
                f"antennas_per_user must be 1 or 2, got {self.antennas_per_user}"
            )
        if self.modulation not in CONSTELLATIONS:
            problems.append(
                f"modulation must be one of {sorted(CONSTELLATIONS)}, "
                f"got {self.modulation!r}"
            )
        if self.decoder not in ("zf", "mmse"):
            problems.append(f"decoder must be 'zf' or 'mmse', got {self.decoder!r}")
        if self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            problems.append(f"master_seed must be >= 0, got {self.master_seed}")
        if self.noise_scale < 0:
            problems.append(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.margin_trials < 1:
            problems.append(f"margin_trials must be >= 1, got {self.margin_trials}")
        if kind == "ber":
            if not self.snr_grid_db:
                problems.append("snr_grid_db must be non-empty for a BER sweep")
            violation = self._rank_violation(self.M)
            if violation:
                problems.append(violation)
        elif kind == "se":
            if not self.m_grid:
                problems.append("m_grid must be non-empty for an SE sweep")
            if self.rho_fixed <= 0:
                problems.append(f"rho_fixed must be positive, got {self.rho_fixed}")
            for m in self.m_grid:
                violation = self._rank_violation(m)
                if violation:
                    problems.append(violation)
                    break
        else:
            problems.append(f"unknown run kind {kind!r}")
        return problems

    def echo(self) -> dict[str, str]:
        """Flat string form of every field, for result metadata."""
        out = {}
        for name in (
            "L",
            "M",
            "K",
            "antennas_per_user",
            "modulation",
            "decoder",
        ):
            out[name] = str(getattr(self, name))
        out["inversion"] = self.inversion.label
        out["snr_grid_db"] = ",".join(f"{v:g}" for v in self.snr_grid_db)
        out["rho_fixed"] = f"{self.rho_fixed:g}"
        out["m_grid"] = ",".join(str(v) for v in self.m_grid)
        for name in ("trials", "master_seed", "noise_scale", "margin_trials"):
            out[name] = f"{getattr(self, name):g}"
        out["noise_term"] = self.noise_term
        return out


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    estimate: BerEstimate
    conv_margin_mean: float
    complex_mults: int
    complex_divs: int
    complex_adds: int


@dataclass(frozen=True)
class SePoint:
    m: int
    se_mean_per_user: float
    se_sum: float
    conv_margin_mean: float
    complex_mults: int
    complex_divs: int
    complex_adds: int


@dataclass(frozen=True)
class RunResult:
    kind: str
    config: ScenarioConfig
    points: tuple
    wall_time_s: float


def trials_for_bits(cfg: ScenarioConfig, target_bits: int) -> int:
    """Trials per grid point needed to accumulate at least ``target_bits``."""
    per_trial = cfg.bits_per_trial()
    return -(-target_bits // per_trial)


def _draw_channels(cfg: ScenarioConfig, m: int, trial: int) -> ChannelRealization:
    profile = draw_large_scale(
        cfg.L, cfg.K, trial_rng(cfg.master_seed, trial, 0, 0, "beta")
    )
    h = np.empty((cfg.L, cfg.K, m, cfg.antennas_per_user), dtype=complex)
    for l in range(cfg.L):
        for k in range(cfg.K):
            h[l, k] = draw_small_scale(
                m,
                cfg.antennas_per_user,
                trial_rng(cfg.master_seed, trial, l, k, "channel"),
            )
    return ChannelRealization(h=h, profile=profile)


def _draw_bits(cfg: ScenarioConfig, trial: int, symbols_per_user: int) -> np.ndarray:
    bps = cfg.constellation.bits_per_symbol
    bits = np.empty((cfg.K, symbols_per_user * bps), dtype=np.uint8)
    for k in range(cfg.K):
        rng = trial_rng(cfg.master_seed, trial, 0, k, "bits")
        bits[k] = rng.integers(0, 2, size=symbols_per_user * bps)
    return bits


def _trial(
    cfg: ScenarioConfig,
    maps: np.ndarray,
    m: int,
    rho: float,
    trial: int,
    counter: FlopCounter,
    want_margin: bool,
    ber: bool,
) -> tuple[float, list[float]]:
    """One trial, decoded per BS in the Gram domain and batched over the BSs.

    A BS decoder needs only Z = G^H G (plus the MMSE loading) and G^H y;
    both follow from the fading products R = H^H H and H^H Y through the
    code's slot ``maps``, so neither the stacked G nor the filter
    A = Z^-1 G^H is formed. BER trials return (bit errors, margins), SE
    trials (SE summed over users, margins).
    """
    dual = cfg.antennas_per_user == 2
    rho_eff = rho if dual else 2.0 * rho
    channels = _draw_channels(cfg, m, trial)
    betas = channels.profile.betas
    H = channels.h.transpose(0, 2, 1, 3).reshape(cfg.L, m, -1)  # (L, M, J*K)
    Hh = H.conj().swapaxes(1, 2)
    R = Hh @ H
    z_raw = system_gram(R, betas, maps)
    Z = z_raw
    if cfg.decoder == "mmse":
        Z = z_raw + (2.0 / rho_eff) * np.eye(z_raw.shape[-1])
    zinv = np.stack([cfg.inversion.invert(z, counter) for z in Z])
    margins = [convergence_margin(z) for z in Z] if want_margin else []

    if not ber:
        ag = zinv @ z_raw  # A G per BS
        noise = np.sum(ag * zinv.conj(), axis=-1).real  # diag(A A^H)
        streams = sinr_from_products(ag, noise, rho_eff, cfg.noise_term)
        if dual:
            se = sum(spectral_efficiency(s) for s in streams.reshape(cfg.K, 4))
            return se, margins
        return float(np.sum(np.log2(1.0 + streams))), margins

    const = cfg.constellation
    tx_bits = _draw_bits(cfg, trial, symbols_per_user=maps.shape[-1] // cfg.K)
    x = const.modulate(tx_bits.reshape(-1)).reshape(cfg.K, -1)
    codes = encode(x) if dual else x[:, :, None]  # (K, J, T)
    slots = codes.shape[-1]
    noise = cfg.noise_scale * np.stack(
        [
            draw_noise(m, slots, trial_rng(cfg.master_seed, trial, l, 0, "noise"))
            for l in range(cfg.L)
        ]
    )
    sent = (betas[:, :, None, None] * codes).reshape(cfg.L, -1, slots)
    HhY = np.sqrt(rho_eff / 2.0) * (R @ sent) + Hh @ noise
    soft = np.einsum("lij,lj->i", zinv, system_matched(HhY, betas, maps))
    gains = np.einsum("lij,lji->i", zinv, z_raw)  # sum over l of diag(A_l G_l)
    rx_bits = const.demodulate(detect(soft, gains, rho_eff, const))
    return int(np.count_nonzero(rx_bits != tx_bits.reshape(-1))), margins


def _chunk(cfg: ScenarioConfig, m: int, rho: float, lo: int, hi: int, ber: bool):
    maps = slot_maps(cfg.K, cfg.antennas_per_user)
    counter = FlopCounter()
    total = 0
    margin_sum = 0.0
    margin_count = 0
    for t in range(lo, hi):
        want_margin = t < cfg.margin_trials
        value, margins = _trial(cfg, maps, m, rho, t, counter, want_margin, ber)
        total += value
        margin_sum += sum(margins)
        margin_count += len(margins)
    return {
        "total": total,
        "margin_sum": margin_sum,
        "margin_count": margin_count,
        "mults": counter.complex_mults,
        "divs": counter.complex_divs,
        "adds": counter.complex_adds,
    }


def _ber_chunk(cfg: ScenarioConfig, snr_db: float, lo: int, hi: int) -> dict:
    return _chunk(cfg, cfg.M, 10.0 ** (snr_db / 10.0), lo, hi, ber=True)


def _se_chunk(cfg: ScenarioConfig, m: int, lo: int, hi: int) -> dict:
    return _chunk(cfg, m, cfg.rho_fixed, lo, hi, ber=False)


def _point_stats(partials: list[dict]) -> dict:
    count = sum(p["margin_count"] for p in partials)
    total = sum(p["margin_sum"] for p in partials)
    return {
        "conv_margin_mean": total / count if count else float("nan"),
        "complex_mults": sum(p["mults"] for p in partials),
        "complex_divs": sum(p["divs"] for p in partials),
        "complex_adds": sum(p["adds"] for p in partials),
    }


def _ber_point(cfg: ScenarioConfig, snr_db: float, partials: list[dict]) -> BerPoint:
    estimate = BerEstimate.from_counts(
        sum(p["total"] for p in partials), cfg.trials * cfg.bits_per_trial()
    )
    return BerPoint(snr_db=snr_db, estimate=estimate, **_point_stats(partials))


def _se_point(cfg: ScenarioConfig, m: int, partials: list[dict]) -> SePoint:
    se_sum = sum(p["total"] for p in partials) / cfg.trials
    return SePoint(
        m=m, se_mean_per_user=se_sum / cfg.K, se_sum=se_sum, **_point_stats(partials)
    )


def _sweep(
    kind: str,
    cfg: ScenarioConfig,
    grid: Sequence,
    run_chunk: Callable,
    make_point: Callable,
    workers: int,
    progress: Callable | None,
) -> RunResult:
    """Run every (grid point, chunk) pair and reduce each point in chunk order.

    A pool gets the whole grid at once, so no worker idles while a point
    with fewer chunks than workers finishes; results come back in
    submission order, so points and progress calls stay in grid order and
    parallel output is bit-identical to serial.
    """
    problems = cfg.validate(kind)
    if problems:
        raise ConfigError(problems)
    start = time.perf_counter()
    ranges = range(0, cfg.trials, TRIAL_CHUNK)
    jobs = [(v, lo, min(lo + TRIAL_CHUNK, cfg.trials)) for v in grid for lo in ranges]
    points = []
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        if executor is None:
            partials = (run_chunk(cfg, *job) for job in jobs)
        else:
            partials = executor.map(run_chunk, [cfg] * len(jobs), *zip(*jobs))
        for value in grid:
            point = make_point(cfg, value, [next(partials) for _ in ranges])
            points.append(point)
            if progress is not None:
                progress(point)
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    return RunResult(kind, cfg, tuple(points), time.perf_counter() - start)


def run_ber_sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    progress: Callable[[BerPoint], None] | None = None,
) -> RunResult:
    """Monte Carlo BER over the configured SNR grid.

    ``workers > 1`` spreads trial chunks over a process pool; results are
    identical to the serial run because partials are reduced in chunk order.
    """
    grid = [float(v) for v in cfg.snr_grid_db]
    return _sweep("ber", cfg, grid, _ber_chunk, _ber_point, workers, progress)


def run_se_sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    progress: Callable[[SePoint], None] | None = None,
) -> RunResult:
    """Mean spectral efficiency over the configured BS-antenna grid."""
    grid = [int(m) for m in cfg.m_grid]
    return _sweep("se", cfg, grid, _se_chunk, _se_point, workers, progress)


def desk_ber_config(**overrides) -> ScenarioConfig:
    """CI-speed BER scenario: M=64, K=4, L=4, -10..10 dB."""
    base = ScenarioConfig(
        L=4,
        M=64,
        K=4,
        snr_grid_db=tuple(float(v) for v in range(-10, 12, 2)),
        trials=200,
    )
    return replace(base, **overrides)


def full_ber_config(**overrides) -> ScenarioConfig:
    """Large BER scenario (M=256, K=10), not run in CI.

    One curve is 27,500 trials: about 2.4 minutes serial and 1.2 minutes
    with two workers on a 2-core Xeon VM.
    """
    base = ScenarioConfig(
        L=4,
        M=256,
        K=10,
        snr_grid_db=tuple(float(v) for v in range(-10, 12, 2)),
        trials=2500,
        inversion=Inversion.neumann(2),
    )
    return replace(base, **overrides)


def se_sweep_config(**overrides) -> ScenarioConfig:
    """SE-versus-M scenario: K=10, rho=10, M from 50 to 500."""
    base = ScenarioConfig(
        L=4,
        K=10,
        rho_fixed=10.0,
        m_grid=tuple(range(50, 550, 50)),
        trials=100,
    )
    return replace(base, **overrides)
