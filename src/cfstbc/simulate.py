"""Deterministic Monte Carlo driver for BER and spectral-efficiency sweeps.

Every random draw flows through a substream keyed by (master_seed, trial,
BS index, user index, purpose), so trials are independent units whose
results do not depend on execution order. Sweeps add per-trial outputs
in trial order, window by window, which makes serial and parallel runs of
the same configuration bit-identical.

Each substream is numpy's ``PCG64(SeedSequence(key))`` stream of its key.
Building ~25 such generators a trial cost more than decoding it, so
``stream_states`` runs numpy's published SeedSequence hash and PCG64
seeding for every stream of a job's trials at once, and the job's draws
take turns on one generator set to each derived state. The streams are
exactly numpy's; only their set-up is batched.

One kernel serves both scenario families and both sweep kinds. Each BS
decodes in the Gram domain: the decoder's Gram matrix and matched filter
follow from the small fading products H^H H and H^H Y through the code's
fixed per-slot maps (see ``golden.slot_maps``). Each trial's M-sized draws
are reduced to those products at once; a job is then decoded in blocks of
trials as stacked (trials, L, n, n) arrays, so the per-call overhead is
paid once per block rather than once per trial.

No stream key holds the SNR or M, so a job, a range of trials, is drawn
once and decoded at every grid point (common random numbers). BER points
also share the fading products, Grams and, under ZF, inverses and margins.
SE points take their fading from the front of one draw at the largest M,
which equals their own M-sized draw. Each point's values are added in
trial order as a one-point sweep adds them, so sharing changes no output
bit.

A process keeps one pool of worker processes for all its parallel sweeps
(see ``_sweep``). The workers are forked by the first sweep that needs
them and keep the module state of that moment: a later change to a global
read inside a job, such as ``BLOCK_ELEMENTS`` or a kernel function, does
not reach them until ``_close_pool`` drops the pool. Sweeps are not meant
to run from several threads at once.

* Dual-antenna users send 4 symbols per two-slot block through the Golden
  code.
* Single-antenna users follow the plain one-slot model
  y = sqrt(rho) G x + w: an identity code map with an effective
  rho' = 2 rho, so both the detector scale sqrt(rho'/2) = sqrt(rho) and the
  MMSE regularizer 2/rho' = 1/rho match that model exactly.
"""

from __future__ import annotations

import ctypes
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelRealization, LargeScaleProfile, draw_large_scale, draw_noise
from .golden import encode, slot_maps, system_gram, system_matched
from .linalg import convergence_margins
from .metrics import (
    _NOISE_TERMS,
    NOISE_SNR_SCALED,
    BerEstimate,
    sinr_from_products,
    spectral_efficiency,
)
from .receiver import CONSTELLATIONS, Constellation, Inversion, detect

PURPOSES = {"beta": 1, "channel": 2, "noise": 3, "bits": 4}

# Trials per reduction window and, unless workers outnumber windows, per
# job; fixed so window boundaries (and therefore float reduction order)
# never depend on the worker count.
TRIAL_CHUNK = 256

# Complex entries (256 KiB) each stacked Gram-domain array of a block may
# hold; a block is as many trials as fit their L n x n matrices in it, so a
# job's memory does not grow with its trial count. Against a trial-by-trial
# decode, 2^16 raised the peak RSS of a full-scale point ~10 %, 2^14 < 2 %.
BLOCK_ELEMENTS = 2**14


class ConfigError(ValueError):
    """Invalid scenario configuration; carries every violation found."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):
        return type(self), (self.problems,)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (pcg64.h).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence splits an int into."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _padded(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of words, zero-padded to one width, and each row's length."""
    lengths = np.array([len(row) for row in rows])
    width = int(lengths.max())
    padded = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.uint32)
    return padded, lengths


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash step over uint32 arrays, with its running constant."""

    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seedsequence_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row.

    ``entropy`` is (N, W >= 4) uint32, each row zero-padded past its
    length. This is numpy's ``mix_entropy`` into a 4-word pool, then
    ``generate_state``, in uint32 array arithmetic, which wraps as the C
    original does; a row stops mixing in words at its own length.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        live = lengths > src
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], hashmix(entropy[:, src]))
            pool[dst] = np.where(live, mixed, pool[dst])
    out_hash = _hasher(_INIT_B, _MULT_B)
    state = np.empty((len(entropy), 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        state[:, i] = out_hash(pool[i % _POOL_SIZE])
    return state.view("<u8")


def _pcg64_state(words: np.ndarray) -> tuple[int, int]:
    """PCG64 (state, inc) seeded by SeedSequence's four uint64 words."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    # pcg64_set_seed: state = 0, inc = 2 seq + 1, step, add the seed, step
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    return (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc


def stream_states(
    master_seed: int, trials: Sequence[int], fields: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of the stream keyed (master_seed, trial, *field).

    One pair per trial and field, trial-major: each is the state
    ``np.random.PCG64(np.random.SeedSequence(key))`` starts from. The call
    derives every key's seed words in one vectorized pass and keeps them
    packed; each pair is made from its words when the iterator reaches it.
    The entropy words are the ones SeedSequence builds from the key tuple:
    each int's little-endian uint32 words, in field order.
    """
    head = _words(master_seed)
    trial_words, trial_len = _padded([_words(t) for t in trials])
    field_words, field_len = _padded([[w for v in f for w in _words(v)] for f in fields])
    T, S = len(trial_words), len(field_words)
    h, wt, wf = len(head), trial_words.shape[1], field_words.shape[1]
    entropy = np.zeros((T, S, max(_POOL_SIZE, h + wt + wf)), dtype=np.uint32)
    entropy[..., :h] = head
    entropy[..., h : h + wt] = trial_words[:, None]
    # a trial's field words start right after its own words
    at = h + trial_len[:, None, None] + np.arange(wf)
    np.put_along_axis(entropy, np.broadcast_to(at, (T, S, wf)), field_words[None], axis=2)
    lengths = h + trial_len[:, None] + field_len[None, :]
    words = _seedsequence_words(entropy.reshape(T * S, -1), lengths.reshape(-1))
    return map(_pcg64_state, words)


def _streams(
    master_seed: int, trials: Sequence[int], fields: Sequence[tuple[int, ...]]
) -> Iterator[np.random.Generator]:
    """One generator, set in turn to each stream of ``stream_states``.

    It is the same object each time: take a stream's draws before asking
    for the next stream.
    """
    bitgen = np.random.PCG64(0)  # every state it draws from is set below
    gen = np.random.Generator(bitgen)
    for state, inc in stream_states(master_seed, trials, fields):
        # as a fresh PCG64 would be: no half-word left over from the last
        # stream's 32-bit draws
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def trial_rng(
    master_seed: int, trial: int, l: int, k: int, purpose: str
) -> np.random.Generator:
    """Independent substream for one (trial, BS, user, purpose) key.

    The stream is numpy's ``default_rng(SeedSequence(key))`` of
    key = (master_seed, trial, l, k, PURPOSES[purpose]), which is
    collision-resistant and platform-stable; its state comes from
    ``stream_states``, the path every trial's draws take.
    """
    return next(_streams(master_seed, [trial], [(l, k, PURPOSES[purpose])]))


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
        if not 0 <= self.noise_scale < np.inf:
            problems.append(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.margin_trials < 1:
            problems.append(f"margin_trials must be >= 1, got {self.margin_trials}")
        if self.noise_term not in _NOISE_TERMS:
            problems.append(f"noise_term must be one of {_NOISE_TERMS}, got {self.noise_term!r}")
        if kind == "ber":
            if not self.snr_grid_db:
                problems.append("snr_grid_db must be non-empty for a BER sweep")
            if not np.isfinite(self.snr_grid_db).all():
                problems.append(f"snr_grid_db entries must be finite, got {self.snr_grid_db}")
            violation = self._rank_violation(self.M)
            if violation:
                problems.append(violation)
        elif kind == "se":
            if not self.m_grid:
                problems.append("m_grid must be non-empty for an SE sweep")
            if any(m < 1 for m in self.m_grid):
                problems.append(f"m_grid entries must be >= 1, got {self.m_grid}")
            if not 0 < self.rho_fixed < np.inf:
                problems.append(f"rho_fixed must be finite and positive, got {self.rho_fixed}")
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


class TrialDraws(NamedTuple):
    """Every random input of one trial, each drawn from its own stream."""

    channels: ChannelRealization  # (L, K, M, J) fading and (L, K) gains
    bits: np.ndarray | None  # (K, bits per user), BER trials only
    noise: np.ndarray | None  # (L, M, J) unit-variance noise, BER trials only


def _stream_fields(cfg: ScenarioConfig, ber: bool) -> list[tuple[int, int, int]]:
    """(BS, user, purpose) of every stream a trial draws, in draw order."""
    fields = [(0, 0, PURPOSES["beta"])]
    fields += [(l, k, PURPOSES["channel"]) for l in range(cfg.L) for k in range(cfg.K)]
    if ber:
        fields += [(0, k, PURPOSES["bits"]) for k in range(cfg.K)]
        fields += [(l, 0, PURPOSES["noise"]) for l in range(cfg.L)]
    return fields


def _draw(
    cfg: ScenarioConfig, m: int, ber: bool, streams: Iterator[np.random.Generator]
) -> tuple[LargeScaleProfile, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One trial's draws at m antennas from its next streams: the gains, the
    channel streams' normals and, for BER, the bits and noise.

    Each channel stream fills its row of one (L, K, 2 m J) buffer, scaled
    once; ``_fading`` cuts the fading of m or fewer antennas from it.
    """
    J = cfg.antennas_per_user
    profile = draw_large_scale(cfg.L, cfg.K, next(streams))
    normals = np.empty((cfg.L, cfg.K, 2 * m * J))
    for row in normals.reshape(cfg.L * cfg.K, -1):
        next(streams).standard_normal(out=row)
    if not np.isfinite(normals).all():
        raise ValueError("channel entries must be finite")
    normals *= np.sqrt(0.5)
    bits = noise = None
    if ber:
        bits = np.empty((cfg.K, cfg.bits_per_trial() // cfg.K), dtype=np.uint8)
        for k in range(cfg.K):
            bits[k] = next(streams).integers(0, 2, size=bits.shape[1])
        noise = np.empty((cfg.L, m, J), dtype=complex)
        for l in range(cfg.L):
            noise[l] = draw_noise(m, J, next(streams))
    return profile, normals, bits, noise


def _fading(normals: np.ndarray, m: int, J: int) -> np.ndarray:
    """X = H^T, the complex (L, K J, m) fading of m antennas, from ``_draw``'s normals.

    numpy's normals are a prefix of any longer draw, so an m's fading is
    its stream's first m J normals (real parts) and next m J (imaginary
    parts), as ``draw_small_scale(m, J, stream)`` draws them. Every copy
    runs along the antennas; user k's antenna j is row k J + j.
    """
    L, K, _ = normals.shape
    X = np.empty((L, K, J, m), dtype=complex)
    X.real, X.imag = normals[..., : 2 * m * J].reshape(L, K, 2, m, J).transpose(2, 0, 1, 4, 3)
    return X.reshape(L, K * J, m)


def draw_trial(cfg: ScenarioConfig, m: int, trial: int, ber: bool = True) -> TrialDraws:
    """Draw one trial: the beta stream, then one channel stream per (BS, user).

    BER trials add one bits stream per user and one noise stream per BS;
    noise has one slot per user antenna (the Golden code's two slots, or
    the single-antenna model's one). Each stream is ``trial_rng`` of its key.
    """
    streams = _streams(cfg.master_seed, [trial], _stream_fields(cfg, ber))
    profile, normals, bits, noise = _draw(cfg, m, ber, streams)
    h = _fading(normals, m, cfg.antennas_per_user).reshape(cfg.L, cfg.K, -1, m).swapaxes(2, 3)
    return TrialDraws(ChannelRealization(h, profile), bits, noise)


def _block(
    cfg: ScenarioConfig,
    maps: np.ndarray,
    points: tuple[tuple[int, float], ...],
    trials: range,
    streams: Iterator[np.random.Generator],
    pieces: Sequence[tuple[list, list[float]]],
    ber: bool,
) -> None:
    """Decode a block of trials at every (m, rho) point as stacked Gram-domain arrays.

    A BS decoder needs only Z = G^H G (plus the MMSE loading) and G^H y;
    both follow from the fading products R = H^H H and H^H Y through the
    code's slot ``maps``, so neither the stacked G nor the filter
    A = Z^-1 G^H is formed. Each trial is drawn once, at the largest m,
    from the job's next ``streams``. With X = H^T as ``_fading`` cuts it,
    R = conj(X) X^T and H^H W = conj(X) W.
    R, H^H W and Z are formed once per distinct m and serve every point
    with that m; so do the ZF inverse and margins. Each point's piece gets
    the per-trial values to add up (one bit-error count for the whole
    block, or each trial's SE summed over users) and each margin-sampled
    trial's margin sum over the BSs. Operation counts are not tallied here:
    a point's follow from the trial count (see ``_point_stats``).
    """
    dual = cfg.antennas_per_user == 2
    ms = list(dict.fromkeys(m for m, _ in points))
    betas, bits = [], []
    R, HhW = {m: [] for m in ms}, {m: [] for m in ms}
    for _ in trials:
        profile, normals, trial_bits, noise = _draw(cfg, max(ms), ber, streams)
        for m in ms:
            X = _fading(normals, m, cfg.antennas_per_user)
            Xc = X.conj()
            R[m].append(Xc @ X.swapaxes(1, 2))
            if ber:
                HhW[m].append(Xc @ (cfg.noise_scale * noise))
        betas.append(profile.betas)
        bits.append(trial_bits)
    betas = np.stack(betas)
    sampled = [i for i, t in enumerate(trials) if t < cfg.margin_trials]

    def inverse(Z: np.ndarray) -> tuple[np.ndarray, list[float]]:
        margins = []
        if sampled:
            # one eigen-solve over the sampled (S, L, n, n) stack; each
            # trial's margins are then added in BS order
            margins = [sum(row) for row in convergence_margins(Z[sampled]).tolist()]
        return cfg.inversion.invert(Z), margins

    if ber:
        const = cfg.constellation
        tx_bits = np.stack(bits)
        x = const.modulate(tx_bits.reshape(-1)).reshape(len(trials), cfg.K, -1)
        codes = encode(x) if dual else x[..., None]  # (trials, K, J, T)
        slots = codes.shape[-1]
        sent = (betas[..., None, None] * codes[:, None]).reshape(len(trials), cfg.L, -1, slots)

    for m in ms:
        R_m = np.stack(R.pop(m))
        z_raw = system_gram(R_m, betas, maps)  # (trials, L, n, n)
        if cfg.decoder == "zf":
            zinv, margins = inverse(z_raw)
        if ber:
            R_sent, HhW_m = R_m @ sent, np.stack(HhW.pop(m))
        for (point_m, rho), (values, point_margins) in zip(points, pieces):
            if point_m != m:
                continue
            rho_eff = rho if dual else 2.0 * rho
            if cfg.decoder == "mmse":
                zinv, margins = inverse(z_raw + (2.0 / rho_eff) * np.eye(z_raw.shape[-1]))
            point_margins.extend(margins)
            if not ber:
                ag = zinv @ z_raw  # A G per BS
                # diag(A A^H). np.multiply, not `*`: on a large block the operator
                # reuses the conj temporary in place and rounds differently.
                noise = np.sum(np.multiply(ag, zinv.conj()), axis=-1).real
                streams = sinr_from_products(ag, noise, rho_eff, cfg.noise_term)
                if dual:
                    # a running sum adds the users in order; np.sum would pair them
                    per_user = spectral_efficiency(streams.reshape(len(trials), cfg.K, 4))
                    values.extend(np.cumsum(per_user, axis=-1)[:, -1].tolist())
                else:
                    values.extend(np.sum(np.log2(1.0 + streams), axis=-1).tolist())
            else:
                HhY = np.sqrt(rho_eff / 2.0) * R_sent + HhW_m
                soft = np.einsum("tlij,tlj->ti", zinv, system_matched(HhY, betas, maps))
                gains = np.einsum("tlij,tlji->ti", zinv, z_raw)  # sum over l of diag(A_l G_l)
                rx_bits = const.demodulate(detect(soft, gains, rho_eff, const))
                values.append(int(np.count_nonzero(rx_bits != tx_bits.reshape(-1))))


def _chunk(
    cfg: ScenarioConfig, points: tuple[tuple[int, float], ...], lo: int, hi: int, ber: bool
) -> list[tuple[list, list[float]]]:
    """Trials lo..hi-1 at every (m, rho) point: each point's per-trial values
    and sampled trials' margins, unsummed and in trial order.

    The job's stream states are derived once; its blocks draw from them in turn."""
    maps = slot_maps(cfg.K, cfg.antennas_per_user)
    n = maps.shape[-1]
    block = max(1, BLOCK_ELEMENTS // (cfg.L * n * n))
    pieces = [([], []) for _ in points]
    streams = _streams(cfg.master_seed, range(lo, hi), _stream_fields(cfg, ber))
    for start in range(lo, hi, block):
        _block(cfg, maps, points, range(start, min(start + block, hi)), streams, pieces, ber)
    return pieces


def _ber_chunk(cfg: ScenarioConfig, snrs_db: tuple[float, ...], lo: int, hi: int) -> list:
    return _chunk(cfg, tuple((cfg.M, 10.0 ** (v / 10.0)) for v in snrs_db), lo, hi, ber=True)


def _se_chunk(cfg: ScenarioConfig, ms: tuple[int, ...], lo: int, hi: int) -> list:
    return _chunk(cfg, tuple((m, cfg.rho_fixed) for m in ms), lo, hi, ber=False)


def _fold(cfg: ScenarioConfig, pieces: Sequence[tuple[list, list[float]]]) -> dict:
    """One point's partial over a trial window: its pieces added in trial order."""
    part = {"total": 0, "margin_sum": 0.0, "margin_count": 0}
    for values, margins in pieces:
        for value in values:
            part["total"] += value
        for margin in margins:
            part["margin_sum"] += margin
        part["margin_count"] += cfg.L * len(margins)
    return part


def _point_stats(cfg: ScenarioConfig, partials: list[dict]) -> dict:
    """A point's margin mean, and its operation counts: every trial inverts
    L Grams of order n = 4K (dual-antenna users) or K."""
    count = sum(p["margin_count"] for p in partials)
    total = sum(p["margin_sum"] for p in partials)
    n = cfg.K * (4 if cfg.antennas_per_user == 2 else 1)
    mults, divs, adds = (cfg.trials * cfg.L * c for c in cfg.inversion.ops(n))
    return {
        "conv_margin_mean": total / count if count else float("nan"),
        "complex_mults": mults,
        "complex_divs": divs,
        "complex_adds": adds,
    }


def _ber_point(cfg: ScenarioConfig, snr_db: float, partials: list[dict]) -> BerPoint:
    estimate = BerEstimate.from_counts(
        sum(p["total"] for p in partials), cfg.trials * cfg.bits_per_trial()
    )
    return BerPoint(snr_db=snr_db, estimate=estimate, **_point_stats(cfg, partials))


def _se_point(cfg: ScenarioConfig, m: int, partials: list[dict]) -> SePoint:
    se_sum = sum(p["total"] for p in partials) / cfg.trials
    return SePoint(
        m=m, se_mean_per_user=se_sum / cfg.K, se_sum=se_sum, **_point_stats(cfg, partials)
    )


def _pin_heap() -> bool:
    """Keep freed arrays on this process's heap; False if its libc cannot.

    glibc would map each large array afresh, or trim the heap's free top, so a
    trial's arrays would fault their pages in on every trial. 32 MiB is glibc's
    64-bit ceiling for its dynamic mmap threshold, and trim is twice it. The CLI
    calls this and the pool runs it in each worker; a library caller is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on this process
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20))


# The process's pool as (size, executor), kept from one parallel sweep to
# the next; the stdlib's exit hook joins its workers at interpreter exit.
_pool: tuple[int, ProcessPoolExecutor] | None = None


def _close_pool() -> None:
    """Shut the kept pool down and join its workers; the next sweep forks anew."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _submit(size: int, calls: list[tuple]) -> list:
    """Futures of ``calls`` on the kept pool of ``size`` worker processes.

    A pool of another size, or one broken since the last sweep (a worker
    was killed), is shut down before its replacement is forked, so no fork
    happens while the old pool's threads run.
    """
    global _pool
    if _pool is not None and _pool[0] != size:
        _close_pool()
    if _pool is not None:
        try:
            return [_pool[1].submit(*call) for call in calls]
        except BrokenProcessPool:
            _close_pool()
    _pool = (size, ProcessPoolExecutor(max_workers=size, initializer=_pin_heap))
    return [_pool[1].submit(*call) for call in calls]


def _sweep(
    kind: str,
    cfg: ScenarioConfig,
    grid: Sequence,
    run_chunk: Callable,
    make_point: Callable,
    workers: int,
    progress: Callable | None,
) -> RunResult:
    """Run every trial-range job over the whole grid; reduce each point in trial order.

    No stream key holds a grid value, so a job draws its trials once and
    decodes them at every point. Each ``TRIAL_CHUNK`` window of trials is
    one job, or ⌈workers / windows⌉ contiguous ones when the sweep has
    fewer windows than workers, so no process idles; empty ranges are
    dropped. ``workers`` counts the caller, which runs jobs 0, workers,
    2 workers, ... itself while a pool of at most workers - 1 processes
    runs the rest; a sweep of one job starts no pool. Jobs return each
    point's per-trial values unsummed, and each window's are added in trial
    order, as a one-job window adds them, so the output is bit-identical
    whatever the split, serial or parallel. Progress calls come in grid
    order once every job is done.

    The pool is kept for the next sweep of the process (see ``_submit``).
    Its workers keep the module state of the sweep that forked them, so a
    test that patches a global read inside a job and then runs with
    ``workers > 1`` calls ``_close_pool`` first. On an error the pending
    jobs are cancelled and the running ones waited for, so the next sweep
    does not queue behind them. Sweeps are not meant to run from several
    threads at once.
    """
    problems = cfg.validate(kind)
    if problems:
        raise ConfigError(problems)
    start = time.perf_counter()
    windows = [(lo, min(lo + TRIAL_CHUNK, cfg.trials)) for lo in range(0, cfg.trials, TRIAL_CHUNK)]
    split = -(-workers // len(windows))
    cuts = [lo + i * (hi - lo) // split for lo, hi in windows for i in range(split)]
    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [cfg.trials]) if lo < hi]
    pooled = [i for i in range(len(ranges)) if i % workers]
    results = [None] * len(ranges)
    futures = []
    try:
        if pooled:
            calls = [(run_chunk, cfg, grid, *ranges[i]) for i in pooled]
            futures = _submit(min(workers - 1, len(pooled)), calls)
        for i in range(0, len(ranges), workers):
            results[i] = run_chunk(cfg, grid, *ranges[i])
        for i, future in zip(pooled, futures):
            results[i] = future.result()
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise
    partials = [[] for _ in grid]
    by_window = groupby(zip(ranges, results), key=lambda job: job[0][0] // TRIAL_CHUNK)
    for _, window in by_window:
        window = [pieces for _, pieces in window]
        for i, point in enumerate(partials):
            point.append(_fold(cfg, [pieces[i] for pieces in window]))
    points = tuple(make_point(cfg, v, p) for v, p in zip(grid, partials))
    if progress is not None:
        for point in points:
            progress(point)
    return RunResult(kind, cfg, points, time.perf_counter() - start)


def run_ber_sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    progress: Callable[[BerPoint], None] | None = None,
) -> RunResult:
    """Monte Carlo BER over the configured SNR grid.

    A trial's draws do not depend on the SNR, so each job draws its trials
    once and decodes them at every SNR point. ``workers > 1`` spreads the
    trial-range jobs over the caller and a pool of ``workers - 1``
    processes; results are identical to the serial run because each
    point's values are added in trial order.
    """
    grid = tuple(float(v) for v in cfg.snr_grid_db)
    return _sweep("ber", cfg, grid, _ber_chunk, _ber_point, workers, progress)


def run_se_sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    progress: Callable[[SePoint], None] | None = None,
) -> RunResult:
    """Mean spectral efficiency over the configured BS-antenna grid.

    Each trial's channel streams are drawn once, at the largest M, and every
    M of the grid takes its fading from the front of those draws (see
    ``_fading``), so each job decodes the whole grid as a BER job does.
    """
    grid = tuple(int(m) for m in cfg.m_grid)
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

    One curve is 2,500 trials at each of 11 SNRs: about 7-8 s serial and
    4-4.5 s with two workers on a 2-vCPU VM (README gives the command).
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
