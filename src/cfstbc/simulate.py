"""Deterministic Monte Carlo driver for BER and spectral-efficiency sweeps.

Every random draw flows through a substream keyed by (master_seed, trial,
BS index, user index, purpose), so trials are independent units whose
results do not depend on execution order. Sweeps add per-trial outputs
in trial order, window by window, which makes serial and parallel runs of
the same configuration bit-identical.

Each substream is numpy's ``PCG64(SeedSequence(key))`` stream of its key.
Hashing ~25 such seeds a trial cost more than decoding it, so
``stream_states`` runs numpy's published SeedSequence hash for every
stream of a job's trials at once, and numpy seeds each stream's PCG64
from its derived words. The streams are exactly numpy's; only the
hashing is batched.

One kernel serves both scenario families and both sweep kinds. Each BS
decodes in the Gram domain: the decoder's Gram matrix and matched filter
follow from the small fading products H^H H and H^H Y through the code's
fixed per-slot maps (see ``golden.slot_maps``). Each trial's M-sized draws
are reduced to those products at once; a job is then decoded in blocks of
trials as stacked (trials, L, n, n) arrays, so the per-call overhead is
paid once per block rather than once per trial.

No stream key holds the SNR or M, so a job, a range of trials, is drawn
once and decoded at every grid point (common random numbers). BER points
also share the fading products and each Gram's factorization, and are
decoded in one stacked pass (see ``_block``). SE points take their fading
from the front of one draw at the largest M, which equals their own
M-sized draw. Exact ZF SE points invert no system Gram: A G = I, so the
SINR needs only diag(Z^-1), which the fading Gram's 2K x 2K inverse gives
(``golden.system_inverse_diagonal``). Each point's values are added in
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
import os
import time
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .golden import encode, slot_maps, system_gram, system_inverse_diagonal, system_matched
from .linalg import SingularMatrixError, convergence_margins
from .metrics import (
    _NOISE_TERMS,
    NOISE_SNR_SCALED,
    BerEstimate,
    sinr_from_powers,
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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


def stream_states(
    master_seed: int, trials: Sequence[int], fields: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Seed words of the stream keyed (master_seed, trial, *field).

    One row per trial and field, trial-major: row i is the
    ``np.random.SeedSequence(key).generate_state(4, np.uint64)`` that
    ``np.random.PCG64`` seeds the key's stream from, all derived in one
    vectorized pass. The entropy words are the ones SeedSequence builds
    from the key tuple: each int's little-endian uint32 words, in field order.
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
    return _seedsequence_words(entropy.reshape(T * S, -1), lengths.reshape(-1))


class _SeedWords(ISeedSequence):
    """A seed that hands PCG64 the four words ``stream_states`` derived for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words  # PCG64 asks for exactly these: 4 uint64 words


def _streams(
    master_seed: int, trials: Sequence[int], fields: Sequence[tuple[int, ...]]
) -> Iterator[np.random.Generator]:
    """numpy's own generator of each stream of ``stream_states``, in its order."""
    for words in stream_states(master_seed, trials, fields):
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def trial_rng(
    master_seed: int, trial: int, l: int, k: int, purpose: str
) -> np.random.Generator:
    """Independent substream for one (trial, BS, user, purpose) key.

    The stream is numpy's ``default_rng(SeedSequence(key))`` of
    key = (master_seed, trial, l, k, PURPOSES[purpose]), which is
    collision-resistant and platform-stable; its seed words come from
    ``stream_states``, the path every trial's draws take.
    """
    return next(_streams(master_seed, [trial], [(l, k, PURPOSES[purpose])]))


def _echo_number(value: float) -> str:
    """``value`` as ``:g`` prints it when that parses back to it, else in full."""
    text = f"{value:g}"
    return text if float(text) == value else str(value)


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

    def _rho_violation(self, name: str, values: Sequence[float], rhos: np.ndarray) -> str | None:
        """The entries of ``values`` whose linear SNR in ``rhos``, as the kernel
        scales it, is zero or not finite, or, under MMSE, whose loading 2/rho
        is not finite. numpy overflows to inf and underflows to 0 where the
        kernel's Python floats would raise."""
        with np.errstate(over="ignore", divide="ignore"):
            rho_eff = rhos * (1.0 if self.antennas_per_user == 2 else 2.0)
            loading = 2.0 / rho_eff
        ok = np.isfinite(rho_eff) & (rho_eff > 0)
        if self.decoder == "mmse":
            ok &= np.isfinite(loading)
        if ok.all():
            return None
        bad = [v for v, good in zip(values, ok) if not good]
        return f"{name} entries {bad} give a zero or non-finite rho or MMSE loading 2/rho"

    def validate(self, kind: str) -> list[str]:
        """Collect every violation for a 'ber', 'se' or 'diag' run (empty if valid).

        A diag run checks the common fields and the rank at M.
        """
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
            else:
                with np.errstate(over="ignore"):
                    rhos = 10.0 ** (np.asarray(self.snr_grid_db, dtype=float) / 10.0)
                violation = self._rho_violation("snr_grid_db", self.snr_grid_db, rhos)
                if violation:
                    problems.append(violation)
        elif kind == "se":
            if not self.m_grid:
                problems.append("m_grid must be non-empty for an SE sweep")
            if any(m < 1 for m in self.m_grid):
                problems.append(f"m_grid entries must be >= 1, got {self.m_grid}")
            if not 0 < self.rho_fixed < np.inf:
                problems.append(f"rho_fixed must be finite and positive, got {self.rho_fixed}")
            else:
                rho = (self.rho_fixed,)
                violation = self._rho_violation("rho_fixed", rho, np.array(rho, dtype=float))
                if violation:
                    problems.append(violation)
            for m in self.m_grid:
                violation = self._rank_violation(m)
                if violation:
                    problems.append(violation)
                    break
        elif kind != "diag":
            problems.append(f"unknown run kind {kind!r}")
        if kind in ("ber", "diag"):
            violation = self._rank_violation(self.M)
            if violation:
                problems.append(violation)
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
        out["snr_grid_db"] = ",".join(_echo_number(v) for v in self.snr_grid_db)
        out["rho_fixed"] = _echo_number(self.rho_fixed)
        out["m_grid"] = ",".join(str(v) for v in self.m_grid)
        for name in ("trials", "master_seed", "noise_scale", "margin_trials"):
            out[name] = _echo_number(getattr(self, name))
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One trial's draws at m antennas from its next streams: the (L, K)
    gains, the channel streams' normals and, for BER, the bits and noise.

    Each gain row is K uniforms sorted non-increasing. Each channel stream
    fills its row of one (L, K, 2 m J) buffer, scaled once; ``_fading``
    cuts the fading of m or fewer antennas from it. Each noise stream
    fills its row of one (L, 2 m J) buffer the same way: BS l's (m, J)
    noise is its row's first m J normals (real parts), then its next m J
    (imaginary parts).
    """
    J = cfg.antennas_per_user
    betas = np.sort(next(streams).random((cfg.L, cfg.K)), axis=1)[:, ::-1]
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
        parts = np.empty((cfg.L, 2 * m * J))
        for row in parts:
            next(streams).standard_normal(out=row)
        parts *= np.sqrt(0.5)
        noise = np.empty((cfg.L, m, J), dtype=complex)
        noise.real, noise.imag = parts.reshape(cfg.L, 2, m, J).swapaxes(0, 1)
    return betas, normals, bits, noise


def _fading(normals: np.ndarray, m: int, J: int) -> np.ndarray:
    """X = H^T, the complex (L, K J, m) fading of m antennas, from ``_draw``'s normals.

    numpy's normals are a prefix of any longer draw, so an m's fading is
    its stream's first m J normals (real parts) and next m J (imaginary
    parts), each laid out (m, J) as the noise is. Every copy runs along
    the antennas; user k's antenna j is row k J + j.
    """
    L, K, _ = normals.shape
    X = np.empty((L, K, J, m), dtype=complex)
    X.real, X.imag = normals[..., : 2 * m * J].reshape(L, K, 2, m, J).transpose(2, 0, 1, 4, 3)
    return X.reshape(L, K * J, m)


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
    with that m; so do the ZF inverse and margins. BER points share each
    Gram's factorization: the ZF inverse, the MMSE exact eigen-solve or the
    MMSE ``neumann:2`` split serves every loading 2/rho at O(n^2) a Gram
    (``Inversion.loaded``), and other Neumann orders invert per point. The
    points are then decoded together, in stacks of rho that keep each array
    within ``BLOCK_ELEMENTS``. MMSE margins, and each SE point's MMSE
    inverse, are solved per point. Exact ZF SE inverts R instead of Z:
    with A G = I the SINR has desired power L, no interference and noise
    sum_l diag(Z_l^-1), read off R^-1 through the code's unitary slot maps,
    and Z is formed only for the margin-sampled trials. A singular R, or a
    zero user gain, sends the point through Z's inversion, whose error then
    names Z's pivot. Each point's piece gets the per-trial
    values to add up (one bit-error count for the whole block, or each
    trial's SE summed over users) and each margin-sampled trial's margin
    sum over the BSs. Operation counts are not tallied here: a point's
    follow from the trial count (see ``_point_stats``) and still charge it
    the receiver's own inversion.
    """
    dual, zf = cfg.antennas_per_user == 2, cfg.decoder == "zf"
    ms = list(dict.fromkeys(m for m, _ in points))
    betas, bits = [], []
    R, HhW = {m: [] for m in ms}, {m: [] for m in ms}
    for _ in trials:
        trial_betas, normals, trial_bits, noise = _draw(cfg, max(ms), ber, streams)
        for m in ms:
            X = _fading(normals, m, cfg.antennas_per_user)
            Xc = X.conj()
            R[m].append(Xc @ X.swapaxes(1, 2))
            if ber:
                HhW[m].append(Xc @ (cfg.noise_scale * noise))
        betas.append(trial_betas)
        bits.append(trial_bits)
    betas = np.stack(betas)
    sampled = [i for i, t in enumerate(trials) if t < cfg.margin_trials]

    def margins(Z: np.ndarray) -> list[float]:
        # one eigen-solve over the sampled (S, L, n, n) stack; each trial's
        # margins are then added in BS order
        return [sum(row) for row in convergence_margins(Z).tolist()] if sampled else []

    if ber:
        const = cfg.constellation
        tx_bits = np.stack(bits).reshape(-1)
        x = const.modulate(tx_bits).reshape(len(trials), cfg.K, -1)
        codes = encode(x) if dual else x[..., None]  # (trials, K, J, T)
        slots = codes.shape[-1]
        sent = (betas[..., None, None] * codes[:, None]).reshape(len(trials), cfg.L, -1, slots)

    def se_values(sinrs: np.ndarray) -> list[float]:  # each trial's SE summed over users
        if dual:
            # a running sum adds the users in order; np.sum would pair them
            per_user = spectral_efficiency(sinrs.reshape(len(trials), cfg.K, 4))
            return np.cumsum(per_user, axis=-1)[:, -1].tolist()
        return np.sum(np.log2(1.0 + sinrs), axis=-1).tolist()

    closed_form = not ber and zf and cfg.inversion.method == "exact" and betas.all()
    for m in ms:
        R_m = np.stack(R.pop(m))
        at_m = [(rho if dual else 2.0 * rho, p) for (pm, rho), p in zip(points, pieces) if pm == m]
        z_inv_diag = None
        if closed_form:  # exact ZF SE: A G = I, and diag(Z^-1) comes from R^-1
            try:
                z_inv_diag = system_inverse_diagonal(cfg.inversion.invert(R_m), betas, maps)
            except SingularMatrixError:  # so is Z: its own inversion below raises its pivot
                pass
        if z_inv_diag is not None:
            zf_margins = margins(system_gram(R_m[sampled], betas[sampled], maps)) if sampled else []
            # the BSs added in order, as sinr_from_products adds them
            noise = sum(z_inv_diag[:, l] for l in range(cfg.L))
            for rho_eff, (values, sums) in at_m:
                sums.extend(zf_margins)
                sinrs = sinr_from_powers(cfg.L, 0.0, noise, rho_eff, cfg.noise_term)
                values.extend(se_values(sinrs))
            continue
        z_raw = system_gram(R_m, betas, maps)  # (trials, L, n, n)
        n = z_raw.shape[-1]
        eye = np.eye(n)
        if zf:
            zf_margins, zinv = margins(z_raw[sampled]), cfg.inversion.invert(z_raw)
        for rho_eff, (_, sums) in at_m:  # each sampled trial's margin sum
            sums.extend(zf_margins if zf else margins(z_raw[sampled] + (2.0 / rho_eff) * eye))
        if not ber:
            for rho_eff, (values, _) in at_m:
                if not zf:
                    loading = 2.0 / rho_eff
                    # times a power of two near the loading, which is exact and
                    # keeps A G from underflowing at a tiny rho
                    scale = np.ldexp(1.0, np.frexp(loading)[1])
                    zinv = cfg.inversion.invert(z_raw + loading * eye) * scale
                ag = zinv @ z_raw  # A G per BS
                # diag(A A^H). np.multiply, not `*`: on a large block the operator
                # reuses the conj temporary in place and rounds differently.
                noise = np.sum(np.multiply(ag, zinv.conj()), axis=-1).real
                sinrs = sinr_from_products(ag, noise, rho_eff, cfg.noise_term)
                values.extend(se_values(sinrs))
            continue
        if zf:
            gains = np.einsum("tlij,tlji->tli", zinv, z_raw)[..., None]  # diag(A_l G_l)
        else:
            solve = cfg.inversion.loaded(z_raw)
        R_sent, HhW_m = R_m @ sent, np.stack(HhW.pop(m))
        stack = max(1, BLOCK_ELEMENTS // (len(trials) * n * max(cfg.L, len(const.points))))
        for lo in range(0, len(at_m), stack):
            stacked = at_m[lo : lo + stack]
            rho = np.array([rho_eff for rho_eff, _ in stacked])
            HhY = np.sqrt(rho / 2.0)[:, None, None, None, None] * R_sent + HhW_m
            mf = system_matched(HhY, betas, maps)  # (rho, trials, L, n)
            Y = np.moveaxis(mf, 0, -1)  # (trials, L, n, rho), as are soft and gains
            soft, g = (zinv @ Y, gains) if zf else solve(2.0 / rho, Y)
            soft, g = (np.moveaxis(v.sum(axis=1), -1, 0) for v in (soft, g))
            rx_bits = const.demodulate(detect(soft, g, rho[:, None, None], const))
            errors = np.count_nonzero(rx_bits.reshape(len(rho), -1) != tx_bits, axis=1)
            for count, (_, (values, _)) in zip(errors.tolist(), stacked):
                values.append(count)


def _chunk(
    cfg: ScenarioConfig, points: tuple[tuple[int, float], ...], lo: int, hi: int, ber: bool
) -> list[tuple[list, list[float]]]:
    """Trials lo..hi-1 at every (m, rho) point: each point's per-trial values
    and sampled trials' margins, unsummed and in trial order.

    The job's stream seeds are derived once; its blocks draw from them in turn."""
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
    calls this once per process and each pool worker at its start; a library
    caller is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on this process
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20))


class _RemoteTraceback(Exception):
    """A worker's formatted traceback: the cause of its error, re-raised in the caller."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _serve(conn, inherited: list, stop, cpu: int | None) -> None:
    """A pool worker: run each list of calls it is sent and reply once per list.

    The reply is (results, None), or (results so far, (exception, formatted
    traceback)) when a call failed; a failed call sets ``stop``, and a set
    ``stop`` ends any worker's list after its current call. The worker exits
    when it reads EOF, that is, when the caller drops the pool or dies; it
    therefore first closes the caller's pipe ends it inherited at the fork.
    """
    import signal
    import traceback

    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    _pin_heap()
    while True:
        try:
            calls = conn.recv()
        except EOFError:
            return
        results, error = [], None
        for fn, *args in calls:
            if stop.is_set() or conn.poll():  # a job failed, or the caller is gone (EOF)
                break
            try:
                results.append(fn(*args))
            except BaseException as exc:
                stop.set()
                error = (exc, traceback.format_exc())
                break
        try:
            conn.send((results, error))
        except OSError:  # the caller is gone
            return


class _Pool:
    """Kept worker processes, each fed over its own pipe.

    ``cpus`` is empty, or the CPUs of a sweep whose processes fill them
    exactly: the caller's first, then one for each worker, which pins
    itself to it. ``busy`` is set from ``send`` until ``gather`` has read
    every reply.
    """

    def __init__(self, size: int, cpus: tuple[int, ...]):
        import multiprocessing

        self.cpus = cpus
        self.stop = multiprocessing.Event()
        self.procs, self.conns = [], []
        self.busy = False
        for i in range(size):
            ours, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_serve,
                args=(theirs, self.conns + [ours], self.stop, cpus[i + 1] if cpus else None),
                daemon=True,
            )
            proc.start()
            theirs.close()
            self.procs.append(proc)
            self.conns.append(ours)

    def usable(self, size: int, cpus: tuple[int, ...]) -> bool:
        fits = size == len(self.procs) and cpus == self.cpus
        return fits and not self.busy and all(p.is_alive() for p in self.procs)

    def send(self, shares: list[list[tuple]]) -> None:
        """Send worker w its list of calls ``shares[w]``, one message each."""
        self.busy = True
        for proc, conn, calls in zip(self.procs, self.conns, shares):
            try:
                conn.send(calls)
            except OSError:  # it died after the pool was checked
                self._lost(proc)

    def _lost(self, proc) -> None:
        _close_pool()
        raise RuntimeError(
            f"pool worker {proc.pid} died mid-sweep (exit code {proc.exitcode}); "
            "the next parallel sweep forks a new pool"
        )

    def gather(self) -> list[list]:
        """Every worker's list of results, once all replies are in.

        A worker's error is raised with the worker's traceback as its cause;
        a worker that died mid-sweep drops the pool and raises RuntimeError.
        """
        replies = []
        for conn in self.conns:
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):  # the worker died
                self.stop.set()
                replies.append(None)
        self.busy = False
        self.stop.clear()
        if None in replies:
            self._lost(self.procs[replies.index(None)])
        for _, error in replies:
            if error is not None:
                exc, text = error
                raise exc from _RemoteTraceback(text)
        return [results for results, _ in replies]

    def cancel(self) -> None:
        """Stop the workers after their current call and drop their replies."""
        self.stop.set()
        try:
            self.gather()
        except Exception:  # the sweep's own error is the one to report
            pass

    def close(self) -> None:
        """Close the pipes, so each worker reads EOF and exits, and join the workers."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join()


# The process's pool, kept from one parallel sweep to the next; its workers
# are daemons, which multiprocessing's exit hook stops at interpreter exit.
_pool: _Pool | None = None


def _close_pool() -> None:
    """Drop the kept pool and join its workers; the next parallel sweep forks anew."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.close()


def _pinned_cpus(workers: int) -> tuple[int, ...]:
    """This thread's CPUs, sorted, if a sweep's ``workers`` processes fill them
    exactly and the platform can pin; otherwise none."""
    if not hasattr(os, "sched_setaffinity"):
        return ()
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    return cpus if workers == len(cpus) > 1 else ()


def _kept_pool(size: int, cpus: tuple[int, ...]) -> _Pool:
    """The kept pool of ``size`` workers pinned to ``cpus``, forked anew if the
    kept one has another key, a dead worker, or replies left unread."""
    global _pool
    if _pool is not None and not _pool.usable(size, cpus):
        _close_pool()
    if _pool is None:
        _pool = _Pool(size, cpus)
    return _pool


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
    runs the rest, worker w the pooled jobs w, w + size, ...; a sweep of
    one job starts no pool. Jobs return each point's per-trial values
    unsummed, and each window's are added in trial order, as a one-job
    window adds them, so the output is bit-identical whatever the split,
    serial or parallel. Progress calls come in grid order once every job
    is done.

    When ``workers`` equals this thread's CPU count (above one), the caller
    runs its share pinned to the first CPU and each worker is pinned to one
    of the others, so no two of the sweep's processes share a CPU; the
    caller's mask is restored afterwards.

    The pool is kept for the next sweep of the process (see ``_kept_pool``).
    Its workers keep the module state of the sweep that forked them, so a
    test that patches a global read inside a job and then runs with
    ``workers > 1`` calls ``_close_pool`` first. When a job fails, in the
    caller or a worker, the workers stop after their current job and the
    caller reads every reply before it raises, so the next sweep finds the
    pool idle. Sweeps are not meant to run from several threads at once.
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
    pool = None
    if pooled:
        size = min(workers - 1, len(pooled))
        pool = _kept_pool(size, _pinned_cpus(workers))
        pool.send([[(run_chunk, cfg, grid, *ranges[i]) for i in pooled[w::size]] for w in range(size)])
    pinned = pool is not None and pool.cpus
    try:
        if pinned:
            os.sched_setaffinity(0, pool.cpus[:1])
        for i in range(0, len(ranges), workers):
            results[i] = run_chunk(cfg, grid, *ranges[i])
    except BaseException:
        if pool is not None:
            pool.cancel()
        raise
    finally:
        if pinned:
            os.sched_setaffinity(0, pool.cpus)  # the mask _pinned_cpus read
    if pool is not None:
        for w, share in enumerate(pool.gather()):
            for i, result in zip(pooled[w::size], share):
                results[i] = result
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

    One curve is 2,500 trials at each of 11 SNRs: about 4-5.5 s serial and
    2.8-3.2 s with two workers on a 2-vCPU VM (README gives the command).
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
