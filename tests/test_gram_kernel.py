"""Gram-domain chunk kernel against the stacked-system oracles in helpers."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstbc import (
    Inversion,
    ScenarioConfig,
    SingularMatrixError,
    equivalent_channel,
    exact_inverse,
    slot_maps,
    system_gram,
    system_matched,
)
from cfstbc import simulate
from cfstbc.cli import main
from cfstbc.simulate import PURPOSES, _fold, _stream_fields, _streams
from helpers import (
    FlopCounter,
    kernel_draw,
    oracle_chunk,
    oracle_dual_trial,
    oracle_se_trial,
    oracle_single_trial,
    random_complex,
    seeded_rng,
    seedsequence_rng,
)
from reference import draw_large_scale, draw_noise, draw_small_scale, stack_system, vec


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestRewrite:
    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 40),
        K=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dual_gram_and_matched_filter_match_stacked_system(self, M, K, seed):
        rng = seeded_rng(seed)
        h = random_complex(rng, K, M, 2)
        betas = rng.uniform(0.0, 1.0, K)
        Y = random_complex(rng, M, 2)
        H = h.transpose(1, 0, 2).reshape(M, 2 * K)  # [H_1 ... H_K]
        G = stack_system(equivalent_channel(h), betas)
        maps = slot_maps(K, 2)
        Z = system_gram(H.conj().T @ H, betas, maps)
        mf = system_matched(H.conj().T @ Y, betas, maps)
        assert rel_err(Z, G.conj().T @ G) <= 1e-12
        assert rel_err(mf, G.conj().T @ vec(Y)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        M=st.integers(1, 40),
        K=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_antenna_uses_the_identity_map(self, M, K, seed):
        rng = seeded_rng(seed)
        H = random_complex(rng, M, K)
        betas = rng.uniform(0.0, 1.0, K)
        y = random_complex(rng, M)
        G = H * betas
        maps = slot_maps(K, 1)
        np.testing.assert_array_equal(maps, np.eye(K)[None])
        Z = system_gram(H.conj().T @ H, betas, maps)
        mf = system_matched((H.conj().T @ y)[:, None], betas, maps)
        assert rel_err(Z, G.conj().T @ G) <= 1e-12
        assert rel_err(mf, G.conj().T @ y) <= 1e-12

    def test_batched_over_base_stations(self):
        rng = seeded_rng(5)
        L, M, K = 3, 12, 2
        h = random_complex(rng, L, K, M, 2)
        betas = rng.uniform(0.0, 1.0, (L, K))
        H = h.transpose(0, 2, 1, 3).reshape(L, M, 2 * K)
        Z = system_gram(H.conj().swapaxes(1, 2) @ H, betas, slot_maps(K, 2))
        for l in range(L):
            G = stack_system(equivalent_channel(h[l]), betas[l])
            assert rel_err(Z[l], G.conj().T @ G) <= 1e-12


# (decoder, inversion, antennas per user): criterion 7's six desk sweeps.
CASES = [
    (decoder, inversion, antennas)
    for decoder in ("zf", "mmse")
    for inversion, antennas in (("exact", 2), ("neumann:2", 2), ("exact", 1))
]


def _config(decoder, inversion, antennas, **fields):
    return ScenarioConfig(
        decoder=decoder,
        inversion=Inversion.parse(inversion),
        antennas_per_user=antennas,
        modulation="bpsk" if antennas == 2 else "4qam",
        **fields,
    )


def _ops(chunk):
    return FlopCounter(chunk["mults"], chunk["divs"], chunk["adds"])


def _chunk(cfg, points, lo, hi, ber):
    """Each (m, rho) point's partial over trials lo..hi-1, as a sweep folds a
    one-job window, with the operation counts a sweep gives that many trials."""
    stats = simulate._point_stats(dataclasses.replace(cfg, trials=hi - lo), [])
    ops = {k: stats[f"complex_{k}"] for k in ("mults", "divs", "adds")}
    return [dict(_fold(cfg, [piece]), **ops) for piece in simulate._chunk(cfg, points, lo, hi, ber)]


@pytest.mark.parametrize("decoder,inversion,antennas", CASES)
def test_ber_trials_match_oracle(decoder, inversion, antennas):
    """Each trial run as a one-trial chunk at every SNR, against the per-BS stacked chain."""
    oracle = oracle_dual_trial if antennas == 2 else oracle_single_trial
    compared = 0
    snrs_db = (-10.0, 0.0, 10.0)
    rhos = tuple(10.0 ** (v / 10.0) for v in snrs_db)
    for seed in (0, 7, 2024):
        cfg = _config(
            decoder, inversion, antennas, L=4, M=64, K=4, master_seed=seed,
            margin_trials=2,
        )
        for t in range(6):
            chunks = _chunk(cfg, [(cfg.M, rho) for rho in rhos], t, t + 1, ber=True)
            for snr_db, rho, chunk in zip(snrs_db, rhos, chunks):
                want_ops = FlopCounter()
                want, bits, want_margins = oracle(cfg, rho, t, want_ops, t < 2)
                assert chunk["total"] == want, (seed, snr_db, t)
                assert bits == cfg.bits_per_trial()
                assert _ops(chunk) == want_ops
                assert chunk["margin_count"] == len(want_margins)
                assert abs(chunk["margin_sum"] - sum(want_margins)) <= 1e-12
                compared += want > 0
    assert compared > 0, "no trial had bit errors; the comparison is vacuous"


@pytest.mark.parametrize("decoder,inversion,antennas", CASES)
@pytest.mark.parametrize("noise_term", ["snr-scaled", "unit"])
def test_se_trials_match_oracle(decoder, inversion, antennas, noise_term):
    cfg = _config(
        decoder, inversion, antennas, L=4, K=10, rho_fixed=10.0,
        master_seed=808, noise_term=noise_term, margin_trials=1,
    )
    for m in (50, 200):
        for t in range(3):
            (chunk,) = _chunk(cfg, [(m, cfg.rho_fixed)], t, t + 1, ber=False)
            want_ops = FlopCounter()
            want, want_margins = oracle_se_trial(cfg, m, t, want_ops, t < 1)
            assert abs(chunk["total"] - want) <= 1e-12 * abs(want)
            assert _ops(chunk) == want_ops
            assert abs(chunk["margin_sum"] - sum(want_margins)) <= 1e-12


@pytest.mark.parametrize(
    "decoder,inversion,antennas,ber",
    [
        ("zf", "exact", 2, True),
        ("mmse", "neumann:2", 1, True),
        ("mmse", "exact", 2, False),
        ("zf", "exact", 2, False),
        ("zf", "exact", 1, False),
    ],
)
def test_blocks_do_not_change_a_chunk(monkeypatch, decoder, inversion, antennas, ber):
    """One trial a block gives the same chunk as the default blocks.

    Every field is also the in-order sum over the chunk's one-trial chunks,
    floats included: the per-trial values may not depend on the block.
    """
    cfg = _config(
        decoder, inversion, antennas, L=4, M=64, K=4, master_seed=31,
        margin_trials=40,
    )
    point = (cfg.M, 1.0 if ber else cfg.rho_fixed)
    (blocked,) = _chunk(cfg, [point], 0, 256, ber)
    assert blocked["total"] > 0, "nothing to compare"
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1)
    assert _chunk(cfg, [point], 0, 256, ber) == [blocked]
    singles = [_chunk(cfg, [point], t, t + 1, ber)[0] for t in range(256)]
    for name, value in blocked.items():
        assert value == sum(c[name] for c in singles), name
    # a float total can absorb a last-bit change; the per-trial values cannot
    maps = slot_maps(cfg.K, antennas)
    piece = ([], [])
    streams = simulate._streams(cfg.master_seed, range(256), simulate._stream_fields(cfg, ber))
    simulate._block(cfg, maps, [point], range(256), streams, [piece], ber)  # one 256-trial block
    values, margins = piece
    if not ber:
        assert values == [c["total"] for c in singles]
    assert margins == [c["margin_sum"] for c in singles[: cfg.margin_trials]]


def _hexed(chunk):
    return {k: v.hex() if isinstance(v, float) else v for k, v in chunk.items()}


@pytest.mark.parametrize("decoder", ["zf", "mmse"])
@pytest.mark.parametrize("inversion", ["exact", "neumann:2", "neumann:3"])
@pytest.mark.parametrize(
    "antennas,modulation",
    [(2, "bpsk"), (1, "4qam"), (2, "4qam")],
    ids=["dual-bpsk", "single-4qam", "dual-4qam"],
)
@pytest.mark.parametrize(
    "scale,snrs_db",
    [
        (dict(M=64, K=4), tuple(float(v) for v in range(-10, 12, 2))),
        (dict(M=128, K=10), (-10.0, -5.0, 0.0, 5.0, 10.0)),
    ],
    ids=["desk", "K10"],
)
def test_multi_rho_chunk_matches_one_rho_oracle(
    monkeypatch, decoder, inversion, antennas, modulation, scale, snrs_db
):
    """One chunk decoded at every SNR equals the one-SNR kernel, point by point.

    Blocks of 3 trials: the chunk spans three blocks and the margin sample
    ends inside the second, so shared and per-SNR values cross block edges.
    """
    cfg = ScenarioConfig(
        L=4, decoder=decoder, inversion=Inversion.parse(inversion),
        antennas_per_user=antennas, modulation=modulation, master_seed=61,
        margin_trials=5, **scale,
    )
    n = slot_maps(cfg.K, antennas).shape[-1]
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 3 * cfg.L * n * n)
    rhos = tuple(10.0 ** (v / 10.0) for v in snrs_db)
    chunks = _chunk(cfg, [(cfg.M, rho) for rho in rhos], 1, 9, ber=True)
    assert len(chunks) == len(rhos)
    for snr_db, rho, chunk in zip(snrs_db, rhos, chunks):
        assert _hexed(chunk) == _hexed(oracle_chunk(cfg, cfg.M, rho, 1, 9, ber=True)), snr_db
    assert chunks[0]["total"] > 0, "no bit errors; the comparison is vacuous"
    assert chunks[0]["margin_count"] == cfg.L * 4


@pytest.mark.parametrize("decoder", ["zf", "mmse"])
@pytest.mark.parametrize("inversion", ["exact", "neumann:2", "neumann:3"])
@pytest.mark.parametrize("antennas", [2, 1], ids=["dual", "single"])
def test_snr_grid_split_into_rho_stacks_matches_one_rho_oracle(
    monkeypatch, decoder, inversion, antennas
):
    """A block's SNR points decoded in several stacks of rho equal the one-SNR kernel.

    ``BLOCK_ELEMENTS`` is cut below one trial's Grams, so each block is one
    trial and each stack holds 4 of the 11 SNR points, the last 3.
    """
    cfg = _config(decoder, inversion, antennas, L=4, M=64, K=4, master_seed=62, margin_trials=5)
    n = slot_maps(cfg.K, antennas).shape[-1]
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 4 * n * max(cfg.L, 4))
    stacks = []

    def matched(HhY, betas, maps):
        assert HhY.size <= simulate.BLOCK_ELEMENTS
        stacks.append(len(HhY))
        return system_matched(HhY, betas, maps)

    monkeypatch.setattr(simulate, "system_matched", matched)
    snrs_db = tuple(float(v) for v in range(-10, 12, 2))
    rhos = tuple(10.0 ** (v / 10.0) for v in snrs_db)
    chunks = _chunk(cfg, [(cfg.M, rho) for rho in rhos], 1, 9, ber=True)
    assert stacks == [4, 4, 3] * 8
    for snr_db, rho, chunk in zip(snrs_db, rhos, chunks):
        assert _hexed(chunk) == _hexed(oracle_chunk(cfg, cfg.M, rho, 1, 9, ber=True)), snr_db
    assert chunks[0]["total"] > 0, "no bit errors; the comparison is vacuous"
    assert chunks[0]["margin_count"] == cfg.L * 4


@pytest.mark.parametrize("decoder", ["zf", "mmse"])
@pytest.mark.parametrize("inversion", ["exact", "neumann:2"])
@pytest.mark.parametrize("antennas", [2, 1], ids=["dual", "single"])
def test_multi_m_chunk_matches_one_m_oracle(monkeypatch, decoder, inversion, antennas):
    """One SE chunk decoded at every M equals the one-M kernel, point by point.

    The grid is unsorted and repeats an M, so the largest draw is not the
    first point's and two points share their Grams. Blocks of 3 trials, as
    in the multi-rho test above.
    """
    cfg = _config(
        decoder, inversion, antennas, L=4, K=10, rho_fixed=10.0, master_seed=808,
        margin_trials=5,
    )
    grid = (500, 100, 100, 60)
    n = slot_maps(cfg.K, antennas).shape[-1]
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 3 * cfg.L * n * n)
    chunks = _chunk(cfg, [(m, cfg.rho_fixed) for m in grid], 1, 9, ber=False)
    assert len(chunks) == len(grid)
    for m, chunk in zip(grid, chunks):
        want = oracle_chunk(cfg, m, cfg.rho_fixed, 1, 9, ber=False)
        assert _hexed(chunk) == _hexed(want), m
    assert chunks[1] == chunks[2]
    assert chunks[0]["margin_count"] == cfg.L * 4


@pytest.mark.parametrize("antennas", [1, 2])
def test_fading_is_the_front_of_a_longer_draw(antennas):
    """An m-antenna fading is cut from the front of its stream's longest draw.

    Sweeps draw each channel stream once, at the grid's largest M, and take
    every M's fading from the front of it. That holds only while numpy's
    normals are prefix-stable, so a numpy that broke it must fail here
    rather than change SE results silently: the m-antenna draw is compared
    bit for bit with the m-slice of a 40-antenna draw of the same stream,
    m J real parts, then m J imaginary parts.
    """
    cfg = ScenarioConfig(L=3, K=2, antennas_per_user=antennas, master_seed=99)
    t, J, longest = 5, antennas, 40
    for m in (1, 7, 40):
        streams = _streams(cfg.master_seed, [t], _stream_fields(cfg, ber=False))
        h = kernel_draw(cfg, m, False, streams)[1]
        for l in range(cfg.L):
            for k in range(cfg.K):
                rng = seedsequence_rng((cfg.master_seed, t, l, k, PURPOSES["channel"]))
                normals = np.sqrt(0.5) * rng.standard_normal(2 * longest * J)
                got = np.concatenate([h[l, k].real.ravel(), h[l, k].imag.ravel()])
                assert [v.hex() for v in got] == [v.hex() for v in normals[: 2 * m * J]]


@pytest.mark.parametrize("antennas", [1, 2])
def test_draw_reads_the_keyed_streams(antennas):
    """Every draw is numpy's own stream of its (seed, trial, BS, user, purpose) key."""
    cfg = ScenarioConfig(
        L=3, M=12, K=2, antennas_per_user=antennas, master_seed=99,
        modulation="4qam",
    )
    seed, t, J = cfg.master_seed, 5, antennas

    def rng(l, k, purpose):
        return seedsequence_rng((seed, t, l, k, PURPOSES[purpose]))

    def draw(ber):
        return kernel_draw(cfg, cfg.M, ber, _streams(seed, [t], _stream_fields(cfg, ber)))

    betas, h, bits, noise = draw(ber=True)
    want = draw_large_scale(cfg.L, cfg.K, rng(0, 0, "beta")).betas
    np.testing.assert_array_equal(betas, want)
    assert noise.shape == (cfg.L, cfg.M, J)
    for l in range(cfg.L):
        for k in range(cfg.K):
            want = draw_small_scale(cfg.M, J, rng(l, k, "channel"))
            np.testing.assert_array_equal(h[l, k], want)
        want = draw_noise(cfg.M, J, rng(l, 0, "noise"))
        np.testing.assert_array_equal(noise[l], want)
    per_user = cfg.bits_per_trial() // cfg.K
    for k in range(cfg.K):
        want = rng(0, k, "bits").integers(0, 2, size=per_user)
        np.testing.assert_array_equal(bits[k], want)
    assert bits.dtype == np.uint8
    se_betas, se_h, se_bits, se_noise = draw(ber=False)
    assert se_bits is None and se_noise is None
    np.testing.assert_array_equal(se_betas, betas)
    np.testing.assert_array_equal(se_h, h)


def _hexed_piece(piece, ber):
    """A piece with its floats as hex; BER values are per block, so their sum."""
    values, margins = piece
    values = [sum(values)] if ber else [v.hex() for v in values]
    return values, [v.hex() for v in margins]


@pytest.mark.parametrize("ber", [True, False], ids=["ber", "se"])
def test_streams_are_set_up_once_per_job(monkeypatch, ber):
    """A job derives its stream states in one pass, whatever its blocks.

    A K = 10 dual block holds 2 trials, so 16 trials are 8 blocks; each
    block takes its draws from the job's one stream iterator, and blocks of
    1, 2 or 3 trials give the same pieces bit for bit: every SE value and
    margin, and each BER point's error count.
    """
    cfg = _config(
        "zf", "exact", 2, L=4, M=24, K=10, rho_fixed=10.0, master_seed=412,
        margin_trials=5,
    )
    points = ((cfg.M, 0.5), (cfg.M, 5.0)) if ber else ((24, cfg.rho_fixed), (40, cfg.rho_fixed))
    calls, real = [], simulate.stream_states

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulate, "stream_states", counted)
    blocked = simulate._chunk(cfg, points, 0, 16, ber)
    assert len(calls) == 1
    assert list(calls[0][1]) == list(range(16))
    assert all(sum(values) > 0 for values, _ in blocked), "nothing to compare"
    n = slot_maps(cfg.K, 2).shape[-1]
    for trials in (1, 2, 3):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", trials * cfg.L * n * n)
        pieces = simulate._chunk(cfg, points, 0, 16, ber)
        want = [_hexed_piece(p, ber) for p in blocked]
        assert [_hexed_piece(p, ber) for p in pieces] == want, trials


class _NanNormals:
    """A generator whose in-place normals are NaN; its other draws are a real stream's."""

    def __init__(self):
        self.rng = np.random.default_rng(0)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.rng.standard_normal(size)
        out[...] = np.nan
        return out


@pytest.mark.parametrize("ber", [True, False], ids=["ber", "se"])
def test_nonfinite_fading_fails_in_the_kernel(monkeypatch, ber):
    """A NaN from a channel stream raises ValueError rather than reaching a decode."""
    cfg = _config("zf", "exact", 2, L=2, M=16, K=2, rho_fixed=10.0)
    stand_in = _NanNormals()
    monkeypatch.setattr(simulate, "_streams", lambda *args: itertools.repeat(stand_in))
    with pytest.raises(ValueError, match="finite"):
        simulate._chunk(cfg, ((cfg.M, 1.0),), 0, 3, ber)


@pytest.mark.parametrize("antennas", [2, 1], ids=["dual", "single"])
def test_singular_fading_raises_the_system_grams_pivot(monkeypatch, tmp_path, capsys, antennas):
    """Exact ZF SE inverts R = H^H H; when R is singular the block inverts Z
    instead, so the error carries Z's pivot, and ``cfstbc se`` exits 3.

    BS 1's fading rows of user 1 are zeroed from the second trial on; the
    first trial, the only one sampled for margins, stays regular. Both of a
    dual-antenna user's rows are zeroed: with one, Z's diagonal stays
    nonzero and its rounded Cholesky factorization can pass.
    """
    cfg = _config(
        "zf", "exact", antennas, L=2, K=3, rho_fixed=10.0, master_seed=5, margin_trials=1
    )
    m, rows = 8, slice(antennas, 2 * antennas)  # rows J k + j of user k = 1
    drawn, real_draw, real_fading = [], simulate._draw, simulate._fading

    def draw(*args):
        out = real_draw(*args)
        drawn.append([out[0]])
        return out

    def fading(normals, m, J):
        X = real_fading(normals, m, J)
        if len(drawn) > 1:
            X[1, rows] = 0.0
        drawn[-1].append(X)
        return X

    monkeypatch.setattr(simulate, "_draw", draw)
    monkeypatch.setattr(simulate, "_fading", fading)
    with pytest.raises(SingularMatrixError) as err:
        simulate._chunk(cfg, ((m, cfg.rho_fixed),), 0, 2, False)
    betas = np.stack([b for b, _ in drawn])
    X = np.stack([x for _, x in drawn])
    R = X.conj() @ X.swapaxes(-1, -2)
    with pytest.raises(SingularMatrixError) as want:
        exact_inverse(system_gram(R, betas, slot_maps(cfg.K, antennas)))
    with pytest.raises(SingularMatrixError) as fading_pivot:
        exact_inverse(R)
    assert err.value.pivot == want.value.pivot
    if antennas == 2:  # Z's pivot is not R's, so the comparison shows whose it is
        assert fading_pivot.value.pivot != want.value.pivot
    out = tmp_path / "never.csv"
    argv = f"se --L 2 --K 3 --user-antennas {antennas} --M-grid {m} --trials 2"
    argv += f" --margin-trials 1 --seed 5 --workers 1 --quiet --out {out}"
    drawn.clear()
    capsys.readouterr()
    assert main(argv.split()) == 3
    assert f"pivot at index {want.value.pivot}" in capsys.readouterr().err
