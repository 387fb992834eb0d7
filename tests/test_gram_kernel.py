"""Gram-domain trial kernel against the stacked-system oracles in helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstbc import (
    FlopCounter,
    Inversion,
    ScenarioConfig,
    equivalent_channel,
    slot_maps,
    stack_system,
    system_gram,
    system_matched,
    vec,
)
from cfstbc.simulate import _trial
from helpers import (
    oracle_dual_trial,
    oracle_se_trial,
    oracle_single_trial,
    random_complex,
    seeded_rng,
)


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


@pytest.mark.parametrize("decoder,inversion,antennas", CASES)
def test_ber_trials_match_oracle(decoder, inversion, antennas):
    oracle = oracle_dual_trial if antennas == 2 else oracle_single_trial
    compared = 0
    for seed in (0, 7, 2024):
        cfg = _config(decoder, inversion, antennas, L=4, M=64, K=4, master_seed=seed)
        maps = slot_maps(cfg.K, antennas)
        for snr_db in (-10.0, 0.0, 10.0):
            rho = 10.0 ** (snr_db / 10.0)
            for t in range(6):
                ops, want_ops = FlopCounter(), FlopCounter()
                errors, margins = _trial(cfg, maps, cfg.M, rho, t, ops, t < 2, ber=True)
                want, bits, want_margins = oracle(cfg, rho, t, want_ops, t < 2)
                assert errors == want, (seed, snr_db, t)
                assert bits == cfg.bits_per_trial()
                assert ops == want_ops
                np.testing.assert_allclose(margins, want_margins, rtol=0, atol=1e-12)
                compared += errors > 0
    assert compared > 0, "no trial had bit errors; the comparison is vacuous"


@pytest.mark.parametrize("decoder,inversion,antennas", CASES)
@pytest.mark.parametrize("noise_term", ["snr-scaled", "unit"])
def test_se_trials_match_oracle(decoder, inversion, antennas, noise_term):
    cfg = _config(
        decoder, inversion, antennas, L=4, K=10, rho_fixed=10.0,
        master_seed=808, noise_term=noise_term,
    )
    maps = slot_maps(cfg.K, antennas)
    for m in (50, 200):
        for t in range(3):
            ops, want_ops = FlopCounter(), FlopCounter()
            se, _ = _trial(cfg, maps, m, cfg.rho_fixed, t, ops, False, ber=False)
            want, _ = oracle_se_trial(cfg, m, t, want_ops, False)
            assert abs(se - want) <= 1e-12 * abs(want)
            assert ops == want_ops

