import numpy as np
import pytest
from scipy.special import erfc

from cfstbc import (
    BPSK,
    NOISE_SNR_SCALED,
    NOISE_UNIT,
    DegenerateSinrError,
    Inversion,
    detect,
    spectral_efficiency,
)
from helpers import (
    draw_system,
    interference_noise_variance,
    random_complex,
    seeded_rng,
    sinr,
)
from reference import (
    ber_accumulate,
    sinr_profile,
    sinr_streams,
    zf_matrix,
)


def build_bss(M, K, L, base_seed, inversion=None):
    """Per-BS decoder and system matrices for a seeded multi-BS instance."""
    inversion = inversion or Inversion.exact()
    a_mats, g_mats = [], []
    for l in range(L):
        G = draw_system(M=M, K=K, seed=base_seed + l)
        a_mats.append(zf_matrix(G, inversion).A)
        g_mats.append(G)
    return a_mats, g_mats


def variance_loop(a_mats, g_mats, rho, index, noise_term):
    """Explicit full-product, double-sum evaluation of the variance."""
    interference = 0.0
    noise = 0.0
    for A, G in zip(a_mats, g_mats):
        P = A @ G
        for t in range(P.shape[1]):
            if t != index:
                interference += abs(P[index, t]) ** 2
        for m in range(A.shape[1]):
            noise += abs(A[index, m]) ** 2
    if noise_term == NOISE_SNR_SCALED:
        return rho / 2.0 * (interference + noise)
    return rho / 2.0 * interference + noise


def empirical_nisum(a_mats, g_mats, rho, index, draws, seed):
    """Monte Carlo oracle: mean over draws of sum_l |per-BS N/I component|^2.

    Symbols are unit-variance QPSK-like complex values, noise is CN(0, 1);
    the desired term is stripped per BS and the leftover power summed.
    """
    rng = seeded_rng(seed)
    n = g_mats[0].shape[1]
    total = 0.0
    block = 20_000
    done = 0
    while done < draws:
        b = min(block, draws - done)
        x = np.sqrt(0.5) * (
            rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        )  # unit-variance symbols
        acc = np.zeros(b)
        for A, G in zip(a_mats, g_mats):
            w = np.sqrt(0.5) * (
                rng.standard_normal((A.shape[1], b))
                + 1j * rng.standard_normal((A.shape[1], b))
            )
            s = A @ (np.sqrt(rho / 2.0) * (G @ x) + w)
            desired = np.sqrt(rho / 2.0) * (A[index] @ G[:, index]) * x[index]
            acc += np.abs(s[index] - desired) ** 2
        total += acc.sum()
        done += b
    return total / draws


class TestBerAccumulate:
    def test_identical_streams(self):
        bits = seeded_rng(0).integers(0, 2, 500)
        est = ber_accumulate(bits, bits)
        assert est.ber == 0.0 and est.bit_errors == 0
        assert est.confidence_halfwidth == 0.0

    def test_complementary_streams(self):
        bits = seeded_rng(1).integers(0, 2, 400)
        est = ber_accumulate(bits, 1 - bits)
        assert est.ber == 1.0

    def test_injected_errors(self):
        tx = np.zeros(1000, dtype=np.uint8)
        rx = tx.copy()
        rx[[3, 97, 400, 555, 980]] = 1
        est = ber_accumulate(tx, rx)
        assert est.ber == pytest.approx(0.005)
        assert est.bit_errors == 5 and est.bits_total == 1000
        expected_hw = 1.96 * np.sqrt(0.005 * 0.995 / 1000)
        assert est.confidence_halfwidth == pytest.approx(expected_hw)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ber_accumulate(np.zeros(3), np.zeros(4))


class TestSpectralEfficiency:
    def test_zero_sinr(self):
        assert spectral_efficiency([0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_unit_sinr(self):
        assert spectral_efficiency([1.0] * 4) == pytest.approx(2.0)

    def test_sinr_three(self):
        assert spectral_efficiency([3.0] * 4) == pytest.approx(4.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral_efficiency([1.0, -0.1, 1.0, 1.0])

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            spectral_efficiency([1.0, 2.0])

    def test_monotone_in_each_argument(self):
        base = spectral_efficiency([1.0, 2.0, 3.0, 4.0])
        for i in range(4):
            bumped = [1.0, 2.0, 3.0, 4.0]
            bumped[i] += 0.5
            assert spectral_efficiency(bumped) > base


class TestInterferenceNoiseVariance:
    def test_orthonormal_single_user_kills_interference(self):
        Q = np.linalg.qr(random_complex(seeded_rng(2), 12, 4))[0]
        dec = zf_matrix(Q, Inversion.exact())
        rho = 6.0
        value = interference_noise_variance([dec.A], [Q], rho, 0)
        # A @ G = I here, so only the noise row norm survives
        expected = rho / 2.0 * np.sum(np.abs(dec.A[0]) ** 2)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_rho_zero_edge_both_conventions(self):
        a_mats, g_mats = build_bss(M=8, K=1, L=1, base_seed=3)
        scaled = interference_noise_variance(a_mats, g_mats, 0.0, 0, NOISE_SNR_SCALED)
        unit = interference_noise_variance(a_mats, g_mats, 0.0, 0, NOISE_UNIT)
        assert scaled == 0.0
        assert unit == pytest.approx(np.sum(np.abs(a_mats[0][0]) ** 2))

    def test_matches_explicit_loop(self):
        a_mats, g_mats = build_bss(M=16, K=2, L=3, base_seed=4, inversion=Inversion.neumann(2))
        for index in (0, 3, 7):
            for term in (NOISE_SNR_SCALED, NOISE_UNIT):
                got = interference_noise_variance(a_mats, g_mats, 3.0, index, term)
                want = variance_loop(a_mats, g_mats, 3.0, index, term)
                assert got == pytest.approx(want, rel=1e-12)

    def test_conventions_coincide_at_rho_two(self):
        a_mats, g_mats = build_bss(M=16, K=2, L=2, base_seed=5, inversion=Inversion.neumann(2))
        scaled = interference_noise_variance(a_mats, g_mats, 2.0, 1, NOISE_SNR_SCALED)
        unit = interference_noise_variance(a_mats, g_mats, 2.0, 1, NOISE_UNIT)
        assert scaled == pytest.approx(unit, rel=1e-12)

    def test_monte_carlo_oracle_unit_variant(self):
        # the unit-noise convention equals the physical variance at any rho
        a_mats, g_mats = build_bss(M=16, K=2, L=2, base_seed=6, inversion=Inversion.neumann(2))
        rho = 10.0
        analytic = interference_noise_variance(a_mats, g_mats, rho, 2, NOISE_UNIT)
        empirical = empirical_nisum(a_mats, g_mats, rho, 2, draws=100_000, seed=7)
        assert abs(empirical - analytic) < 0.03 * analytic

    def test_index_out_of_range(self):
        a_mats, g_mats = build_bss(M=8, K=1, L=1, base_seed=8)
        with pytest.raises(IndexError):
            interference_noise_variance(a_mats, g_mats, 1.0, 4)


class TestSinr:
    def test_unit_plugin_case(self):
        # AG = I and unit noise row norm make numerator equal denominator
        Q = np.linalg.qr(random_complex(seeded_rng(9), 8, 4))[0]
        A = Q.conj().T  # rows have unit norm, A @ Q = I
        value = sinr([A], [Q], 7.0, 2, NOISE_SNR_SCALED)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_matches_full_product_oracle(self):
        a_mats, g_mats = build_bss(M=16, K=2, L=2, base_seed=10, inversion=Inversion.neumann(3))
        rho = 5.0
        for index in range(8):
            desired = sum(
                abs((A @ G)[index, index]) ** 2 for A, G in zip(a_mats, g_mats)
            )
            denom = variance_loop(a_mats, g_mats, rho, index, NOISE_SNR_SCALED)
            want = rho / 2.0 * desired / denom
            assert sinr(a_mats, g_mats, rho, index) == pytest.approx(want, rel=1e-10)

    def test_monotone_in_rho_under_unit_noise(self):
        # with exact ZF the interference vanishes, so SINR grows with rho
        a_mats, g_mats = build_bss(M=16, K=2, L=2, base_seed=11)
        values = [
            sinr(a_mats, g_mats, rho, 3, NOISE_UNIT)
            for rho in (1.0, 10.0, 100.0, 1e4)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_streams_vector_matches_scalar_entry_point(self):
        a_mats, g_mats = build_bss(M=16, K=2, L=2, base_seed=12, inversion=Inversion.neumann(2))
        streams = sinr_streams(a_mats, g_mats, 4.0)
        for i in range(8):
            assert streams[i] == pytest.approx(sinr(a_mats, g_mats, 4.0, i), rel=1e-12)

    def test_profile_groups_streams_and_se(self):
        a_mats, g_mats = build_bss(M=16, K=2, L=2, base_seed=13)
        report = sinr_profile(a_mats, g_mats, 4.0, num_users=2)
        assert report.sinr.shape == (2, 4)
        for k in range(2):
            assert report.se[k] == pytest.approx(
                spectral_efficiency(report.sinr[k]), rel=1e-12
            )
        assert np.all(report.se >= 0)

    def test_degenerate_denominator(self):
        A = np.zeros((4, 8), dtype=complex)
        G = np.zeros((8, 4), dtype=complex)
        with pytest.raises(DegenerateSinrError):
            sinr([A], [G], 1.0, 0)


class TestSinrPredictsBer:
    def test_q_curve_matches_monte_carlo_under_exact_zf(self):
        """Detection BER agrees with the Gaussian Q prediction at high SNR.

        With exact ZF the combined decision statistic per stream is the
        symbol scaled by sqrt(rho/2) * L plus zero-mean Gaussian noise of
        power sum_l ||row_i of A_l||^2, so the conditional BPSK error rate
        is exactly Q(sqrt(2 * SNR_i)) with the coherent-combining SNR
        SNR_i = L * sinr_i under the unit noise convention (the coherent
        gain |sum_l 1|^2 = L^2 versus the metric's per-BS power sum L).
        """
        rho = 100.0  # 20 dB
        L, M, K = 4, 16, 4
        n = 4 * K
        rng = seeded_rng(77)
        predicted_sum = 0.0
        errors = 0
        bits = 0
        noise_draws = 100
        for trial in range(120):
            a_mats, g_mats = [], []
            for l in range(L):
                G = draw_system(M=M, K=K, seed=50_000 + 10 * trial + l)
                a_mats.append(zf_matrix(G, Inversion.exact()).A)
                g_mats.append(G)
            streams = sinr_streams(a_mats, g_mats, rho, NOISE_UNIT)
            snr_phys = L * streams
            predicted_sum += np.sum(0.5 * erfc(np.sqrt(snr_phys)))

            x = BPSK.points[rng.integers(0, 2, (n, noise_draws))]
            r = np.sqrt(rho / 2.0) * L * x
            for A in a_mats:
                w = np.sqrt(0.5) * (
                    rng.standard_normal((A.shape[1], noise_draws))
                    + 1j * rng.standard_normal((A.shape[1], noise_draws))
                )
                r = r + A @ w
            gains = np.full(n * noise_draws, float(L), dtype=complex)
            decisions = detect(r.reshape(-1), gains, rho, BPSK)
            errors += int(np.count_nonzero(decisions != x.reshape(-1)))
            bits += x.size

        measured = errors / bits
        predicted = predicted_sum / bits * noise_draws
        assert measured > 0
        assert 0.5 * predicted < measured < 2.0 * predicted
