import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstbc import (
    BPSK,
    QAM4,
    Inversion,
    cpu_combine,
    detect,
    gram,
    mmse_matrix,
    neumann_r2,
    per_bs_soft,
    zf_matrix,
)
from helpers import draw_system, random_complex, seeded_rng


def orthonormal_columns(rows, cols, seed):
    Q = np.linalg.qr(random_complex(seeded_rng(seed), rows, cols))[0]
    return Q[:, :cols]


class TestConstellations:
    def test_unit_average_energy(self):
        for const in (BPSK, QAM4):
            assert np.mean(np.abs(const.points) ** 2) == pytest.approx(1.0)

    def test_bpsk_convention(self):
        np.testing.assert_array_equal(BPSK.modulate(np.array([0, 1])), [1.0, -1.0])

    def test_round_trip_all_patterns(self):
        for const in (BPSK, QAM4):
            bps = const.bits_per_symbol
            bits = np.array(
                [(i >> (bps - 1 - j)) & 1 for i in range(2**bps) for j in range(bps)],
                dtype=np.uint8,
            )
            np.testing.assert_array_equal(const.demodulate(const.modulate(bits)), bits)

    def test_gray_adjacency(self):
        # every minimal-distance pair of 4QAM points differs in exactly one bit
        pts = QAM4.points
        dists = np.abs(pts[:, None] - pts[None, :])
        min_dist = dists[dists > 0].min()
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i < j and np.isclose(dists[i, j], min_dist):
                    flips = np.sum(QAM4.bit_patterns[i] != QAM4.bit_patterns[j])
                    assert flips == 1

    def test_modulate_validates_bit_count(self):
        with pytest.raises(ValueError):
            QAM4.modulate(np.array([0, 1, 0]))


class TestInversionSpec:
    def test_parse_forms(self):
        assert Inversion.parse("exact") == Inversion.exact()
        assert Inversion.parse("neumann:2") == Inversion.neumann(2)
        assert Inversion.parse("NEUMANN:5").order == 5

    def test_labels(self):
        assert Inversion.exact().label == "exact"
        assert Inversion.neumann(3).label == "neumann:3"

    @pytest.mark.parametrize("bad", ["", "neumann", "neumann:x", "neumann:0", "lu"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Inversion.parse(bad)


class TestZfMatrix:
    def test_orthonormal_columns_give_adjoint(self):
        G = orthonormal_columns(12, 4, seed=0)
        dec = zf_matrix(G, Inversion.exact())
        np.testing.assert_allclose(dec.A, G.conj().T, atol=1e-12)
        np.testing.assert_allclose(dec.gains, np.ones(4), atol=1e-12)

    def test_pseudoinverse_residual(self):
        G = draw_system(M=64, K=4, seed=1)
        dec = zf_matrix(G, Inversion.exact())
        assert np.linalg.norm(dec.A @ G - np.eye(16)) < 1e-8

    def test_neumann_residual_decreases_with_order(self):
        G = draw_system(M=64, K=4, seed=2)
        residuals = []
        for R in range(1, 7):
            dec = zf_matrix(G, Inversion.neumann(R))
            residuals.append(np.linalg.norm(dec.A @ G - np.eye(16)))
        assert residuals[0] > residuals[-1]
        assert all(r > 0 for r in residuals)
        assert all(b < a * 1.05 for a, b in zip(residuals[:-2], residuals[2:]))

    def test_gains_match_product_diagonal(self):
        G = draw_system(M=32, K=2, seed=3)
        dec = zf_matrix(G, Inversion.neumann(2))
        np.testing.assert_allclose(dec.gains, np.diagonal(dec.A @ G), atol=1e-12)

    def test_selected_inverter_and_its_cost(self):
        G = draw_system(M=32, K=2, seed=4)
        dec = zf_matrix(G, Inversion.neumann(2))
        np.testing.assert_array_equal(dec.A, neumann_r2(gram(G)) @ G.conj().T)
        n = G.shape[1]
        assert Inversion.neumann(2).ops(n) == (2 * n * (n - 1), n, 0)


class TestMmseMatrix:
    def test_high_snr_approaches_zf(self):
        G = draw_system(M=32, K=2, seed=5)
        A_zf = zf_matrix(G, Inversion.exact()).A
        A_mmse = mmse_matrix(G, 1e9, Inversion.exact()).A
        assert np.linalg.norm(A_mmse - A_zf) < 1e-6 * np.linalg.norm(A_zf)

    def test_zero_channel_gives_zero(self):
        G = np.zeros((16, 4), dtype=complex)
        dec = mmse_matrix(G, 5.0, Inversion.exact())
        np.testing.assert_array_equal(dec.A, np.zeros((4, 16)))

    def test_orthonormal_at_rho_two(self):
        G = orthonormal_columns(12, 4, seed=6)
        dec = mmse_matrix(G, 2.0, Inversion.exact())
        np.testing.assert_allclose(dec.A, 0.5 * G.conj().T, atol=1e-12)

    def test_distance_to_zf_shrinks_monotonically(self):
        G = draw_system(M=32, K=2, seed=7)
        A_zf = zf_matrix(G, Inversion.exact()).A
        gaps = [
            np.linalg.norm(mmse_matrix(G, 10.0**e, Inversion.exact()).A - A_zf)
            for e in range(10)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            mmse_matrix(np.eye(4, dtype=complex), 0.0, Inversion.exact())


class TestSoftAndCombine:
    def test_zero_input_zero_output(self):
        G = draw_system(M=16, K=2, seed=8)
        dec = zf_matrix(G, Inversion.exact())
        s, gains = per_bs_soft(dec, np.zeros(32))
        np.testing.assert_array_equal(s, np.zeros(8))
        assert gains.shape == (8,)

    def test_noiseless_exact_zf_recovers_scaled_symbols(self):
        G = draw_system(M=16, K=2, seed=9)
        x = random_complex(seeded_rng(10), 8)
        rho = 6.0
        y = np.sqrt(rho / 2.0) * (G @ x)
        dec = zf_matrix(G, Inversion.exact())
        s, _ = per_bs_soft(dec, y)
        np.testing.assert_allclose(s, np.sqrt(rho / 2.0) * x, atol=1e-9)

    def test_soft_decomposition_matches_loop(self):
        # residual after removing the desired term equals the directly
        # summed interference-plus-noise contribution, stream by stream
        G = draw_system(M=16, K=2, seed=11)
        rng = seeded_rng(12)
        x = random_complex(rng, 8)
        w = random_complex(rng, 32)
        rho = 3.0
        y = np.sqrt(rho / 2.0) * (G @ x) + w
        dec = zf_matrix(G, Inversion.neumann(2))
        s, gains = per_bs_soft(dec, y)
        P = dec.A @ G
        for i in range(8):
            residual = s[i] - np.sqrt(rho / 2.0) * gains[i] * x[i]
            direct = sum(
                np.sqrt(rho / 2.0) * P[i, t] * x[t] for t in range(8) if t != i
            ) + dec.A[i] @ w
            assert abs(residual - direct) < 1e-10

    def test_dimension_mismatch(self):
        G = draw_system(M=16, K=2, seed=13)
        dec = zf_matrix(G, Inversion.exact())
        with pytest.raises(ValueError):
            per_bs_soft(dec, np.zeros(31))

    def test_combine_single_bs(self):
        s = random_complex(seeded_rng(14), 8)
        g = random_complex(seeded_rng(15), 8)
        r, gc = cpu_combine([s], [g])
        np.testing.assert_array_equal(r, s)
        np.testing.assert_array_equal(gc, g)

    def test_combine_cancellation(self):
        s = random_complex(seeded_rng(16), 8)
        r, _ = cpu_combine([s, -s], [np.ones(8), np.ones(8)])
        np.testing.assert_allclose(r, np.zeros(8), atol=1e-15)

    def test_combine_matches_direct_sum(self):
        rng = seeded_rng(17)
        soft = [random_complex(rng, 8) for _ in range(4)]
        gains = [random_complex(rng, 8) for _ in range(4)]
        r, g = cpu_combine(soft, gains)
        np.testing.assert_allclose(r, soft[0] + soft[1] + soft[2] + soft[3], atol=1e-14)
        np.testing.assert_allclose(g, gains[0] + gains[1] + gains[2] + gains[3], atol=1e-14)

    def test_combine_validates_lengths(self):
        with pytest.raises(ValueError):
            cpu_combine([], [])
        with pytest.raises(ValueError):
            cpu_combine([np.zeros(4)], [np.zeros(5)])


class TestDetect:
    def test_exact_match(self):
        rho, gain = 4.0, 2.0 + 1.0j
        r = np.sqrt(rho / 2.0) * gain * 1.0
        assert detect(r, gain, rho, BPSK) == 1.0

    def test_tie_breaks_to_lowest_index(self):
        assert detect(0.0, 1.0, 4.0, BPSK) == BPSK.points[0]

    def test_qam_nearest_region(self):
        rho, gain = 2.0, 1.0
        target = QAM4.points[0]
        r = np.sqrt(rho / 2.0) * gain * target + (0.01 + 0.005j)
        got = detect(r, gain, rho, QAM4)
        brute = QAM4.points[
            np.argmin(np.abs(r - np.sqrt(rho / 2.0) * gain * QAM4.points))
        ]
        assert got == brute == target

    def test_vectorized_matches_scalar(self):
        rng = seeded_rng(18)
        r = random_complex(rng, 10)
        g = random_complex(rng, 10)
        batch = detect(r, g, 3.0, QAM4)
        singles = np.array([detect(r[i], g[i], 3.0, QAM4) for i in range(10)])
        np.testing.assert_array_equal(batch, singles)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_positive_real_scaling_invariance(self, scale):
        rng = seeded_rng(19)
        r = complex(rng.standard_normal() + 1j * rng.standard_normal())
        g = complex(rng.standard_normal() + 1j * rng.standard_normal())
        assert detect(r, g, 5.0, QAM4) == detect(scale * r, scale * g, 5.0, QAM4)

    def test_rejects_nonfinite_gain(self):
        with pytest.raises(ValueError):
            detect(1.0, np.inf, 2.0, BPSK)


class TestPerfectSeparation:
    @pytest.mark.parametrize("rho", [0.01, 1.0, 100.0])
    def test_noiseless_chain_recovers_symbols(self, rho):
        const = QAM4
        G = draw_system(M=32, K=3, seed=20)
        bits = seeded_rng(21).integers(0, 2, 24).astype(np.uint8)
        x = const.modulate(bits)
        y = np.sqrt(rho / 2.0) * (G @ x)
        dec = zf_matrix(G, Inversion.exact())
        s, gains = per_bs_soft(dec, y)
        points = detect(s, gains, rho, const)
        np.testing.assert_array_equal(const.demodulate(points), bits)
