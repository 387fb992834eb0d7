import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstbc import (
    BPSK,
    QAM4,
    encode,
    equivalent_channel,
    golden_params,
    verify_exchangeability,
)
from helpers import random_complex, seeded_rng
from reference import large_m_diagnostic, stack_system, vec

P = golden_params()

finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


class TestParams:
    def test_golden_ratio_roots(self):
        assert P.b == pytest.approx(1.618033988749895, abs=1e-15)
        assert P.d == pytest.approx(-0.618033988749895, abs=1e-15)

    def test_layer_magnitudes(self):
        assert abs(P.a) ** 2 == pytest.approx(0.27639320225, abs=1e-11)
        assert abs(P.c) ** 2 == pytest.approx(0.72360679775, abs=1e-11)

    def test_row_energies_are_one(self):
        p_val = abs(P.a) ** 2 + abs(P.c) ** 2
        s_val = abs(P.a * P.b) ** 2 + abs(P.c * P.d) ** 2
        assert abs(p_val - 1.0) < 1e-12
        assert abs(s_val - 1.0) < 1e-12

    def test_unit_rotation(self):
        assert abs(abs(P.gamma) - 1.0) < 1e-15


class TestEncode:
    def test_zero_symbols(self):
        np.testing.assert_array_equal(encode(np.zeros(4)), np.zeros((2, 2)))

    def test_first_symbol_substitution(self):
        X = encode(np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(X, [[P.a, 0], [0, P.c]], atol=1e-15)

    def test_third_symbol_substitution(self):
        X = encode(np.array([0, 0, 1.0, 0]))
        np.testing.assert_allclose(X, [[0, P.gamma * P.a], [P.c, 0]], atol=1e-15)

    def test_batched_shape(self):
        X = encode(random_complex(seeded_rng(0), 7, 4))
        assert X.shape == (7, 2, 2)

    @given(
        x=st.lists(finite_complex, min_size=4, max_size=4),
        y=st.lists(finite_complex, min_size=4, max_size=4),
        scale=finite_complex,
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, x, y, scale):
        x = np.array(x)
        y = np.array(y)
        np.testing.assert_allclose(
            encode(x + y), encode(x) + encode(y), atol=1e-9
        )
        np.testing.assert_allclose(encode(scale * x), scale * encode(x), atol=1e-9)

    def test_mean_block_energy(self):
        # unit energy per transmit antenna per slot: E ||X||_F^2 / T = 2
        rng = seeded_rng(4)
        for const in (BPSK, QAM4):
            symbols = const.points[rng.integers(0, len(const.points), (100_000, 4))]
            X = encode(symbols)
            energy_per_slot = np.mean(np.sum(np.abs(X) ** 2, axis=(1, 2))) / 2.0
            assert abs(energy_per_slot - 2.0) < 0.04


class TestVec:
    def test_column_major_order(self):
        np.testing.assert_array_equal(
            vec(np.array([[1.0, 2.0], [3.0, 4.0]])), [1.0, 3.0, 2.0, 4.0]
        )

    def test_rejects_vector_input(self):
        with pytest.raises(ValueError):
            vec(np.ones(4))


class TestEquivalentChannel:
    def test_single_antenna_row_pattern(self):
        H = np.array([[1.0, 0.0]], dtype=complex)  # M=1, h1=1, h2=0
        Ht = equivalent_channel(H)
        expected = np.array(
            [
                [P.a, P.a * P.b, 0, 0],
                [0, 0, P.gamma * P.a, P.gamma * P.a * P.b],
            ]
        )
        np.testing.assert_allclose(Ht, expected, atol=1e-15)

    def test_zero_channel(self):
        np.testing.assert_array_equal(
            equivalent_channel(np.zeros((3, 2))), np.zeros((6, 4))
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            equivalent_channel(np.zeros((3, 3)))

    def test_rewrite_identity_on_seeded_draws(self):
        rng = seeded_rng(5)
        H = random_complex(rng, 16, 2)
        for _ in range(100):
            x = random_complex(rng, 4)
            assert verify_exchangeability(H, x) < 1e-12


class TestExchangeability:
    def test_zero_symbols_zero_residual(self):
        H = random_complex(seeded_rng(6), 8, 2)
        assert verify_exchangeability(H, np.zeros(4)) == 0.0

    def test_small_symbolic_case(self):
        H = np.array([[1.0, 1.0]], dtype=complex)
        assert verify_exchangeability(H, np.ones(4)) < 1e-14

    def test_property_sweep_m32(self):
        rng = seeded_rng(7)
        worst = 0.0
        for _ in range(1000):
            H = random_complex(rng, 32, 2)
            x = random_complex(rng, 4)
            worst = max(worst, verify_exchangeability(H, x))
        assert worst < 1e-12 * 32

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_holds_for_arbitrary_inputs(self, data):
        m = data.draw(st.integers(min_value=1, max_value=6))
        H = np.array(
            data.draw(
                st.lists(
                    st.lists(finite_complex, min_size=2, max_size=2),
                    min_size=m,
                    max_size=m,
                )
            )
        )
        x = np.array(data.draw(st.lists(finite_complex, min_size=4, max_size=4)))
        scale = max(1.0, np.abs(H).max() * max(1.0, np.abs(x).max()))
        assert verify_exchangeability(H, x) < 1e-9 * m * scale


class TestStackSystem:
    def test_single_user_unit_gain(self):
        Ht = random_complex(seeded_rng(8), 1, 10, 4)
        np.testing.assert_array_equal(stack_system(Ht, np.ones(1)), Ht[0])

    def test_zero_gain_zeroes_block(self):
        Ht = random_complex(seeded_rng(9), 2, 10, 4)
        G = stack_system(Ht, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(G[:, 4:], np.zeros((10, 4)))
        np.testing.assert_array_equal(G[:, :4], Ht[0])

    def test_column_blocks_match_users(self):
        Ht = random_complex(seeded_rng(10), 3, 8, 4)
        betas = np.array([0.9, 0.5, 0.1])
        G = stack_system(Ht, betas)
        assert G.shape == (8, 12)
        for k in range(3):
            for j in range(4):
                np.testing.assert_allclose(
                    G[:, 4 * k + j], betas[k] * Ht[k, :, j], atol=1e-15
                )

    def test_rejects_bad_beta_length(self):
        with pytest.raises(ValueError):
            stack_system(random_complex(seeded_rng(11), 2, 8, 4), np.ones(3))


class TestLargeM:
    def test_whitening_at_large_m(self):
        diag_err, cross_err = large_m_diagnostic(100_000, seeded_rng(12))
        assert diag_err < 0.05
        assert cross_err < 0.05

    def test_error_shrinks_with_m(self):
        wins = 0
        for seed in range(20):
            small = large_m_diagnostic(10, seeded_rng(seed))[0]
            large = large_m_diagnostic(10_000, seeded_rng(seed + 1000))[0]
            wins += large < small
        assert wins >= 15
