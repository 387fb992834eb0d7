import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstbc import linalg
from cfstbc import (
    DegenerateSplitError,
    Inversion,
    SingularMatrixError,
    convergence_margins,
    exact_inverse,
    neumann_inverse,
    neumann_r2,
    split_diag,
)
from helpers import (
    FlopCounter,
    counted_cholesky_inverse,
    counted_invert,
    draw_system,
    gram_loop,
    oracle_exact_inverse,
    random_complex,
    random_hpd,
    seeded_rng,
)
from reference import convergence_margin, gram

Z22 = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(2, dtype=complex)), np.eye(2))

    def test_hand_column(self):
        G = np.array([[1.0], [1.0j]])
        np.testing.assert_allclose(gram(G), [[2.0]])

    def test_matches_loop_oracle(self):
        G = draw_system(M=64, K=2, seed=11)
        assert G.shape == (128, 8)
        np.testing.assert_allclose(gram(G), gram_loop(G), atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_hermitian_and_psd(self, seed):
        G = draw_system(M=16, K=2, seed=seed)
        Z = gram(G)
        scale = np.abs(Z).max()
        assert np.max(np.abs(Z - Z.conj().T)) < 1e-12 * scale
        assert np.linalg.eigvalsh(Z).min() > -1e-10 * scale

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError, match="rows"):
            gram(np.ones((2, 3), dtype=complex))


class TestExactInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            exact_inverse(np.diag([2.0, 4.0]).astype(complex)),
            np.diag([0.5, 0.25]),
            atol=1e-15,
        )

    def test_closed_form_2x2(self):
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(exact_inverse(Z22), expected, atol=1e-14)

    def test_residual_on_seeded_gram(self):
        Z = gram(draw_system(M=32, K=2, seed=5))
        assert Z.shape == (8, 8)
        residual = np.linalg.norm(Z @ exact_inverse(Z) - np.eye(8))
        assert residual < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_random_hpd(self, seed):
        n = 24
        Z = random_hpd(n, seed, spread=3.0)
        assert np.linalg.cond(Z) < 1e6
        assert np.linalg.norm(Z @ exact_inverse(Z) - np.eye(n)) < 1e-10 * n

    def test_nonpositive_pivot_reports_index(self):
        Z = np.diag([1.0, -1.0, 2.0]).astype(complex)
        with pytest.raises(SingularMatrixError) as err:
            exact_inverse(Z)
        assert err.value.pivot == 1

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            exact_inverse(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize(
        "row,col,value,pivot",
        [
            (2, 2, np.nan, 2),
            (3, 1, np.nan, 3),
            (1, 1, np.inf, 1),
            (1, 1, -np.inf, 1),
            (3, 0, np.inf, 3),
            (4, 2, -np.inf, 4),
            (2, 2, -1.0, 2),
        ],
    )
    def test_failing_pivot_index(self, row, col, value, pivot):
        """NaN, +-Inf on and off the diagonal, and an indefinite pivot."""
        Z = random_hpd(5, seed=3)
        Z[row, col] = value
        Z[col, row] = np.conj(value)
        with pytest.raises(SingularMatrixError) as err:
            exact_inverse(Z)
        assert err.value.pivot == pivot

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 40),
        lead=st.sampled_from([(1,), (3,), (2, 3)]),
        seed=st.integers(0, 2**31),
        spread=st.floats(0.0, 3.0),
        loading=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    )
    def test_matches_lapack_oracle(self, n, lead, seed, spread, loading):
        count = int(np.prod(lead))
        Z = _hpd_stack(n, seed, count, spread) + loading * np.eye(n)
        Z = Z.reshape(*lead, n, n)
        want = oracle_exact_inverse(Z)
        assert np.abs(exact_inverse(Z) - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 2**31),
        row=st.integers(0, 11),
        col=st.integers(0, 11),
        value=st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 10.0, 1e300]),
    )
    def test_failing_pivot_matches_lapack_oracle(self, n, seed, row, col, value):
        """zpotrf's pivot, or no error, wherever one bad entry lands."""
        Z = random_hpd(n, seed)
        Z[row % n, col % n] = value
        Z[col % n, row % n] = np.conj(value)

        def pivot(invert):
            try:
                invert(Z)
            except SingularMatrixError as err:
                return err.pivot
            return None

        assert pivot(exact_inverse) == pivot(oracle_exact_inverse)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_flop_formula_matches_instrumented_oracle(self, n):
        Z = random_hpd(n, seed=n)
        oracle_inv, mults, divs, adds = counted_cholesky_inverse(Z)
        np.testing.assert_allclose(exact_inverse(Z), oracle_inv, atol=1e-12)
        assert Inversion.exact().ops(n) == (mults, divs, adds)


class TestSplitDiag:
    def test_identity(self):
        split = split_diag(np.eye(3, dtype=complex))
        np.testing.assert_array_equal(split.D, np.eye(3))
        np.testing.assert_array_equal(split.E, np.zeros((3, 3)))

    def test_hand_2x2(self):
        split = split_diag(Z22)
        np.testing.assert_array_equal(split.D, np.diag([2.0, 2.0]))
        np.testing.assert_array_equal(split.E, [[0.0, 1.0], [1.0, 0.0]])

    def test_reconstruction_is_exact(self):
        Z = gram(draw_system(M=16, K=2, seed=3))
        split = split_diag(Z)
        np.testing.assert_array_equal(split.D + split.E, Z)
        assert np.all(np.diagonal(split.E) == 0)

    def test_stack_keeps_its_diagonal_and_builds_d_on_demand(self):
        Z = _hpd_stack(4, seed=2, count=6).reshape(2, 3, 4, 4)
        split = split_diag(Z)
        np.testing.assert_array_equal(split.diagonal, np.diagonal(Z, axis1=-2, axis2=-1))
        np.testing.assert_array_equal(split.D, [[np.diag(d) for d in row] for row in split.diagonal])
        np.testing.assert_array_equal(split.D + split.E, Z)

    def test_zero_diagonal_entry(self):
        Z = Z22.copy()
        Z[0, 0] = 0.0
        with pytest.raises(DegenerateSplitError) as err:
            split_diag(Z)
        assert err.value.index == 0


class TestNeumannInverse:
    def test_diagonal_exact_any_order(self):
        Z = np.diag([2.0, 5.0, 0.5]).astype(complex)
        for R in (1, 2, 7):
            np.testing.assert_allclose(
                neumann_inverse(Z, R), np.diag([0.5, 0.2, 2.0]), atol=1e-15
            )

    def test_hand_expansion_r2(self):
        expected = np.array([[0.5, -0.25], [-0.25, 0.5]])
        np.testing.assert_allclose(neumann_inverse(Z22, 2), expected, atol=1e-15)

    def test_series_limit_matches_exact(self):
        # spectral ratio is 0.5 here, so 50 terms are plenty
        np.testing.assert_allclose(
            neumann_inverse(Z22, 50), exact_inverse(Z22), atol=1e-10
        )

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            neumann_inverse(Z22, 0)

    def test_propagates_degenerate_split(self):
        Z = Z22.copy()
        Z[1, 1] = 0.0
        with pytest.raises(DegenerateSplitError):
            neumann_inverse(Z, 2)


class TestNeumannR2:
    def test_identity(self):
        np.testing.assert_array_equal(neumann_r2(np.eye(4, dtype=complex)), np.eye(4))

    def test_hand_2x2(self):
        np.testing.assert_allclose(
            neumann_r2(Z22), [[0.5, -0.25], [-0.25, 0.5]], atol=1e-15
        )

    @pytest.mark.parametrize("seed", range(100))
    def test_equals_generic_order_two(self, seed):
        Z = gram(draw_system(M=64, K=10, seed=seed))
        assert Z.shape == (40, 40)
        delta = np.abs(neumann_r2(Z) - neumann_inverse(Z, 2))
        assert delta.max() < 1e-13


class TestConvergenceMargin:
    def test_diagonal_gives_zero(self):
        assert convergence_margin(np.diag([3.0, 1.0]).astype(complex)) == 0.0

    def test_hand_value_half(self):
        assert convergence_margin(Z22) == pytest.approx(0.5, abs=1e-15)

    def test_divergent_regime(self):
        Z = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        assert convergence_margin(Z) == pytest.approx(2.0, abs=1e-15)

    def test_float_conversion(self):
        assert type(convergence_margin(Z22)) is float

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 3.0),
        loading=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    )
    def test_matches_eigvals_oracle(self, n, seed, spread, loading):
        """Spectral radius of D^-1 E from the general eigen-solver."""
        Z = random_hpd(n, seed, spread) + loading * np.eye(n)
        d = np.diagonal(Z)
        oracle = np.max(np.abs(np.linalg.eigvals((Z - np.diag(d)) / d[:, None])))
        assert abs(convergence_margin(Z) - oracle) <= 1e-12


class TestConvergenceMargins:
    @pytest.mark.parametrize("n", [4, 8, 16, 40])
    def test_stack_matches_per_matrix_bit_for_bit(self, n):
        Z = _hpd_stack(n, seed=n, count=24, spread=1.5).reshape(6, 4, n, n)
        Z[1] += 0.5 * np.eye(n)
        margins = convergence_margins(Z)
        assert margins.shape == (6, 4)
        want = [convergence_margin(z).hex() for z in Z.reshape(-1, n, n)]
        assert [float(m).hex() for m in margins.ravel()] == want

    def test_diagonal_gives_exactly_zero(self):
        Z = np.stack([np.diag([3.0, 1.0, 0.5]), np.diag([2.0, 7.0, 1.0])]).astype(complex)
        assert convergence_margins(Z).tolist() == [0.0, 0.0]


class TestSeriesConvergenceRate:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_error_shrinks_geometrically(self, seed):
        """Truncation error decays at least at the q^R rate.

        The spectrum of D^-1 E carries near-degenerate +/- pairs whose
        cross terms make the Frobenius error oscillate between odd and
        even orders, so the decrease is asserted two steps apart. The
        fitted slope can only be steeper than log q at finite R (the bulk
        modes decay faster), hence the one-sided bound.
        """
        Z = gram(draw_system(M=64, K=4, seed=seed))
        q = convergence_margin(Z)
        assert q < 1.0
        Zinv = exact_inverse(Z)
        errors = np.array(
            [np.linalg.norm(neumann_inverse(Z, R) - Zinv) for R in range(1, 9)]
        )
        assert np.all(errors[2:] < errors[:-2])
        assert errors[-1] < errors[0]
        slope = np.polyfit(np.arange(1, 9), np.log(errors), 1)[0]
        assert slope <= np.log(q) + 0.1
        # errors <= C q^R holds with the fitted constant staying modest
        C = np.max(errors / q ** np.arange(1, 9))
        assert C < 10.0 * errors[0]


INVERTERS = {
    "exact": exact_inverse,
    "neumann_r2": neumann_r2,
    "neumann_inverse_3": lambda Z: neumann_inverse(Z, 3),
}


def _hpd_stack(n, seed, count, spread=1.0):
    return np.stack([random_hpd(n, seed + i, spread) for i in range(count)])


class TestStackedInversion:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        lead=st.sampled_from([(1,), (3,), (2, 3)]),
        seed=st.integers(0, 2**31),
        spread=st.floats(0.0, 3.0),
        loading=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    )
    def test_stack_matches_per_matrix_calls(self, n, lead, seed, spread, loading):
        count = int(np.prod(lead))
        Z = _hpd_stack(n, seed, count, spread) + loading * np.eye(n)
        Z = Z.reshape(*lead, n, n)
        for name, invert in INVERTERS.items():
            out = invert(Z)
            want = np.stack([invert(z) for z in Z.reshape(-1, n, n)])
            assert out.shape == Z.shape, name
            scale = np.abs(want).max()
            assert np.abs(out.reshape(-1, n, n) - want).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize(
        "row,col,value",
        [
            (2, 2, np.nan),
            (3, 1, np.nan),
            (1, 1, np.inf),
            (1, 1, -np.inf),
            (3, 0, np.inf),
            (4, 2, -np.inf),
            (2, 2, -1.0),
        ],
    )
    def test_bad_matrix_in_stack_reports_its_pivot(self, index, row, col, value):
        Z = _hpd_stack(5, seed=3, count=4)
        Z[index, row, col] = value
        Z[index, col, row] = np.conj(value)
        with pytest.raises(SingularMatrixError) as alone:
            exact_inverse(Z[index])
        with pytest.raises(SingularMatrixError) as err:
            exact_inverse(Z)
        assert err.value.pivot == alone.value.pivot

    def test_first_bad_matrix_wins(self):
        Z = _hpd_stack(5, seed=3, count=4)
        Z[1, 3, 3] = -1.0
        Z[2, 0, 0] = -1.0
        with pytest.raises(SingularMatrixError) as err:
            exact_inverse(Z)
        assert err.value.pivot == 3

    @pytest.mark.parametrize(
        "call",
        [
            split_diag,
            convergence_margins,
            INVERTERS["neumann_r2"],
            INVERTERS["neumann_inverse_3"],
        ],
    )
    def test_zero_diagonal_in_stack_reports_its_index(self, call):
        Z = _hpd_stack(4, seed=8, count=3)
        Z[1, 2, 2] = 0.0
        Z[2, 0, 0] = 0.0
        with pytest.raises(DegenerateSplitError) as err:
            call(Z)
        assert err.value.index == 2

    def test_margin_takes_one_matrix(self):
        with pytest.raises(ValueError, match="one matrix"):
            convergence_margin(_hpd_stack(3, seed=1, count=2))


LOADINGS = np.geomspace(1e-3, 1e3, 7)


def _per_loading_oracle(invert, Z, loadings, Y):
    """Each loading's (Z + aI)^-1 y and diag((Z + aI)^-1 Z), inverting Z + aI."""
    soft, gains = [], []
    for p, a in enumerate(loadings):
        inv = invert(Z + a * np.eye(Z.shape[-1]))
        soft.append(np.einsum("...ij,...j->...i", inv, Y[..., p]))
        gains.append(np.einsum("...ij,...ji->...i", inv, Z))
    return np.stack(soft, axis=-1), np.stack(gains, axis=-1)


class TestLoadedRoutes:
    """One factorization of Z serves Z + aI at every loading a."""

    @pytest.mark.parametrize("n", [4, 16, 40])
    @pytest.mark.parametrize(
        "route,invert",
        [(linalg.exact_loaded, exact_inverse), (linalg.neumann_r2_loaded, neumann_r2)],
        ids=["exact", "neumann_r2"],
    )
    def test_matches_inverting_each_loaded_gram(self, n, route, invert):
        Z = _hpd_stack(n, seed=20 + n, count=6).reshape(3, 2, n, n)
        Y = random_complex(seeded_rng(n), 3, 2, n, len(LOADINGS))
        soft, gains = route(Z)(LOADINGS, Y)
        want_soft, want_gains = _per_loading_oracle(invert, Z, LOADINGS, Y)
        assert soft.shape == gains.shape == Y.shape
        for p in range(len(LOADINGS)):
            for got, want in ((soft, want_soft), (gains, want_gains)):
                err = np.abs(got[..., p] - want[..., p]).max()
                assert err <= 1e-12 * np.abs(want[..., p]).max(), (p, LOADINGS[p])

    def test_other_orders_invert_per_loading(self):
        Z = _hpd_stack(6, seed=4, count=2)
        Y = random_complex(seeded_rng(4), 2, 6, len(LOADINGS))
        inversion = Inversion.neumann(3)
        got = inversion.loaded(Z)(LOADINGS, Y)
        want = _per_loading_oracle(inversion.invert, Z, LOADINGS, Y)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14 * np.abs(w).max())

    @pytest.mark.parametrize(
        "row,col,value",
        [(2, 2, np.nan), (3, 1, np.nan), (1, 1, np.inf), (3, 0, np.inf), (4, 2, -np.inf)],
    )
    def test_exact_route_reports_the_pivot_of_a_non_finite_gram(self, row, col, value):
        Z = _hpd_stack(5, seed=3, count=4)
        Z[2, row, col] = value
        Z[2, col, row] = np.conj(value)
        with pytest.raises(SingularMatrixError) as want:
            exact_inverse(Z + LOADINGS[0] * np.eye(5))
        solve = linalg.exact_loaded(Z)
        with pytest.raises(SingularMatrixError) as err:
            solve(LOADINGS, np.ones((4, 5, len(LOADINGS)), dtype=complex))
        assert err.value.pivot == want.value.pivot

    def test_exact_route_reports_a_loading_too_small_for_a_negative_eigenvalue(self):
        Z = np.diag([3.0, 2.0, -1.0, 4.0]).astype(complex)
        solve = linalg.exact_loaded(Z)
        soft, _ = solve(np.array([2.0]), np.ones((4, 1), dtype=complex))
        np.testing.assert_allclose(soft[:, 0], 1.0 / np.array([5.0, 4.0, 1.0, 6.0]))
        with pytest.raises(SingularMatrixError) as err:
            solve(np.array([2.0, 0.5]), np.ones((4, 2), dtype=complex))
        assert err.value.pivot == 2


class TestFlopOrdering:
    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_r2_cheaper_than_exact(self, n):
        assert Inversion.neumann(2).ops(n)[0] < Inversion.exact().ops(n)[0]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 40),
        spec=st.sampled_from(["exact", "neumann:1", "neumann:2", "neumann:3", "neumann:4"]),
        lead=st.sampled_from([(1,), (3,), (2, 3)]),
    )
    def test_closed_form_matches_the_counting_inversions(self, n, spec, lead):
        inversion = Inversion.parse(spec)
        count = int(np.prod(lead))
        Z = _hpd_stack(n, n, count).reshape(*lead, n, n)
        counter = FlopCounter()
        counted_invert(inversion, Z, counter)
        assert counter == FlopCounter(*(count * c for c in inversion.ops(n)))
