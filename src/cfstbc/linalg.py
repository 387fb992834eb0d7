"""Dense complex linear algebra for linear MIMO decoding.

Gram matrices, exact inversion of Hermitian positive definite matrices via
Cholesky factorization, truncated Neumann-series approximate inversion, and
a power-iteration diagnostic for the series' spectral convergence margin.

Matrices are plain complex ndarrays. Operation counts are tracked at the
complex-operation level: one complex multiply / divide / add is one unit,
never decomposed into real flops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve


class SingularMatrixError(ValueError):
    """Cholesky pivot failure: the matrix is not positive definite."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite: nonpositive pivot at index {pivot}"
        )

    def __reduce__(self):
        return type(self), (self.pivot,)


class DegenerateSplitError(ValueError):
    """Diagonal/off-diagonal split failed: a diagonal entry is zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero diagonal entry at index {index}; cannot split")

    def __reduce__(self):
        return type(self), (self.index,)


@dataclass
class FlopCounter:
    """Complex-operation tally for one inversion call.

    Counts only grow; callers aggregate across calls by summing fields or
    via :meth:`merge`.
    """

    complex_mults: int = 0
    complex_divs: int = 0
    complex_adds: int = 0

    def add(self, mults: int = 0, divs: int = 0, adds: int = 0) -> None:
        if mults < 0 or divs < 0 or adds < 0:
            raise ValueError("flop counts are non-decreasing")
        self.complex_mults += mults
        self.complex_divs += divs
        self.complex_adds += adds

    def merge(self, other: "FlopCounter") -> None:
        self.add(other.complex_mults, other.complex_divs, other.complex_adds)


@dataclass(frozen=True)
class NeumannSplit:
    """Split Z = D + E with D the diagonal part and E the zero-diagonal rest."""

    D: np.ndarray
    E: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.D)


class SpectralEstimate(NamedTuple):
    """Power-iteration estimate of a spectral radius.

    ``converged`` is False when the iteration budget ran out before the
    stopping tolerance was met; ``value`` is then the last estimate.
    """

    value: float
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return float(self.value)


def gram(G: np.ndarray) -> np.ndarray:
    """Return the Gram matrix G^H G of a tall matrix G."""
    G = np.asarray(G)
    if G.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={G.ndim}")
    if G.shape[0] < G.shape[1]:
        raise ValueError(
            f"gram expects at least as many rows as columns, got {G.shape}"
        )
    return G.conj().T @ G


def _cholesky_lower(Z: np.ndarray) -> np.ndarray:
    """Left-looking Cholesky Z = L L^H, raising on the failing pivot."""
    n = Z.shape[0]
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        d = Z[j, j].real - np.sum(np.abs(L[j, :j]) ** 2)
        if not d > 0.0 or not np.isfinite(d):
            raise SingularMatrixError(pivot=j)
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (Z[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()) / L[j, j]
    return L


def exact_inverse(Z: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Invert a Hermitian positive definite matrix.

    Cholesky-factors Z = L L^H and solves the two triangular systems against
    the identity, so Z^{-1} = L^{-H} L^{-1}. Positive definiteness is
    validated by the factorization itself; a nonpositive pivot raises
    :class:`SingularMatrixError` carrying the failing index.

    Recorded operation counts follow the textbook dense algorithm: the
    factorization costs (n^3 - n)/6 multiplies and adds plus n(n-1)/2
    divides, and each triangular solve against n right-hand sides costs
    n^2(n-1)/2 multiplies and adds plus n^2 divides.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Z.shape}")
    n = Z.shape[0]
    # LAPACK path for speed; the column loop reruns only to locate the
    # failing pivot when the factorization breaks down.
    try:
        L = np.linalg.cholesky(Z)
    except np.linalg.LinAlgError:
        L = _cholesky_lower(Z)
    if not np.all(np.isfinite(L)):
        L = _cholesky_lower(Z)
    Zinv = cho_solve((L, True), np.eye(n, dtype=complex), check_finite=False)
    if counter is not None:
        counter.add(
            mults=(n**3 - n) // 6 + n**2 * (n - 1),
            divs=n * (n - 1) // 2 + 2 * n**2,
            adds=(n**3 - n) // 6 + n**2 * (n - 1),
        )
    return Zinv


def split_diag(Z: np.ndarray) -> NeumannSplit:
    """Split a square matrix into its diagonal D and remainder E, Z = D + E."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Z.shape}")
    d = np.diagonal(Z)
    zero = np.nonzero(d == 0)[0]
    if zero.size:
        raise DegenerateSplitError(index=int(zero[0]))
    E = Z.copy()
    np.fill_diagonal(E, 0.0)
    return NeumannSplit(D=np.diag(d), E=E)


def neumann_inverse(
    Z: np.ndarray, R: int, counter: FlopCounter | None = None
) -> np.ndarray:
    """R-term Neumann-series approximation of Z^{-1}.

    Evaluates sum_{r=0}^{R-1} (-D^{-1} E)^r D^{-1} for the diagonal split
    Z = D + E. R=1 returns D^{-1} exactly. Convergence is not checked here;
    see :func:`convergence_margin` for the spectral-radius criterion.

    Counts reflect the generic evaluation: n divides for D^{-1}, n(n-1)
    multiplies to scale E, and a dense n x n matrix product plus a matrix
    add per extra term.
    """
    if R < 1:
        raise ValueError(f"series order must be >= 1, got {R}")
    split = split_diag(Z)
    n = split.E.shape[0]
    dinv = 1.0 / split.diagonal
    Dinv = np.diag(dinv)
    T = -(dinv[:, None] * split.E)
    if counter is not None:
        counter.add(divs=n, mults=n * (n - 1))
    result = Dinv.copy()
    term = Dinv
    for _ in range(1, R):
        term = T @ term
        result = result + term
        if counter is not None:
            counter.add(mults=n**3, adds=n**2 * (n - 1) + n**2)
    return result


def neumann_r2(Z: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Two-term Neumann approximation D^{-1} - D^{-1} E D^{-1}.

    Algebraically identical to ``neumann_inverse(Z, 2)`` but evaluated as
    two diagonal scalings of E, so the recorded cost is the cheap form:
    n divides and 2n(n-1) multiplies, no dense matrix product.
    """
    split = split_diag(Z)
    n = split.E.shape[0]
    dinv = 1.0 / split.diagonal
    out = -((dinv[:, None] * split.E) * dinv[None, :])
    np.fill_diagonal(out, dinv)
    if counter is not None:
        counter.add(divs=n, mults=2 * n * (n - 1))
    return out


def convergence_margin(
    Z: np.ndarray, iters: int = 200, tol: float = 1e-8
) -> SpectralEstimate:
    """Estimate the spectral radius of D^{-1} E for the split of Z.

    The Neumann series for Z^{-1} converges iff this value is below 1.
    Power iteration starts from the normalized all-ones vector; the running
    estimate is the geometric mean of two consecutive growth factors, which
    also handles spectra whose extreme eigenvalues agree in modulus but
    differ in sign. Iteration stops once successive estimates differ by
    less than ``tol``; running out of iterations flags the estimate as
    unconverged rather than raising.
    """
    split = split_diag(Z)
    n = split.E.shape[0]
    T = split.E / split.diagonal[:, None]
    x = np.ones(n, dtype=complex) / np.sqrt(n)
    growth_prev = None
    estimate = None
    for it in range(1, max(iters, 1) + 1):
        y = T @ x
        growth = float(np.linalg.norm(y))
        if growth == 0.0:
            return SpectralEstimate(0.0, True, it)
        x = y / growth
        if growth_prev is not None:
            new_estimate = float(np.sqrt(growth * growth_prev))
            if estimate is not None and abs(new_estimate - estimate) < tol:
                return SpectralEstimate(new_estimate, True, it)
            estimate = new_estimate
        growth_prev = growth
    return SpectralEstimate(
        estimate if estimate is not None else growth_prev, False, max(iters, 1)
    )
