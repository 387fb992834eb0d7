"""Dense complex linear algebra for linear MIMO decoding.

Gram matrices, exact inversion of Hermitian positive definite matrices via
one LAPACK Cholesky factorization, truncated Neumann-series approximate
inversion, and the series' spectral convergence margin from one Hermitian
eigen-solve.

Matrices are plain complex ndarrays. Operation counts are tracked at the
complex-operation level: one complex multiply / divide / add is one unit,
never decomposed into real flops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import zpotrf


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


def exact_inverse(Z: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Invert a Hermitian positive definite matrix.

    Cholesky-factors Z = L L^H (LAPACK ``zpotrf``, lower triangle) and
    solves the two triangular systems against the identity, so
    Z^{-1} = L^{-H} L^{-1}. Positive definiteness is validated by the
    factorization itself; a nonpositive or non-finite pivot raises
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
    L, info = zpotrf(Z, lower=True)
    if info == 0 and not np.isfinite(L).all():
        # An infinite entry can pass the factorization and surface only in
        # L; the pivot is then the first row of L that is not finite.
        info = 1 + int(np.argmin(np.isfinite(L).all(axis=1)))
    if info > 0:
        raise SingularMatrixError(pivot=info - 1)
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


def convergence_margin(Z: np.ndarray) -> float:
    """Spectral radius of D^{-1} E for the split Z = D + E.

    The Neumann series for Z^{-1} converges iff this value is below 1.
    For a Hermitian Z with a positive diagonal, D^{-1} E is similar to the
    Hermitian S = D^{-1/2} E D^{-1/2}, so the radius is max |eig(S)|, exact
    up to rounding. S has a zero diagonal, so a diagonal Z gives exactly 0.
    """
    split = split_diag(Z)
    s = 1.0 / np.sqrt(split.diagonal.real)
    S = s[:, None] * split.E * s[None, :]
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))
