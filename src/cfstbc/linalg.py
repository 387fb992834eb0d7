"""Dense complex linear algebra for linear MIMO decoding.

Gram matrices, exact inversion of Hermitian positive definite matrices
behind a Cholesky check, truncated Neumann-series approximate inversion,
and the series' spectral convergence margin from one Hermitian
eigen-solve.

Matrices are plain complex ndarrays. The inversion routines,
:func:`split_diag` and :func:`convergence_margins` take a stack of shape
(..., n, n); a 2-D input is a stack of one. Each routine works on the
whole stack through batched numpy calls. Operation counts are tracked at
the complex-operation level: one complex multiply / divide / add is one
unit, never decomposed into real flops. They model the receiver's
algorithms (a Cholesky inverse, the Neumann series), not the LAPACK
routines numpy runs. A stack records the sum of its matrices' counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        return np.diagonal(self.D, axis1=-2, axis2=-1)


def _square_stack(Z: np.ndarray) -> tuple[np.ndarray, int]:
    """Z as a complex (..., n, n) stack, with the number of matrices in it."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim < 2 or Z.shape[-2] != Z.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {Z.shape}")
    return Z, int(np.prod(Z.shape[:-2]))


def _with_diagonal(A: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A with the diagonal of every matrix in the stack set to ``values``."""
    idx = np.arange(A.shape[-1])
    A[..., idx, idx] = values
    return A


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


def _first_bad_pivot(z: np.ndarray) -> int | None:
    """Index of the first nonpositive or non-finite Cholesky pivot of one matrix.

    The pivot LAPACK's zpotrf reports: the order of the first leading
    submatrix whose factorization fails, less one. An infinite entry can
    pass the factorization and surface only in L; the pivot is then the
    first row of L that is not finite. None if the matrix factors cleanly.
    """
    for k in range(1, z.shape[-1] + 1):
        try:
            L = np.linalg.cholesky(z[:k, :k])
        except np.linalg.LinAlgError:
            return k - 1
        if not np.isfinite(L).all():
            return k - 1
    return None


def exact_inverse(Z: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Invert a stack of Hermitian positive definite matrices.

    One batched Cholesky factorization Z = L L^H (lower triangle) checks
    the whole stack; the inverses then come from one batched
    ``np.linalg.inv``. A nonpositive or non-finite pivot raises
    :class:`SingularMatrixError` carrying the failing index of the first
    bad matrix in the stack.

    Recorded operation counts follow the textbook dense Cholesky inverse
    the receiver models, not numpy's LU: the factorization costs
    (n^3 - n)/6 multiplies and adds plus n(n-1)/2 divides, and each
    triangular solve against n right-hand sides costs n^2(n-1)/2
    multiplies and adds plus n^2 divides.
    """
    Z, count = _square_stack(Z)
    n = Z.shape[-1]
    try:
        clean = np.isfinite(np.linalg.cholesky(Z)).all()
    except np.linalg.LinAlgError:
        clean = False
    if not clean:
        for z in Z.reshape(-1, n, n):
            pivot = _first_bad_pivot(z)
            if pivot is not None:
                raise SingularMatrixError(pivot=pivot)
    Zinv = np.linalg.inv(Z)
    if counter is not None:
        counter.add(
            mults=count * ((n**3 - n) // 6 + n**2 * (n - 1)),
            divs=count * (n * (n - 1) // 2 + 2 * n**2),
            adds=count * ((n**3 - n) // 6 + n**2 * (n - 1)),
        )
    return Zinv


def split_diag(Z: np.ndarray) -> NeumannSplit:
    """Split square matrices into diagonal D and remainder E, Z = D + E.

    A zero diagonal entry raises :class:`DegenerateSplitError` with its
    index in the first matrix of the stack that has one.
    """
    Z, _ = _square_stack(Z)
    d = np.diagonal(Z, axis1=-2, axis2=-1)
    zero = np.argwhere(d == 0)
    if zero.size:
        raise DegenerateSplitError(index=int(zero[0, -1]))
    return NeumannSplit(
        D=_with_diagonal(np.zeros_like(Z), d), E=_with_diagonal(Z.copy(), 0.0)
    )


def neumann_inverse(
    Z: np.ndarray, R: int, counter: FlopCounter | None = None
) -> np.ndarray:
    """R-term Neumann-series approximation of Z^{-1}, for a stack of Z.

    Evaluates sum_{r=0}^{R-1} (-D^{-1} E)^r D^{-1} for the diagonal split
    Z = D + E. R=1 returns D^{-1} exactly. Convergence is not checked here;
    see :func:`convergence_margin` for the spectral-radius criterion.

    Counts reflect the generic evaluation: n divides for D^{-1}, n(n-1)
    multiplies to scale E, and a dense n x n matrix product plus a matrix
    add per extra term.
    """
    if R < 1:
        raise ValueError(f"series order must be >= 1, got {R}")
    Z, count = _square_stack(Z)
    n = Z.shape[-1]
    split = split_diag(Z)
    dinv = 1.0 / split.diagonal
    Dinv = _with_diagonal(np.zeros_like(split.E), dinv)
    T = -(dinv[..., :, None] * split.E)
    if counter is not None:
        counter.add(divs=count * n, mults=count * n * (n - 1))
    result = Dinv.copy()
    term = Dinv
    for _ in range(1, R):
        term = T @ term
        result = result + term
        if counter is not None:
            counter.add(mults=count * n**3, adds=count * (n**2 * (n - 1) + n**2))
    return result


def neumann_r2(Z: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Two-term Neumann approximation D^{-1} - D^{-1} E D^{-1}, for a stack of Z.

    Algebraically identical to ``neumann_inverse(Z, 2)`` but evaluated as
    two diagonal scalings of E, so the recorded cost is the cheap form:
    n divides and 2n(n-1) multiplies, no dense matrix product.
    """
    Z, count = _square_stack(Z)
    n = Z.shape[-1]
    split = split_diag(Z)
    dinv = 1.0 / split.diagonal
    out = -((dinv[..., :, None] * split.E) * dinv[..., None, :])
    if counter is not None:
        counter.add(divs=count * n, mults=count * 2 * n * (n - 1))
    return _with_diagonal(out, dinv)


def convergence_margins(Z: np.ndarray) -> np.ndarray:
    """Spectral radius of D^{-1} E for the split Z = D + E of each matrix in a stack.

    The Neumann series for Z^{-1} converges iff this value is below 1.
    For a Hermitian Z with a positive diagonal, D^{-1} E is similar to the
    Hermitian S = D^{-1/2} E D^{-1/2}, so the radius is max |eig(S)|, exact
    up to rounding; one batched eigen-solve serves the whole stack. S has a
    zero diagonal, so a diagonal Z gives exactly 0. Returns one float per
    matrix, shaped as the stack's leading axes.
    """
    split = split_diag(Z)
    s = 1.0 / np.sqrt(split.diagonal.real)
    S = s[..., :, None] * split.E * s[..., None, :]
    return np.max(np.abs(np.linalg.eigvalsh(S)), axis=-1)


def convergence_margin(Z: np.ndarray) -> float:
    """:func:`convergence_margins` of one matrix, as a float."""
    if np.ndim(Z) != 2:
        raise ValueError(f"expected one matrix, got shape {np.shape(Z)}")
    return float(convergence_margins(Z))
