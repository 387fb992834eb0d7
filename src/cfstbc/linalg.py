"""Dense complex linear algebra for linear MIMO decoding.

Exact inversion of Hermitian positive definite matrices behind a Cholesky
check, truncated Neumann-series approximate inversion, and the series'
spectral convergence margin from one Hermitian eigen-solve. A loaded route
factors Z once and returns solve(a, Y): for (P,) loadings a and (..., n, P)
columns Y, the columns of (Z + aI)^-1 Y and of diag((Z + aI)^-1 Z).

Matrices are plain complex ndarrays. The inversion routines,
:func:`split_diag` and :func:`convergence_margins` take a stack of shape
(..., n, n); a 2-D input is a stack of one. Each routine works on the
whole stack through batched numpy calls. Their operation counts are not
tallied here: ``receiver.Inversion.ops`` gives each one's per-matrix cost.
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


@dataclass(frozen=True)
class NeumannSplit:
    """Split Z = D + E with D the diagonal part and E the zero-diagonal rest.

    D is kept as its (..., n) diagonal; :attr:`D` builds the dense matrices.
    """

    diagonal: np.ndarray
    E: np.ndarray

    @property
    def D(self) -> np.ndarray:
        return _with_diagonal(np.zeros_like(self.E), self.diagonal)


def _square_stack(Z: np.ndarray) -> np.ndarray:
    """Z as a complex (..., n, n) stack."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim < 2 or Z.shape[-2] != Z.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {Z.shape}")
    return Z


def _with_diagonal(A: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A with the diagonal of every matrix in the stack set to ``values``."""
    idx = np.arange(A.shape[-1])
    A[..., idx, idx] = values
    return A


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


def exact_inverse(Z: np.ndarray) -> np.ndarray:
    """Invert a stack of Hermitian positive definite matrices.

    One batched Cholesky factorization Z = L L^H (lower triangle) checks
    the whole stack; the inverses then come from one batched
    ``np.linalg.inv``. A nonpositive or non-finite pivot raises
    :class:`SingularMatrixError` carrying the failing index of the first
    bad matrix in the stack.
    """
    Z = _square_stack(Z)
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
    return np.linalg.inv(Z)


def split_diag(Z: np.ndarray) -> NeumannSplit:
    """Split square matrices into diagonal D and remainder E, Z = D + E.

    A zero diagonal entry raises :class:`DegenerateSplitError` with its
    index in the first matrix of the stack that has one.
    """
    Z = _square_stack(Z)
    d = np.diagonal(Z, axis1=-2, axis2=-1)
    zero = np.argwhere(d == 0)
    if zero.size:
        raise DegenerateSplitError(index=int(zero[0, -1]))
    return NeumannSplit(diagonal=d.copy(), E=_with_diagonal(Z.copy(), 0.0))


def neumann_inverse(Z: np.ndarray, R: int) -> np.ndarray:
    """R-term Neumann-series approximation of Z^{-1}, for a stack of Z.

    Evaluates sum_{r=0}^{R-1} (-D^{-1} E)^r D^{-1} for the diagonal split
    Z = D + E. R=1 returns D^{-1} exactly. Convergence is not checked here;
    see :func:`convergence_margins` for the spectral-radius criterion.
    """
    if R < 1:
        raise ValueError(f"series order must be >= 1, got {R}")
    split = split_diag(Z)
    dinv = 1.0 / split.diagonal
    Dinv = _with_diagonal(np.zeros_like(split.E), dinv)
    T = -(dinv[..., :, None] * split.E)
    result = Dinv.copy()
    term = Dinv
    for _ in range(1, R):
        term = T @ term
        result = result + term
    return result


def neumann_r2(Z: np.ndarray) -> np.ndarray:
    """Two-term Neumann approximation D^{-1} - D^{-1} E D^{-1}, for a stack of Z.

    Algebraically identical to ``neumann_inverse(Z, 2)`` but evaluated as
    two diagonal scalings of E, with no dense matrix product.
    """
    split = split_diag(Z)
    dinv = 1.0 / split.diagonal
    out = -((dinv[..., :, None] * split.E) * dinv[..., None, :])
    return _with_diagonal(out, dinv)


def per_loading(invert, Z: np.ndarray):
    """The loaded route that calls ``invert`` on Z + aI once for each loading."""

    def solve(a, Y):
        eye, soft, gains = np.eye(Z.shape[-1]), [], []
        for p, a_p in enumerate(a):
            inv = invert(Z + a_p * eye)
            soft.append((inv @ Y[..., p, None])[..., 0])
            gains.append(np.einsum("...ij,...ji->...i", inv, Z))
        return np.stack(soft, axis=-1), np.stack(gains, axis=-1)

    return solve


def exact_loaded(Z: np.ndarray):
    """The exact loaded route from one eigen-solve Z = U diag(lam) U^H.

    (Z + aI)^-1 Y = U (U^H Y / (lam + a)) and diag((Z + aI)^-1 Z) = |U|^2 (lam / (lam + a)).
    A non-finite or nonpositive lam + a falls back to :func:`exact_inverse`, and its error.
    """
    Z = _square_stack(Z)
    # eigh reads one triangle, and may not converge on a non-finite entry
    lam, U = np.linalg.eigh(Z) if np.isfinite(Z).all() else (np.full(Z.shape[:-1], np.nan), Z)
    Uh, weights = U.conj().swapaxes(-1, -2), U.real**2 + U.imag**2

    def solve(a, Y):
        shifted = lam[..., None] + a
        if not (np.isfinite(shifted).all() and (shifted > 0).all()):
            return per_loading(exact_inverse, Z)(a, Y)
        return U @ ((Uh @ Y) / shifted), weights @ (lam[..., None] / shifted)

    return solve


def neumann_r2_loaded(Z: np.ndarray):
    """The ``neumann_r2`` loaded route from one split Z = diag(d) + E of a Gram stack.

    With dinv = 1/(d + a), a > 0: (Z + aI)^-1 Y = dinv Y - dinv (E (dinv Y)) and
    diag((Z + aI)^-1 Z) = dinv (d - (E o E^T) dinv), o the entrywise product.
    """
    Z = _square_stack(Z)
    d = np.diagonal(Z, axis1=-2, axis2=-1)[..., None]
    E = _with_diagonal(Z.copy(), 0.0)
    EEt = E * E.swapaxes(-1, -2)

    def solve(a, Y):
        dinv = 1.0 / (d + a)
        DY = dinv * Y
        return DY - dinv * (E @ DY), dinv * (d - EEt @ dinv)

    return solve


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
