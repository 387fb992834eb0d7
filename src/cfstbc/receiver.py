"""Linear decoding: constellations, the Gram inversion choice, detection.

Each base station's ZF or MMSE filter inverts its Gram matrix Z; the
inversion is pluggable, exact Cholesky or a truncated Neumann series, each
with its per-inverse operation count. The central unit sums the per-BS
soft outputs and their effective symbol gains, then :func:`detect` slices
each combined entry against the constellation. The simulator applies the
filters in the Gram domain (see ``simulate._block``) and never forms them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy symbol set with a Gray bit mapping.

    ``bit_patterns[i]`` are the bits of point i; the patterns are the
    binary expansion of the index, so modulation is a table lookup.
    """

    name: str
    points: np.ndarray
    bit_patterns: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        patterns = np.asarray(self.bit_patterns, dtype=np.uint8)
        if len(points) != len(patterns):
            raise ValueError("one bit pattern per constellation point required")
        if not np.isclose(np.mean(np.abs(points) ** 2), 1.0):
            raise ValueError(f"{self.name}: points must have unit average energy")
        weights = 1 << np.arange(patterns.shape[1] - 1, -1, -1)
        if sorted(patterns @ weights) != list(range(len(points))):
            raise ValueError(f"{self.name}: bit map must be a bijection")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bit_patterns", patterns)

    @property
    def bits_per_symbol(self) -> int:
        return self.bit_patterns.shape[1]

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a flat bit array to symbols, ``bits_per_symbol`` bits each."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size % self.bits_per_symbol:
            raise ValueError(
                f"bit count must be a positive multiple of {self.bits_per_symbol}"
            )
        groups = bits.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        return self.points[groups @ weights]

    def nearest_index(self, values: np.ndarray) -> np.ndarray:
        """Index of the closest point for each value; ties pick the lowest."""
        values = np.asarray(values, dtype=complex)
        distance = np.abs(values[..., None] - self.points)
        return np.argmin(distance, axis=-1)

    def demodulate(self, points: np.ndarray) -> np.ndarray:
        """Map symbols back to bits by nearest-point lookup."""
        idx = self.nearest_index(points)
        return self.bit_patterns[idx].reshape(-1)


BPSK = Constellation(
    name="BPSK",
    points=np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    bit_patterns=np.array([[0], [1]]),
)

QAM4 = Constellation(
    name="4QAM",
    points=np.array([1.0 + 1.0j, 1.0 - 1.0j, -1.0 + 1.0j, -1.0 - 1.0j]) / np.sqrt(2.0),
    bit_patterns=np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),
)

CONSTELLATIONS = {"bpsk": BPSK, "4qam": QAM4}


@dataclass(frozen=True)
class Inversion:
    """Choice of Gram-inversion routine: exact or Neumann of a given order.

    Order 2 dispatches to the specialized two-term form, whose cost
    :meth:`ops` counts as such.
    """

    method: str
    order: int | None = None

    def __post_init__(self):
        if self.method not in ("exact", "neumann"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if self.method == "neumann" and (self.order is None or self.order < 1):
            raise ValueError("neumann inversion needs an order >= 1")
        if self.method == "exact" and self.order is not None:
            raise ValueError("exact inversion takes no order")

    @classmethod
    def exact(cls) -> "Inversion":
        return cls(method="exact")

    @classmethod
    def neumann(cls, order: int) -> "Inversion":
        return cls(method="neumann", order=order)

    @classmethod
    def parse(cls, text: str) -> "Inversion":
        """Parse 'exact' or 'neumann:R'."""
        text = text.strip().lower()
        if text == "exact":
            return cls.exact()
        if text.startswith("neumann:"):
            try:
                return cls.neumann(int(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad inversion spec {text!r}") from exc
        raise ValueError(f"bad inversion spec {text!r}, expected exact or neumann:R")

    @property
    def label(self) -> str:
        return "exact" if self.method == "exact" else f"neumann:{self.order}"

    def invert(self, Z: np.ndarray) -> np.ndarray:
        """Inverse (or its approximation) of each matrix in a (..., n, n) stack."""
        if self.method == "exact":
            return linalg.exact_inverse(Z)
        if self.order == 2:
            return linalg.neumann_r2(Z)
        return linalg.neumann_inverse(Z, self.order)

    def ops(self, n: int) -> tuple[int, int, int]:
        """Complex (multiplies, divides, adds) to invert one n x n matrix.

        One complex operation is one unit. The counts model the receiver's
        algorithms, not the LAPACK routines numpy runs. Exact is the textbook
        Cholesky inverse: (n^3 - n)/6 multiplies and adds plus n(n-1)/2
        divides to factor, then two triangular solves against n right-hand
        sides, each n^2(n-1)/2 multiplies and adds plus n^2 divides. Neumann
        takes n divides for D^-1 and n(n-1) multiplies to scale E, then a
        dense product and a matrix add (n^3 multiplies, n^3 adds) per term
        after the first; order 2 scales E twice, 2n(n-1) multiplies.
        """
        if self.method == "exact":
            solve = (n**3 - n) // 6 + n**2 * (n - 1)
            return solve, n * (n - 1) // 2 + 2 * n**2, solve
        if self.order == 2:
            return 2 * n * (n - 1), n, 0
        terms = self.order - 1
        return n * (n - 1) + terms * n**3, n, terms * n**3


# perfbench/selftest.py imports this until the benchmark's repair (ROADMAP item 1).
@dataclass(frozen=True)
class DecoderMatrix:
    """Per-BS linear decoder with its provenance.

    ``gains`` holds the diagonal of A @ G (the effective per-symbol gains
    the detector scales against), computed as 4K inner products rather
    than the full product.
    """

    A: np.ndarray
    kind: str
    inversion: Inversion
    gram: np.ndarray
    gains: np.ndarray


def detect(
    r: np.ndarray,
    combined_gain: np.ndarray,
    rho: float,
    constellation: Constellation,
) -> np.ndarray:
    """Nearest-point decision: argmin_x |r - sqrt(rho/2) x g|, per entry.

    Ties resolve to the lowest constellation index. Works on scalars or
    arrays elementwise.
    """
    r = np.asarray(r, dtype=complex)
    g = np.asarray(combined_gain, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise ValueError("combined gain must be finite")
    candidates = np.sqrt(rho / 2.0) * g[..., None] * constellation.points
    idx = np.argmin(np.abs(r[..., None] - candidates), axis=-1)
    return constellation.points[idx]
