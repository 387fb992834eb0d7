"""Linear decoding: ZF/MMSE matrix construction, soft combining, detection.

Each base station applies its own decoder A_l to the vectorized receive
block; the central unit sums the per-BS soft outputs and their effective
symbol gains, then slices each combined entry against the constellation.
The Gram-matrix inversion inside A_l is pluggable: exact Cholesky or a
truncated Neumann series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import FlopCounter


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

    Order 2 dispatches to the specialized two-term form so the recorded
    operation counts reflect its low cost.
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

    def invert(self, Z: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """Inverse (or its approximation) of each matrix in a (..., n, n) stack."""
        if self.method == "exact":
            return linalg.exact_inverse(Z, counter)
        if self.order == 2:
            return linalg.neumann_r2(Z, counter)
        return linalg.neumann_inverse(Z, self.order, counter)


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


def zf_matrix(
    G: np.ndarray, inversion: Inversion, counter: FlopCounter | None = None
) -> DecoderMatrix:
    """Zero-forcing decoder A = inv(G^H G) G^H with the selected inverter."""
    Z = linalg.gram(G)
    Zinv = inversion.invert(Z, counter)
    A = Zinv @ G.conj().T
    gains = np.sum(A.T * G, axis=0)  # diag(A @ G) without the full product
    return DecoderMatrix(A=A, kind="zf", inversion=inversion, gram=Z, gains=gains)


def mmse_matrix(
    G: np.ndarray,
    rho: float,
    inversion: Inversion,
    counter: FlopCounter | None = None,
) -> DecoderMatrix:
    """MMSE decoder A = inv(G^H G + (2/rho) I) G^H with the selected inverter."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    Z = linalg.gram(G) + (2.0 / rho) * np.eye(G.shape[1])
    Zinv = inversion.invert(Z, counter)
    A = Zinv @ G.conj().T
    gains = np.sum(A.T * G, axis=0)  # diag(A @ G) without the full product
    return DecoderMatrix(A=A, kind="mmse", inversion=inversion, gram=Z, gains=gains)


def per_bs_soft(
    decoder: DecoderMatrix, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Soft symbol vector A @ y at one BS plus the effective symbol gains."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (decoder.A.shape[1],):
        raise ValueError(
            f"received vector has shape {y.shape}, decoder expects "
            f"({decoder.A.shape[1]},)"
        )
    return decoder.A @ y, decoder.gains


def cpu_combine(
    soft: list[np.ndarray], gains: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-BS soft vectors and gains at the central unit."""
    if len(soft) < 1 or len(soft) != len(gains):
        raise ValueError("need one gain vector per soft vector, at least one BS")
    shapes = {np.shape(s) for s in soft} | {np.shape(g) for g in gains}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent vector lengths: {sorted(shapes)}")
    return np.sum(soft, axis=0), np.sum(gains, axis=0)


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
