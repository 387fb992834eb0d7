"""The benchmark's workloads: each is a fixed list of CLI sweeps.

One *round* runs every sweep of a workload once. Trial counts are scaled
down from the acceptance criteria so a round takes a few seconds on two
cores; the mix of sweeps, the system sizes and the grids are kept. With
``TRIAL_CHUNK = 256`` trials per work unit, every grid point here is one
chunk: a desk round with two chunks per point would take ~50 s on two
cores, longer than one run may take. Margins are sampled on 1 trial in 8,
the ratio behind the ROADMAP's serial baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

BYTES_PER_COMPLEX = 16


@dataclass(frozen=True)
class Sweep:
    """One ``cfstbc ber`` or ``cfstbc se`` invocation."""

    name: str
    kind: str  # "ber" or "se"
    decoder: str
    inversion: str
    dual: bool
    L: int
    K: int
    trials: int
    margin_trials: int
    M: int = 0  # BER sweeps: antennas per BS
    snr_db: tuple[float, ...] = ()  # BER sweeps
    m_grid: tuple[int, ...] = ()  # SE sweeps
    rho: float = 10.0  # SE sweeps

    @property
    def grid(self) -> tuple:
        return self.snr_db if self.kind == "ber" else self.m_grid

    @property
    def modulation(self) -> str:
        return "bpsk" if self.dual else "4qam"

    def bits_per_trial(self) -> int:
        bits_per_symbol = 1 if self.modulation == "bpsk" else 2
        return self.K * (4 if self.dual else 1) * bits_per_symbol

    def argv(self, seed: int, workers: int, out: str, trials: int | None = None) -> list[str]:
        """Command line for ``cfstbc.cli.main``."""
        argv = [
            self.kind,
            "--L", str(self.L),
            "--K", str(self.K),
            "--user-antennas", "2" if self.dual else "1",
            "--modulation", self.modulation,
            "--decoder", self.decoder,
            "--inversion", self.inversion,
            "--trials", str(self.trials if trials is None else trials),
            "--margin-trials", str(self.margin_trials),
            "--seed", str(seed),
            "--workers", str(workers),
            "--out", out,
            "--quiet",
        ]
        if self.kind == "ber":
            argv += ["--M", str(self.M), "--snr-db=" + ",".join(f"{v:g}" for v in self.snr_db)]
        else:
            argv += ["--rho", f"{self.rho:g}", "--M-grid", ",".join(str(m) for m in self.m_grid)]
        return argv

    def antenna_counts(self) -> tuple[int, ...]:
        """BS antenna count of each grid point."""
        return (self.M,) * len(self.snr_db) if self.kind == "ber" else self.m_grid

    def system_shape(self, m: int) -> tuple[int, int]:
        """(rows, columns) of the per-BS system matrix G the decoder sees."""
        return (2 * m, 4 * self.K) if self.dual else (m, self.K)

    def computed_per_trial(self) -> dict[str, float]:
        """Work per trial derived from the shapes, averaged over the grid.

        Computed, not measured: MACs of G^H G, bytes of the stacked G built
        by ``golden`` (dual-antenna sweeps only) and of the decoder A.
        """
        ms = self.antenna_counts()
        macs = stacked = decoder = 0.0
        for m in ms:
            rows, cols = self.system_shape(m)
            macs += self.L * rows * cols * cols
            decoder += self.L * rows * cols * BYTES_PER_COMPLEX
            if self.dual:
                stacked += self.L * rows * cols * BYTES_PER_COMPLEX
        n = len(ms)
        return {"gram_macs": macs / n, "stacked_bytes": stacked / n, "decoder_bytes": decoder / n}


def _desk() -> tuple[Sweep, ...]:
    # Criterion 7's six sweeps: ZF and MMSE x (exact, neumann:2) with
    # dual-antenna BPSK, plus exact single-antenna 4QAM.
    grid = tuple(float(v) for v in range(-10, 12, 2))
    base = dict(kind="ber", L=4, M=64, K=4, snr_db=grid, trials=32, margin_trials=4)
    sweeps = []
    for decoder in ("zf", "mmse"):
        sweeps.append(Sweep(f"{decoder}-exact", decoder=decoder, inversion="exact", dual=True, **base))
        sweeps.append(Sweep(f"{decoder}-neumann2", decoder=decoder, inversion="neumann:2", dual=True, **base))
        sweeps.append(Sweep(f"{decoder}-single", decoder=decoder, inversion="exact", dual=False, **base))
    return tuple(sweeps)


WORKLOADS: dict[str, tuple[Sweep, ...]] = {
    # Per-trial Python overhead dominates: 16x16 Grams, 25 RNG streams a trial.
    "desk-ber": _desk(),
    # full_ber_config(): 512x40 products dominate; short SNR grid.
    "full-ber": (
        Sweep(
            "zf-neumann2", kind="ber", decoder="zf", inversion="neumann:2", dual=True,
            L=4, M=256, K=10, snr_db=(-10.0, -5.0, 0.0, 5.0, 10.0),
            trials=32, margin_trials=4,
        ),
    ),
    # Criterion 8: the only workload that runs ``metrics``; exact 40x40
    # inversion, no noise or detection.
    "se-grid": tuple(
        Sweep(
            name, kind="se", decoder="zf", inversion="exact", dual=dual,
            L=4, K=10, m_grid=(50, 200, 350, 500), rho=10.0,
            trials=16, margin_trials=2,
        )
        for name, dual in (("dual", True), ("single", False))
    ),
}
