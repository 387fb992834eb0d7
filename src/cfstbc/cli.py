"""Command-line front end: BER sweeps, SE sweeps, and self-diagnostics.

Scenario values come from an optional flat ``key = value`` config file,
overridden by command-line flags. Results land in a CSV whose leading
``#`` lines echo the effective configuration, so a result file is
self-describing and reruns with the same seed are byte-identical.

Exit codes: 0 success, 1 failed diagnostic, 2 configuration error,
3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .golden import equivalent_channel, golden_params, stack_system, verify_exchangeability
from .linalg import (
    DegenerateSplitError,
    SingularMatrixError,
    convergence_margin,
    gram,
)
from .metrics import NOISE_SNR_SCALED, NOISE_UNIT, DegenerateSinrError
from .receiver import Inversion
from .simulate import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    _pin_heap,
    draw_trial,
    run_ber_sweep,
    run_se_sweep,
    trial_rng,
)

ENV_MAX_WORKERS = "CFSTBC_MAX_WORKERS"

_BER_HEADER = "snr_db,ber,ci_halfwidth,bits,conv_margin_mean,mults,divs"
_SE_HEADER = "M,se_mean_per_user,se_sum,conv_margin_mean"


@dataclass(frozen=True)
class CliInvocation:
    """Resolved run-control options, separate from the physics scenario."""

    command: str
    config_path: str | None
    out_path: str
    workers: int
    quiet: bool


def _parse_grid(text: str, cast):
    """Parse 'start:step:stop' (inclusive) or a comma list into a tuple.

    An ``int`` grid takes whole numbers only.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if not np.isfinite([start, step, stop]).all():
            raise ValueError(f"grid {text!r} must be finite")
        if step <= 0:
            raise ValueError(f"grid step must be positive in {text!r}")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"grid {text!r} is empty")
        values = [start + i * step for i in range(count)]
    else:
        values = [float(p) for p in text.split(",") if p.strip()]
    if cast is int and not all(v.is_integer() for v in values):
        raise ValueError(f"grid {text!r} must hold whole numbers")
    return tuple(cast(v) for v in values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfstbc",
        description=(
            "Uplink link-level simulator: cell-free massive MIMO with "
            "dual-antenna Golden-code users and ZF/MMSE decoding."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cfstbc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--L", type=int, default=None, help="number of base stations")
        p.add_argument("--M", type=int, default=None, help="antennas per base station")
        p.add_argument("--K", type=int, default=None, help="number of users")
        p.add_argument(
            "--user-antennas", type=int, default=None, help="antennas per user (1 or 2)"
        )
        p.add_argument("--modulation", default=None, help="bpsk or 4qam")
        p.add_argument("--decoder", default=None, help="zf or mmse")
        p.add_argument(
            "--inversion", default=None, help="Gram inversion: exact or neumann:R"
        )
        p.add_argument("--trials", type=int, default=None, help="trials per grid point")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument(
            "--noise-scale",
            type=float,
            default=None,
            help="diagnostic noise multiplier (0 disables noise)",
        )
        p.add_argument(
            "--margin-trials",
            type=int,
            default=None,
            help="trials sampled for the convergence-margin mean",
        )
        p.add_argument(
            "--noise-term",
            default=None,
            help=f"SINR noise scaling: {NOISE_SNR_SCALED} or {NOISE_UNIT}",
        )
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument(
            "--workers",
            default=None,
            help="decoding processes, counting this one (number or 'auto')",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    ber = sub.add_parser("ber", help="bit-error-rate sweep over an SNR grid")
    add_scenario_flags(ber)
    ber.add_argument(
        "--snr-db", default=None, help="SNR grid in dB: start:step:stop or comma list"
    )

    se = sub.add_parser("se", help="spectral-efficiency sweep over BS antenna counts")
    add_scenario_flags(se)
    se.add_argument(
        "--rho", type=float, default=None, help="linear SNR; SE ignores it unless --noise-term unit"
    )
    se.add_argument(
        "--M-grid",
        dest="m_grid",
        default=None,
        help="BS antenna grid: start:step:stop or comma list",
    )

    diag = sub.add_parser("diag", help="print code-constant and convergence checks")
    diag.add_argument("--M", type=int, default=64)
    diag.add_argument("--K", type=int, default=4)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--inject-bad-params", action="store_true", help=argparse.SUPPRESS)

    return parser


def _fuse_grid_flags(argv):
    """Join '--snr-db -10:2:10' into one token so argparse does not read
    the leading minus of the grid as a new flag."""
    if argv is None:
        return None
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--snr-db" and i + 1 < len(argv):
            out.append(f"--snr-db={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _read_config_file(path: str, problems: list[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    problems.append(f"{path}:{lineno}: expected 'key = value'")
                    continue
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
    except OSError as exc:
        problems.append(f"cannot read config file {path}: {exc}")
    return values


def _file_keys(parser: argparse.ArgumentParser) -> dict:
    """Each ``ber``/``se`` flag's dest and value type, bar config, quiet and help."""
    sweeps = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action.type or str
        for command in ("ber", "se")
        for action in sweeps.choices[command]._actions
        if action.dest not in ("config", "quiet", "help")
    }


_FILE_KEYS = _file_keys(build_parser())


def _merge_settings(args: argparse.Namespace, problems: list[str]) -> dict:
    """File values first, command-line flags on top."""
    merged: dict = {}
    if args.config:
        raw = _read_config_file(args.config, problems)
        for key, text in raw.items():
            if key not in _FILE_KEYS:
                problems.append(f"unknown config key {key!r}")
                continue
            try:
                merged[key] = _FILE_KEYS[key](text)
            except ValueError:
                problems.append(f"config key {key!r}: cannot parse {text!r}")
    for key in _FILE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if getattr(args, "quiet", False):
        merged["quiet"] = True
    return merged


def _assemble(args: argparse.Namespace) -> tuple[ScenarioConfig, CliInvocation]:
    problems: list[str] = []
    merged = _merge_settings(args, problems)

    cfg_fields: dict = {}
    if args.command == "ber":
        cfg_fields["antennas_per_user"] = 2
    for key, target in (
        ("L", "L"),
        ("M", "M"),
        ("K", "K"),
        ("user_antennas", "antennas_per_user"),
        ("modulation", "modulation"),
        ("decoder", "decoder"),
        ("trials", "trials"),
        ("seed", "master_seed"),
        ("noise_scale", "noise_scale"),
        ("margin_trials", "margin_trials"),
        ("noise_term", "noise_term"),
        ("rho", "rho_fixed"),
    ):
        if key in merged:
            cfg_fields[target] = merged[key]
    if "inversion" in merged:
        try:
            cfg_fields["inversion"] = Inversion.parse(str(merged["inversion"]))
        except ValueError as exc:
            problems.append(str(exc))
    if "snr_db" in merged:
        try:
            cfg_fields["snr_grid_db"] = _parse_grid(str(merged["snr_db"]), float)
        except ValueError as exc:
            problems.append(str(exc))
    if "m_grid" in merged:
        try:
            cfg_fields["m_grid"] = _parse_grid(str(merged["m_grid"]), int)
        except ValueError as exc:
            problems.append(str(exc))

    try:
        cfg = ScenarioConfig(**cfg_fields)
    except (TypeError, ValueError) as exc:
        problems.append(str(exc))
        cfg = ScenarioConfig()
    problems.extend(cfg.validate(args.command))

    workers_text = str(merged.get("workers", "auto"))
    workers = 0
    if workers_text == "auto":
        try:  # the CPUs this process may run on, not all the host has
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            workers = os.cpu_count() or 1
    else:
        try:
            workers = int(workers_text)
        except ValueError:
            problems.append(f"--workers must be a number or 'auto', got {workers_text!r}")
        if workers < 1 and not problems:
            problems.append(f"--workers must be >= 1, got {workers}")
    cap = os.environ.get(ENV_MAX_WORKERS)
    if cap is not None:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            problems.append(f"{ENV_MAX_WORKERS} must be an integer, got {cap!r}")

    if problems:
        raise ConfigError(problems)

    invocation = CliInvocation(
        command=args.command,
        config_path=args.config,
        out_path=str(merged.get("out", f"{args.command}.csv")),
        workers=max(1, workers),
        quiet=bool(merged.get("quiet", False)),
    )
    return cfg, invocation


def parse_and_validate(argv) -> tuple[ScenarioConfig, CliInvocation]:
    """Parse argv into a validated scenario plus run-control options.

    Raises :class:`cfstbc.simulate.ConfigError` listing every violation.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fuse_grid_flags(argv))
    if args.command == "diag":
        raise ValueError("diag takes no scenario config")
    return _assemble(args)


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def render_csv(result: RunResult) -> str:
    """Full CSV text: '#' metadata lines, a header row, one row per grid point."""
    lines = [f"# cfstbc = {__version__}", f"# kind = {result.kind}"]
    for key, value in result.config.echo().items():
        lines.append(f"# {key} = {value}")
    if result.kind == "ber":
        lines.append(_BER_HEADER)
        for p in result.points:
            lines.append(
                ",".join(
                    [
                        _fmt(p.snr_db),
                        _fmt(p.estimate.ber),
                        _fmt(p.estimate.confidence_halfwidth),
                        str(p.estimate.bits_total),
                        _fmt(p.conv_margin_mean),
                        str(p.complex_mults),
                        str(p.complex_divs),
                    ]
                )
            )
    else:
        lines.append(_SE_HEADER)
        for p in result.points:
            lines.append(
                ",".join(
                    [
                        str(p.m),
                        _fmt(p.se_mean_per_user),
                        _fmt(p.se_sum),
                        _fmt(p.conv_margin_mean),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def write_results(result: RunResult, path: str) -> None:
    """Render and write in one shot so failed runs never leave partial files."""
    text = render_csv(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _run_sweep(args: argparse.Namespace) -> int:
    cfg, invocation = _assemble(args)

    def show_ber(point):
        print(
            f"snr_db={point.snr_db:g} ber={point.estimate.ber:.4e} "
            f"ci={point.estimate.confidence_halfwidth:.2e} "
            f"bits={point.estimate.bits_total} margin={point.conv_margin_mean:.4f}"
        )

    def show_se(point):
        print(
            f"M={point.m} se_per_user={point.se_mean_per_user:.4f} "
            f"se_sum={point.se_sum:.4f} margin={point.conv_margin_mean:.4f}"
        )

    _pin_heap()
    if invocation.command == "ber":
        progress = None if invocation.quiet else show_ber
        result = run_ber_sweep(cfg, workers=invocation.workers, progress=progress)
    else:
        progress = None if invocation.quiet else show_se
        result = run_se_sweep(cfg, workers=invocation.workers, progress=progress)
    write_results(result, invocation.out_path)
    if not invocation.quiet:
        print(f"wrote {invocation.out_path} in {result.wall_time_s:.1f}s")
    return 0


def _run_diag(args: argparse.Namespace) -> int:
    params = golden_params()
    if args.inject_bad_params:
        params = replace(params, b=params.b + 0.1)

    p_val = abs(params.a) ** 2 + abs(params.c) ** 2
    s_val = abs(params.a * params.b) ** 2 + abs(params.c * params.d) ** 2
    checks = []
    checks.append(("row-energy p = |a|^2+|c|^2", p_val, abs(p_val - 1.0) < 1e-12))
    checks.append(("row-energy s = |ab|^2+|cd|^2", s_val, abs(s_val - 1.0) < 1e-12))

    cfg = ScenarioConfig(L=1, M=args.M, K=args.K, master_seed=args.seed)
    draws = draw_trial(cfg, args.M, trial=0, ber=False)
    rng = trial_rng(args.seed, 0, 0, 0, "bits")
    channels = draws.channels
    H = channels.h[0, 0]
    residual = max(
        verify_exchangeability(
            H, rng.standard_normal(4) + 1j * rng.standard_normal(4), params
        )
        for _ in range(100)
    )
    checks.append(
        ("equivalent-channel residual", residual, residual < 1e-12 * args.M)
    )

    G = stack_system(equivalent_channel(channels.h[0]), channels.profile.betas[0])
    margin = convergence_margin(gram(G))
    checks.append(("series convergence margin", margin, margin < 1.0))

    ok = True
    print(f"golden constants: a={params.a:.12g} b={params.b:.12g}")
    print(f"                  c={params.c:.12g} d={params.d:.12g} gamma={params.gamma:g}")
    for name, value, passed in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name} = {value:.12g}")
    return 0 if ok else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fuse_grid_flags(argv))
    try:
        if args.command == "diag":
            return _run_diag(args)
        return _run_sweep(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (SingularMatrixError, DegenerateSplitError, DegenerateSinrError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())
