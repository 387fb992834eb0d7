import os

import pytest

from cfstbc import ConfigError, Inversion, ScenarioConfig, run_ber_sweep, run_se_sweep
from cfstbc.cli import (
    _parse_grid,
    main,
    parse_and_validate,
    render_csv,
    write_results,
)


class TestGridParsing:
    def test_span_with_negative_start(self):
        grid = _parse_grid("-10:2:10", float)
        assert grid == tuple(float(v) for v in range(-10, 12, 2))
        assert len(grid) == 11

    def test_antenna_span(self):
        assert _parse_grid("50:50:500", int) == tuple(range(50, 550, 50))

    def test_comma_list(self):
        assert _parse_grid("1,2.5,4", float) == (1.0, 2.5, 4.0)

    def test_single_value(self):
        assert _parse_grid("7", int) == (7,)

    @pytest.mark.parametrize("bad", ["1:2", "1:0:5", "5:1:1", "a,b", "0:1:inf", "nan:1:5"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            _parse_grid(bad, float)

    @pytest.mark.parametrize("bad", ["50.7,100", "50:25.5:150", "nan", "inf", "1e400"])
    def test_int_grid_takes_whole_numbers(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            _parse_grid(bad, int)


class TestParseAndValidate:
    def test_full_scale_ber_flags(self):
        cfg, invocation = parse_and_validate(
            "ber --M 256 --K 10 --L 4 --decoder zf --inversion neumann:2 "
            "--snr-db -10:2:10 --trials 200 --seed 7".split()
        )
        assert cfg.M == 256 and cfg.K == 10 and cfg.L == 4
        assert cfg.decoder == "zf"
        assert cfg.inversion == Inversion.neumann(2)
        assert cfg.snr_grid_db == tuple(float(v) for v in range(-10, 12, 2))
        assert cfg.trials == 200 and cfg.master_seed == 7
        assert cfg.validate("ber") == []
        assert invocation.command == "ber"

    def test_se_sweep_flags(self):
        cfg, _ = parse_and_validate("se --K 10 --rho 10 --M-grid 50:50:500".split())
        assert cfg.K == 10 and cfg.rho_fixed == 10.0
        assert cfg.m_grid == tuple(range(50, 550, 50))
        assert cfg.validate("se") == []

    def test_rank_violation_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_and_validate("ber --M 4 --K 10 --snr-db 0".split())
        assert any("2M >= 4K" in p for p in err.value.problems)

    def test_multiple_problems_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_and_validate(
                "ber --M 4 --K 10 --snr-db 0 --trials 0 --modulation 16qam".split()
            )
        assert len(err.value.problems) >= 3

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment line\nM = 16\nK = 2\nL = 2\nsnr_db = 0,4\ntrials = 50\nseed = 5\n"
        )
        cfg, _ = parse_and_validate(["ber", "--config", str(conf), "--trials", "20"])
        assert cfg.M == 16 and cfg.trials == 20 and cfg.master_seed == 5
        assert cfg.snr_grid_db == (0.0, 4.0)

    def test_config_file_unknown_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("M = 16\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_and_validate(["ber", "--config", str(conf), "--snr-db", "0"])
        assert any("bogus" in p for p in err.value.problems)

    def test_workers_env_cap(self, monkeypatch):
        monkeypatch.setenv("CFSTBC_MAX_WORKERS", "1")
        _, invocation = parse_and_validate(
            "ber --M 16 --K 2 --snr-db 0 --workers 8".split()
        )
        assert invocation.workers == 1

    def test_workers_auto_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("CFSTBC_MAX_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        _, invocation = parse_and_validate(
            "ber --M 16 --K 2 --snr-db 0 --workers auto".split()
        )
        assert invocation.workers == 1

    def test_workers_auto_without_affinity_call(self, monkeypatch):
        monkeypatch.delenv("CFSTBC_MAX_WORKERS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        _, invocation = parse_and_validate("ber --M 16 --K 2 --snr-db 0".split())
        assert invocation.workers == 3


@pytest.fixture(scope="module")
def ber_result():
    cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(-2.0, 2.0), trials=40, margin_trials=4)
    return run_ber_sweep(cfg)


@pytest.fixture(scope="module")
def se_result():
    cfg = ScenarioConfig(L=2, K=2, m_grid=(8, 16), trials=20, margin_trials=4)
    return run_se_sweep(cfg)


class TestCsvRendering:
    def test_ber_header_is_frozen(self, ber_result):
        body = [
            line
            for line in render_csv(ber_result).splitlines()
            if not line.startswith("#")
        ]
        assert body[0] == "snr_db,ber,ci_halfwidth,bits,conv_margin_mean,mults,divs"
        assert len(body) == 3

    def test_se_header_is_frozen(self, se_result):
        body = [
            line
            for line in render_csv(se_result).splitlines()
            if not line.startswith("#")
        ]
        assert body[0] == "M,se_mean_per_user,se_sum,conv_margin_mean"

    def test_metadata_echoes_config(self, ber_result):
        text = render_csv(ber_result)
        assert "# M = 16" in text
        assert "# master_seed = 0" in text
        assert "# inversion = exact" in text

    def test_rows_newline_terminated(self, ber_result):
        assert render_csv(ber_result).endswith("\n")

    def test_ten_significant_digits(self):
        cfg = ScenarioConfig(L=1, M=8, K=1, snr_grid_db=(0.0,), trials=9, margin_trials=1)
        text = render_csv(run_ber_sweep(cfg))
        row = [l for l in text.splitlines() if not l.startswith("#")][1]
        ber_field = row.split(",")[1]
        # 1/36 needs all ten digits
        assert ber_field == f"{1/36:.10g}" or len(ber_field.replace('.', '').lstrip('0')) <= 10

    def test_write_results_round_trip(self, tmp_path, ber_result):
        path = tmp_path / "out.csv"
        write_results(ber_result, str(path))
        assert path.read_text() == render_csv(ber_result)


class TestDeterminismThroughCli:
    def test_same_seed_byte_identical(self, tmp_path):
        args = (
            "ber --M 16 --K 2 --L 2 --snr-db -2:4:2 --trials 60 --seed 11 "
            "--margin-trials 4 --quiet --workers 1"
        ).split()
        rc1 = main(args + ["--out", str(tmp_path / "a.csv")])
        rc2 = main(args + ["--out", str(tmp_path / "b.csv")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestExitCodes:
    def test_config_error_is_2(self, capsys, tmp_path):
        rc = main(["ber", "--M", "4", "--K", "10", "--snr-db", "0"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_no_partial_file_on_config_error(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = main(["ber", "--M", "16", "--K", "2", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["ber --trials 2 --snr-db 0", "se --trials 2 --M-grid 8 --K 1 --L 1"]
    )
    def test_unknown_noise_term_is_a_config_error(self, command, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(command.split() + ["--noise-term", "bogus", "--quiet", "--out", str(out)])
        assert rc == 2
        assert "config error: noise_term" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,name",
        [
            ("ber --snr-db nan", "snr_grid_db"),
            ("ber --snr-db inf", "snr_grid_db"),
            ("ber --snr-db 0 --noise-scale nan", "noise_scale"),
            ("se --M-grid 8 --noise-term unit --rho nan", "rho_fixed"),
            ("se --M-grid 8 --noise-term unit --rho inf", "rho_fixed"),
            ("se --decoder mmse --M-grid 0,8", "m_grid"),
            ("se --M-grid=-8,8", "m_grid"),
            ("se --M-grid 8.7,16", "grid '8.7,16'"),
        ],
    )
    def test_bad_number_is_a_config_error(self, command, name, tmp_path, capsys):
        out = tmp_path / "never.csv"
        argv = command.split() + ["--K", "1", "--L", "1", "--trials", "2", "--quiet"]
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert f"config error: {name}" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_grid_in_config_file_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "se.cfg"
        config.write_text("K = 1\nL = 1\nm_grid = 8.7,16\n", encoding="utf-8")
        out = tmp_path / "never.csv"
        assert main(["se", "--config", str(config), "--quiet", "--out", str(out)]) == 2
        assert "whole numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_is_4(self, tmp_path, capsys):
        rc = main(
            [
                "ber", "--M", "8", "--K", "1", "--L", "1", "--snr-db", "0",
                "--trials", "2", "--quiet",
                "--out", str(tmp_path / "missing" / "x.csv"),
            ]
        )
        assert rc == 4

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["ber", "--bogus-flag", "1"])
        assert err.value.code == 2

    def test_diag_passes_by_default(self, capsys):
        assert main(["diag"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_diag_detects_injected_bad_constant(self, capsys):
        assert main(["diag", "--inject-bad-params"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_diag_reports_margin_below_one(self, capsys):
        assert main(["diag", "--M", "64", "--K", "4"]) == 0
        out = capsys.readouterr().out
        assert "series convergence margin" in out


class TestSweepThroughCli:
    def test_ber_progress_and_file(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        rc = main(
            "ber --M 16 --K 2 --L 2 --snr-db 0,4 --trials 30 --workers 1 "
            f"--margin-trials 2 --out {out}".split()
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.count("snr_db=") == 2
        assert out.exists()

    def test_se_through_cli(self, tmp_path):
        out = tmp_path / "se.csv"
        rc = main(
            f"se --K 2 --L 2 --M-grid 8,16 --rho 10 --trials 10 --quiet "
            f"--workers 1 --out {out}".split()
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("16,")
