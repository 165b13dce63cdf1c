"""CLI contract: config parsing, exit codes, CSV format, determinism."""

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bandmoment import cli


def run_cli(args):
    return cli.main(args)


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_SCAN = """
ensemble = band
n_dim = 6
bandwidth = 3
lambda0 = 0.0
xi_grid = 0,0; 0.25,-0.25
samples = 2000
seed = 42
"""


class TestConfig:
    def test_missing_file_exits_2(self, capsys):
        assert run_cli(["moment-scan", "--config", "/no/such/file", "--out", "x.csv"]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_bad_ensemble(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "ensemble = frob\nn_dim = 4\nout = x.csv\n")
        assert run_cli(["moment-scan", "--config", cfg]) == 2

    def test_bandwidth_theta_exclusive(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "ensemble = band\nn_dim = 4\nbandwidth=2\ntheta=1\nout=x.csv\n")
        assert run_cli(["moment-scan", "--config", cfg]) == 2

    def test_theta_resolves_bandwidth(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "ensemble = band\nn_dim = 16\ntheta = 1.0\n"
                        "xi_grid = 0,0\nsamples = 100\nseed = 1\nout = x\n")

        class Args:
            config = cfg
            seed = None
            threads = None
            samples = None
            out = None

        parsed = cli.build_config(Args())
        assert parsed.bandwidth == 16.0  # round(16^1)
        assert parsed.theta == 1.0

    def test_lambda0_bulk_guard(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "ensemble = gue\nn_dim = 4\nlambda0 = 2.0\n"
                        "xi_grid = 0,0\nout = x.csv\n")
        assert run_cli(["moment-scan", "--config", cfg]) == 2

    @pytest.mark.parametrize("bandwidth", ["inf", "1e200"])
    def test_bandwidth_square_must_be_finite(self, tmp_path, capsys, bandwidth):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN.replace("bandwidth = 3",
                                                              f"bandwidth = {bandwidth}"))
        out = tmp_path / "scan.csv"
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "bandwidth must be positive, with a finite square" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["moment-scan", "spectrum"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 4\nsamples = 10\n")
        out = str(tmp_path / "missing" / "x.csv")
        assert run_cli([command, "--config", cfg, "--out", out, "--quiet"]) == 2
        assert f"invalid config: cannot write {out}" in capsys.readouterr().err

    def test_env_threads_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BANDMOMENT_THREADS", "3")
        cfg = write_cfg(tmp_path / "c.cfg",
                        "ensemble = gue\nn_dim = 4\nxi_grid = 0,0\n"
                        "samples = 10\nout = x\n")

        class Args:
            config = cfg
            seed = None
            threads = None
            samples = None
            out = None

        assert cli.build_config(Args()).threads == 3


class TestMomentScan:
    def test_runs_and_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        out = tmp_path / "scan.csv"
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["xi1", "xi2", "ratio", "stderr", "sine_ref", "deviation",
                          "n_dim", "bandwidth", "samples", "seed"]
        assert len(lines) == 3

    def test_coincident_row_is_exact(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        out = tmp_path / "scan.csv"
        run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"])
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        first = rows[1]
        assert float(first[2]) == 1.0 and float(first[5]) == 0.0

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["moment-scan", "--config", cfg, "--out", str(a), "--quiet"])
        run_cli(["moment-scan", "--config", cfg, "--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_independent(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        outs = []
        for threads in (1, 4, 8):
            p = tmp_path / f"t{threads}.csv"
            run_cli(["moment-scan", "--config", cfg, "--out", str(p),
                     "--threads", str(threads), "--quiet"])
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_floats_roundtrip_17_digits(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        out = tmp_path / "scan.csv"
        run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"])
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        ratio = float(rows[2][2])
        assert f"{ratio:.17g}" == rows[2][2]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["moment-scan", "--config", cfg, "--out", str(a), "--quiet"])
        run_cli(["moment-scan", "--config", cfg, "--out", str(b), "--seed", "43", "--quiet"])
        assert a.read_bytes() != b.read_bytes()


class TestSpectrum:
    def test_histogram_mass_and_ks(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", """
ensemble = band
n_dim = 101
bandwidth = 10
samples = 8
seed = 7
bins = 60
""")
        out = tmp_path / "spectrum.csv"
        assert run_cli(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        text = out.read_text().splitlines()
        rows = [l.split(",") for l in text if not l.startswith("#")]
        masses = np.array([float(r[2]) for r in rows[1:]])
        assert abs(masses.sum() - 1.0) <= 1e-12
        ks_line = [l for l in text if l.startswith("# ks_distance=")]
        assert len(ks_line) == 1
        assert 0.0 <= float(ks_line[0].split("=")[1]) <= 1.0

    def test_symmetric_bins_agree(self, tmp_path):
        # distribution is symmetric under lambda -> -lambda
        cfg = write_cfg(tmp_path / "c.cfg", """
ensemble = gue
n_dim = 200
samples = 10
seed = 11
bins = 20
lambda_min = -2.5
lambda_max = 2.5
""")
        out = tmp_path / "spectrum.csv"
        run_cli(["spectrum", "--config", cfg, "--out", str(out), "--quiet"])
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        masses = np.array([float(r[2]) for r in rows[1:]])
        total = 10 * 200
        for m_lo, m_hi in zip(masses, masses[::-1]):
            p = (m_lo + m_hi) / 2
            se = np.sqrt(max(p * (1 - p) / total, 1e-12))
            assert abs(m_lo - m_hi) <= 3 * np.sqrt(2) * se + 2 / total


    def test_large_n_thread_count_independent(self, tmp_path):
        # from n = 400 the two-stage reduction runs; the CSV must not depend on --threads
        cfg = write_cfg(tmp_path / "c.cfg",
                        "ensemble = band\nn_dim = 400\nbandwidth = 40\nsamples = 3\nseed = 9\n")
        outs = []
        for threads in (1, 2):
            p = tmp_path / f"t{threads}.csv"
            assert run_cli(["spectrum", "--config", cfg, "--out", str(p),
                            "--threads", str(threads), "--quiet"]) == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_saddle_suite_passes(self, capsys):
        assert run_cli(["verify", "saddle"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_lattice_suite_contains_pinned_value(self, capsys):
        assert run_cli(["verify", "lattice"]) == 0
        assert "T_2(0.5)=2.75 expected 2.75 PASS" in capsys.readouterr().out

    def test_all_suites_exit_zero(self, capsys):
        assert run_cli(["verify", "all", "--quiet"]) == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "nonsense"])
        assert exc.value.code == 2


def test_progress_step_is_thread_safe():
    # more threads than cores and a short switch interval; a lost update breaks the total
    progress = cli._Progress("stress", 0, quiet=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [progress.step() for _ in range(20_000)])
                   for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert progress.done == 8 * 20_000


def test_spectrum_failure_cancels_queued_samples(tmp_path, monkeypatch):
    from bandmoment import charpoly

    reduce, started = charpoly.tridiagonalize, []

    def fake(H, overwrite_a=False):
        started.append(1)
        if len(started) == 2:
            raise RuntimeError("sample failed")
        time.sleep(0.05)
        return reduce(H, overwrite_a)

    monkeypatch.setattr(charpoly, "tridiagonalize", fake)
    cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 16\nsamples = 64\nseed = 3\n")
    with pytest.raises(RuntimeError, match="sample failed"):
        run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--threads", "2", "--quiet"])
    assert len(started) < 64


@pytest.mark.parametrize("command", ["moment-scan", "spectrum"])
def test_interrupt_in_progress_cancels_queued_work(tmp_path, monkeypatch, command):
    # Ctrl-C raised on the calling thread, in the progress callback, with workers busy
    from bandmoment import charpoly
    from bandmoment import moments as mo

    started = []
    if command == "moment-scan":
        def fake_chunk(profile, lambdas, seed, start, count, signs, logs):
            started.append(start)
            time.sleep(0.05)

        monkeypatch.setattr(mo, "_eval_chunk", fake_chunk)
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN.replace("samples = 2000",
                                                              f"samples = {64 * mo._CHUNK}"))
    else:
        reduce = charpoly.tridiagonalize

        def fake(H, overwrite_a=False):
            started.append(1)
            time.sleep(0.05)
            return reduce(H, overwrite_a)

        monkeypatch.setattr(charpoly, "tridiagonalize", fake)
        cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 16\nsamples = 64\nseed = 3\n")

    def interrupt(self, amount=1):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli._Progress, "step", interrupt)
    code = run_cli([command, "--config", cfg, "--out", str(tmp_path / "out.csv"),
                    "--threads", "2", "--quiet"])
    assert code == 130
    assert 1 <= len(started) < 64


def test_interrupt_flushes_incomplete_trailer(tmp_path, monkeypatch):
    from bandmoment import moments as mo

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(mo, "moment_scan", boom)
    cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
    out = tmp_path / "scan.csv"
    code = run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 130
    assert out.read_text().rstrip().endswith("# INCOMPLETE")


def test_estimator_failure_exits_3_with_closed_csv(tmp_path, monkeypatch, capsys):
    from bandmoment import moments as mo

    def fail(*args, **kwargs):
        raise mo.EstimatorError("all samples rejected")

    close, closed = cli._CsvWriter.close, []
    monkeypatch.setattr(mo, "moment_scan", fail)
    monkeypatch.setattr(cli._CsvWriter, "close", lambda self: closed.append(close(self)))
    cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
    out = tmp_path / "scan.csv"
    code = run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 3 and len(closed) == 1
    assert "estimator failure: all samples rejected" in capsys.readouterr().err
    text = out.read_text()
    assert text.splitlines()[-1].startswith("xi1,xi2,ratio,")
    assert "INCOMPLETE" not in text


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bandmoment.cli", "verify", "saddle",
                           "--quiet"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == b""
