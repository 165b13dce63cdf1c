"""CLI contract: config parsing, exit codes, CSV format, determinism."""

import argparse
import dataclasses
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from bandmoment import cli


README = Path(__file__).resolve().parent.parent / "README.md"


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
    @pytest.mark.parametrize("n_dim, bandwidth, shown", [
        (3, "3e7", "3e+07"),      # J.1 = 1 only to 8e-2
        (6, "1e8", "1e+08"),      # W^2 + 1 rounds to W^2: the solve breaks down
        (6, "1e154", "1e+154"),   # W^2 K overflows
    ])
    def test_bandwidth_too_large_for_n_dim_exits_2(self, tmp_path, capsys, command, n_dim,
                                                   bandwidth, shown):
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN.replace("n_dim = 6", f"n_dim = {n_dim}")
                        .replace("bandwidth = 3", f"bandwidth = {bandwidth}"))
        out = tmp_path / "x.csv"
        assert run_cli([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert (f"invalid config: bandwidth W={shown} is too large for n={n_dim}"
                in capsys.readouterr().err)
        assert not out.exists()  # the profile is built before the CSV opens

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


    @pytest.mark.parametrize("key, text", [("xi_grid", "0,0; nan,0.5"),
                                           ("xi_grid", "0,0; inf,0.5"),
                                           ("lambda_max", "inf")],
                             ids=["xi_grid-nan", "xi_grid-inf", "lambda_max-inf"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, text):
        cfg = write_cfg(tmp_path / "c.cfg", f"ensemble = gue\nn_dim = 4\nsamples = 10\n"
                                            f"{key} = {text}\n")
        out = tmp_path / "x.csv"
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"invalid config: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_spectrum_grid_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 4\nsamples = 10\n"
                                            "lambda_min = -1e308\nlambda_max = 1e308\n")
        out = tmp_path / "x.csv"
        assert run_cli(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "lambda_min must lie below lambda_max" in capsys.readouterr().err
        assert not out.exists()

    def test_theta_rule_overflow_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", f"ensemble = band\nn_dim = 1{'0' * 400}\n"
                                            "theta = 1\n")
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                        "--quiet"]) == 2
        assert "invalid config: n_dim is too large" in capsys.readouterr().err

    def test_unknown_keys_exit_2(self, tmp_path, capsys):
        # misspelled keys must not fall back to the defaults (10 000 samples, seed 1)
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN.replace("samples = 2000", "sample = 200")
                                                     .replace("seed = 42", "sed = 3"))
        out = tmp_path / "x.csv"
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "invalid config: unknown config key(s): sample, sed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        # numpy refuses the 71 PiB profile at the allocation request, before touching memory
        ("moment-scan", "ensemble = gue\nn_dim = 100000000\n",
         "the run does not fit in memory; lower n_dim or samples"),
        ("spectrum", f"ensemble = band\nbandwidth = 100\nn_dim = {'9' * 401}\n",
         "n_dim is too large: numpy cannot address"),
    ], ids=["gue-1e8-scan", "401-digits-spectrum"])
    def test_unallocatable_n_dim_exits_2(self, tmp_path, capsys, command, text, message):
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "x.csv"),
                        "--quiet"]) == 2
        assert f"invalid config: {message}" in capsys.readouterr().err

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 4\nseed = 3\n"
                                            "samples = 10\nseed = 5\n")
        out = tmp_path / "x.csv"
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"{cfg}:5: key 'seed' is already set on line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_example_config_parses(self, tmp_path):
        example = README.read_text().split("Example scan config:", 1)[1]
        example = example.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = cli.build_config(argparse.Namespace(
            config=write_cfg(tmp_path / "scan.cfg", example),
            seed=None, threads=None, samples=None, out=None))
        assert (cfg.ensemble, cfg.n_dim, cfg.bandwidth, cfg.theta) == ("band", 64, 64.0, 1.0)
        assert len(cfg.xi_grid) == 4 and (cfg.samples, cfg.seed) == (20000, 31337)

    def test_readme_lists_every_key_with_its_default(self):
        text = README.read_text()
        for f in dataclasses.fields(cli.ExperimentConfig):
            default = f.metadata["default"]
            assert f"| `{f.name}` | {f'`{default}`' if default else 'none'}" in text, f.name


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

    def test_thread_count_independent(self, tmp_path, monkeypatch):
        from bandmoment import moments as mo

        monkeypatch.setattr(mo, "_CHUNK", 400)  # five blocks, one per worker at a time
        cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
        outs = []
        for threads in (1, 2, 4, 8):
            p = tmp_path / f"t{threads}.csv"
            run_cli(["moment-scan", "--config", cfg, "--out", str(p),
                     "--threads", str(threads), "--quiet"])
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3]

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
        # from n = 400 the two-stage reduction runs; the CSV must not depend on --threads,
        # also with fewer one-sample runs (3) than workers (8), switching often
        cfg = write_cfg(tmp_path / "c.cfg",
                        "ensemble = band\nn_dim = 400\nbandwidth = 40\nsamples = 3\nseed = 9\n")
        before, outs = helper_threads(), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 8):
                p = tmp_path / f"t{threads}.csv"
                assert run_cli(["spectrum", "--config", cfg, "--out", str(p),
                                "--threads", str(threads), "--quiet"]) == 0
                outs.append(p.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert helper_threads() == before
        assert outs[1] == outs[0] and outs[2] == outs[0]


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


def test_progress_step_is_thread_safe(monkeypatch):
    # more threads than cores and a short switch interval finish items under the
    # library's claim counter; a lost update or an overlapping call breaks the order
    from bandmoment import moments as mo

    call, seen = cli._Progress.__call__, []

    def record(self, done, total):
        call(self, done, total)
        seen.append(done)

    monkeypatch.setattr(cli._Progress, "__call__", record)
    claims = mo._Claims(8 * 20_000, 1, cli._Progress("stress", quiet=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [claims.finish(1) for _ in range(20_000)])
                   for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == list(range(1, 8 * 20_000 + 1))


def test_moment_scan_progress_only_grows(tmp_path, monkeypatch):
    # blocks finish on eight threads; the CLI's count ends at the samples and never goes back
    from bandmoment import moments as mo

    monkeypatch.setattr(mo, "_CHUNK", 40)
    call, seen = cli._Progress.__call__, []

    def record(self, done, total):
        call(self, done, total)
        seen.append((done, total))

    monkeypatch.setattr(cli._Progress, "__call__", record)
    cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        code = run_cli(["moment-scan", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                        "--threads", "8", "--quiet"])
    finally:
        sys.setswitchinterval(interval)
    assert code == 0
    assert seen == [(40 * (k + 1), 2000) for k in range(50)]


def helper_threads():
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


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
    before = helper_threads()
    with pytest.raises(RuntimeError, match="sample failed"):
        run_cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--threads", "2", "--quiet"])
    assert helper_threads() == before
    assert len(started) < 64


@pytest.mark.parametrize("command", ["moment-scan", "spectrum"])
def test_interrupt_in_progress_cancels_queued_work(tmp_path, monkeypatch, command):
    # Ctrl-C raised on the calling thread, in the progress callback, with workers busy
    from bandmoment import charpoly
    from bandmoment import moments as mo

    started = []
    if command == "moment-scan":
        def fake_reducer(profile, seed, step):
            def reduce(run):
                started.append(run.start)
                time.sleep(0.05)
                return np.zeros((len(run), profile.size)), np.zeros((len(run), profile.size - 1))
            return reduce

        monkeypatch.setattr(mo, "_stack_reducer", fake_reducer)
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

    call = cli._Progress.__call__

    def interrupt(self, done, total):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        call(self, done, total)  # a spectrum helper's run

    monkeypatch.setattr(cli._Progress, "__call__", interrupt)
    before = helper_threads()
    code = run_cli([command, "--config", cfg, "--out", str(tmp_path / "out.csv"),
                    "--threads", "2", "--quiet"])
    assert code == 130
    assert helper_threads() == before
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


@pytest.mark.parametrize("command", ["moment-scan", "spectrum"])
def test_memory_error_on_a_worker_flushes_incomplete_trailer(tmp_path, monkeypatch, capsys,
                                                             command):
    # raised on a helper thread of the shared block (moment-scan) or on a
    # spectrum worker, and reported by main as exit 2
    from bandmoment import charpoly

    reduce = charpoly.tridiagonalize

    def fail_off_main(H, overwrite_a=False):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("no room")
        return reduce(H, overwrite_a)

    monkeypatch.setattr(charpoly, "tridiagonalize", fail_off_main)
    cfg = write_cfg(tmp_path / "c.cfg", "ensemble = band\nn_dim = 48\nbandwidth = 48\n"
                                        "samples = 2000\n")
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", cfg, "--out", str(out), "--threads", "2",
                    "--quiet"]) == 2
    assert "does not fit in memory" in capsys.readouterr().err
    assert out.read_text().splitlines()[-1] == "# INCOMPLETE"


def test_threads_default_per_command(tmp_path, monkeypatch):
    # unset threads: both commands take the library default, the usable CPUs
    from bandmoment import moments as mo

    seen = []

    def record(threads):
        seen.append(threads)
        raise KeyboardInterrupt

    monkeypatch.setattr(mo, "moment_scan", lambda *a, threads, progress: record(threads))
    monkeypatch.setattr(mo, "_run_workers", lambda work, threads, stop: record(threads))
    monkeypatch.setattr(mo, "_usable_cpus", lambda: 3)
    monkeypatch.delenv("BANDMOMENT_THREADS", raising=False)
    cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN)
    for command in ("moment-scan", "spectrum"):
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "x.csv"),
                        "--quiet"]) == 130
    assert seen == [None, 3]


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


@pytest.mark.parametrize("command", ["moment-scan", "spectrum"])
def test_stdout_output_is_only_csv(tmp_path, capsys, command):
    # with --out - and no --quiet, the summary goes to stderr and stdout stays CSV
    cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN.replace("samples = 2000", "samples = 200"))
    assert run_cli([command, "--config", cfg, "--out", "-"]) == 0
    out, err = capsys.readouterr()
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert header[0] in ("xi1", "bin_lo") and len(rows) == (2 if command == "moment-scan" else 120)
    for row in rows:
        assert len(row) == len(header) and all(math.isfinite(float(cell)) for cell in row)
    assert f"{command}: " in err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bandmoment.cli", "verify", "saddle",
                           "--quiet"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == b""


def test_scan_reports_samples_used_and_rejected(tmp_path, monkeypatch):
    from bandmoment import moments as mo

    char_det_many = mo.charpoly.char_det_many

    def reject_some(d, e2, lams):
        # rows picked by the sample's own bits, so the same rows at any thread count
        signs, logs = char_det_many(d, e2, lams)
        logs[d[:, 0] > 0] = np.nan
        return signs, logs

    monkeypatch.setattr(mo.charpoly, "char_det_many", reject_some)
    monkeypatch.setattr(mo, "_CHUNK", 64)
    cfg = write_cfg(tmp_path / "c.cfg", BASE_SCAN.replace("samples = 2000", "samples = 500"))
    blobs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        assert run_cli(["moment-scan", "--config", cfg, "--out", str(out),
                        "--threads", str(threads), "--quiet"]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    last = blobs[0].decode().splitlines()[-1]
    assert last.startswith("# samples_used=")
    kept, rejected = (int(field.split("=")[1]) for field in last[2:].split())
    assert kept + rejected == 500 and 50 < rejected < 450


def test_spectrum_unwritable_output_exits_before_sampling(tmp_path, monkeypatch, capsys):
    from bandmoment import moments as mo

    def never(*args, **kwargs):
        raise AssertionError("sampled before the output was opened")

    monkeypatch.setattr(mo.sampler, "write_samples", never)
    cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 4\nsamples = 10\n")
    out = str(tmp_path / "missing" / "x.csv")
    assert run_cli(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert f"invalid config: cannot write {out}" in capsys.readouterr().err


def test_spectrum_interrupt_flushes_incomplete_trailer(tmp_path, monkeypatch):
    from bandmoment import moments as mo

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(mo.sampler, "write_samples", boom)
    cfg = write_cfg(tmp_path / "c.cfg", "ensemble = gue\nn_dim = 4\nsamples = 10\n")
    out = tmp_path / "spectrum.csv"
    assert run_cli(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 130
    lines = out.read_text().splitlines()
    assert lines[-2:] == ["bin_lo,bin_hi,mass,semicircle_mass", "# INCOMPLETE"]
