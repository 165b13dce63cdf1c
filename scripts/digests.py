"""Print one `name sha256` line per output whose bits a change is expected to keep.

    python3 scripts/digests.py

Run it on two checkouts and compare the lines: an equal line means the same
bits.  The outputs are the benchmark's problem shapes and seeds plus the
shapes the acceptance criteria scan:

- `moment_scan` band n = W = 64, seed 27182, 8192 samples, at 1 and 2 threads;
- `moment_scan` GUE n = 5, seed 7, and band n = W = 16, seed 5, 20 000 samples;
- every `mc_f2` field of the three n <= 3 oracle cases at 10^6 samples;
- the `spectrum` CSV at band n = 1000, W = 100, seed 424242, 10 samples;
- the stdout of `bandmoment verify all`.

Every scan is at lambda0 = 0 over the pairs (d/2, -d/2), d in
{0.25, 0.5, 1, 1.5}.  It takes about 25 s on a 2-vCPU x86_64 VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bandmoment import cli, moments  # noqa: E402

PAIRS = [(d / 2, -d / 2) for d in (0.25, 0.5, 1.0, 1.5)]
SCANS = (  # name, ensemble, n, W, seed, samples, threads
    ("scan_band_n64_t1", "band", 64, 64.0, 27182, 8192, 1),
    ("scan_band_n64_t2", "band", 64, 64.0, 27182, 8192, 2),
    ("scan_gue_n5", "gue", 5, None, 7, 20_000, 1),
    ("scan_band_n16", "band", 16, 16.0, 5, 20_000, 1),
)
ORACLE_SEED = 20240101  # each case runs at ORACLE_SEED + n
ORACLE_CASES = ((1, 1.0, 0.3, -0.2), (2, 1.0, 0.5, -0.3), (3, 2.0, 0.4, -0.1))
SPECTRUM_CFG = "ensemble = band\nn_dim = 1000\nbandwidth = 100\nsamples = 10\nseed = 424242\n"


def sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def fields(*values) -> str:
    """Exact text of each value: float.hex for floats, repr otherwise."""
    return " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)


def main() -> None:
    for name, ensemble, n, W, seed, samples, threads in SCANS:
        results = moments.moment_scan(ensemble, n, W, 0.0, PAIRS, samples, seed, threads)
        print(name, sha("\n".join(fields(r.ratio, r.stderr, r.sine_ref, r.deviation,
                                         r.samples, r.rejected) for r in results)))

    lines = []
    for n, W, l1, l2 in ORACLE_CASES:
        est = moments.mc_f2("band", n, W, [l1, l2], 1_000_000, ORACLE_SEED + n)
        lines += [fields(n, key, e.value, e.stderr, e.samples, e.sign, e.log_abs_value,
                         e.log_abs_stderr, e.rejected)
                  for key, e in sorted(est.items())]
    print("oracle_n3_mc_f2", sha("\n".join(lines)))

    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "spectrum.cfg", Path(tmp) / "spectrum.csv"
        cfg.write_text(SPECTRUM_CFG, encoding="utf-8")
        code = cli.main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"])
        print("spectrum_n1000", sha(out.read_bytes()) if code == 0 else f"exit-{code}")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", "all"])
    print("verify_all", sha(stdout.getvalue()) if code == 0 else f"exit-{code}")


if __name__ == "__main__":
    main()
