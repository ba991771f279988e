"""Smoke test for the demos: each script runs from a copy of ``demos/`` and
the files it writes hold the known bytes.

``04_single_run.py`` writes the default AMHRP seed 1 metrics CSV, whose
sha256 is in ``golden.json``. ``05_protocol_comparison.py`` writes the four
plot series of the seed 1 runs, pinned below. Both outputs are ignored by
git, so the copy starts without them.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMOS = ROOT / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py"))
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["sha256"]

COMPARISON_SERIES = {
    "lifetime.dat": "3e0524b60fdd99e53f4b4c8a10a616b66fce9dcdd71bed2ec7cee82b3f3e3105",
    "pathloss.dat": "d4499b174214597bd7b154399ab9d59b2871e0bae6e7ec2dae8ab3c57bb608c7",
    "residual.dat": "7792813d432795403f08aff90f712cb478b0d303732a54e9501ab5560627ecb8",
    "throughput.dat": "fd6cfdb451300dffb1b1a12ece1119839e4e6b3efb66db7bf3b2dcd210f077b5",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_demos_run_and_write_the_known_bytes(tmp_path):
    assert len(SCRIPTS) == 5
    for name in SCRIPTS:
        shutil.copy(DEMOS / name, tmp_path / name)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in SCRIPTS:
        done = subprocess.run([sys.executable, name], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"{name}:\n{done.stderr}"

    assert sha256(tmp_path / "single_run_metrics.csv") == GOLDEN["default"]["amhrp"]["1"]
    series = tmp_path / "comparison_series"
    assert sorted(p.name for p in series.iterdir()) == sorted(COMPARISON_SERIES)
    for name, digest in COMPARISON_SERIES.items():
        assert sha256(series / name) == digest, name
