"""Smoke runs of the scripts under ``scripts/`` at a tiny size.

Each script drives the CLI with the flags it was written for, so a setting
that goes away, or a report that moves, breaks it here first.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_make_demo_data_writes_a_manifest_and_its_wavs(tmp_path):
    proc = run_script("make_demo_data.py", tmp_path, "--recordings", 4, "--seconds", 4)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "manifest.csv").read_text().splitlines()
    assert rows[0] == "recording_id,relative_path,label" and len(rows) == 5
    assert all((tmp_path / row.split(",")[1]).is_file() for row in rows[1:])


def test_desk_experiment_writes_every_report(tmp_path):
    # the 10,000-trial noise-stats run at the default kernel is most of the time
    proc = run_script("run_desk_experiment.py", tmp_path,
                      "--recordings", 8, "--epochs", 1, "--folds", 2)
    assert proc.returncode == 0, proc.stderr
    reports = ["prep/rejections.csv", "run/metrics.csv", "run/fold0/checkpoint.bin",
               "run/fold0/train_log.csv", "eval/eval_metrics.csv",
               "robustness/robustness.csv", "calibrate/reliability.csv", "calibrate/ece.csv",
               "noise_stats/noise_stats.csv", "latent/latent.csv"]
    assert [r for r in reports if not (tmp_path / r).is_file()] == []
    for outdir in ("prep", "run", "eval", "robustness", "calibrate", "noise_stats", "latent"):
        assert (tmp_path / outdir / "config.txt").is_file()
