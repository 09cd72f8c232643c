"""The package's public surface and its dependency boundary."""

import json
import os
import subprocess
import sys

import qivcnet
from qivcnet.rng import Rng
from qivcnet.synthetic import write_wav_dataset


def test_every_exported_name_resolves():
    missing = [name for name in qivcnet.__all__ if not hasattr(qivcnet, name)]
    assert missing == []
    assert len(set(qivcnet.__all__)) == len(qivcnet.__all__)


# Runs every command in one fresh interpreter, then reports the exit codes,
# which scipy modules got loaded along the way (scipy is a test oracle only),
# and which process-pool modules did (qivcnet runs in one process).
SCIPY_FREE_COMMANDS = """
import contextlib, io, json, sys
import qivcnet.cli

manifest, out = sys.argv[1], sys.argv[2]
cache = out + "/segments.qivc"
net = ["--blocks", "3x3", "--classifier-width", "3", "--seed", "5", "--k", "2"]
ckpt = ["--cache", cache, "--checkpoint", out + "/train/fold0/checkpoint.bin"]
runs = [
    ["preprocess", "--manifest", manifest, "--cache", cache],
    ["train", "--cache", cache, "--epochs", "1", "--batch", "8", "--folds", "3",
     "--fold-index", "0", *net],
    ["eval", *ckpt], ["robustness", *ckpt, "--snr-list", "10"],
    ["calibrate", *ckpt], ["export-latent", *ckpt],
    ["noise-stats", "--trials", "20", *net],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(qivcnet.cli.main([*argv, "--outdir", out + "/" + argv[0]]))
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy")),
                  sorted(m for m in sys.modules
                         if m.split(".")[0] == "multiprocessing"
                         or m == "concurrent.futures.process")]))
"""


def test_no_command_loads_scipy(tmp_path):
    manifest = write_wav_dataset(tmp_path / "data", 12, Rng(0), seconds=4.0)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_COMMANDS, str(manifest), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True)
    codes, scipy_modules, pool_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 7
    assert scipy_modules == []
    assert pool_modules == []
