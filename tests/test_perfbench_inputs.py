"""The benchmark's input generation must run against the package.

``perfbench/inputs.py`` builds every workload's inputs through the public
API: ``RunConfig``, ``config_to_dict``, ``make_dataset``, the segment cache
and the checkpoint writer.  This loads that file by path, without changing
it, and makes a small set of desk inputs, so an API change that would break
the benchmark fails here first.
"""

import importlib.util
from pathlib import Path

from qivcnet import checkpoint, dataio
from qivcnet.network import QivcNet, config_from_dict

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_inputs_build_and_load(tmp_path):
    paths = _load_inputs().desk_inputs(tmp_path, 3, 24)
    assert len(dataio.load_segment_cache(paths["cache"])) == 24
    for name in ("checkpoint", "tiny_checkpoint"):
        arrays, meta = checkpoint.load_checkpoint(paths[name])
        QivcNet(config_from_dict(meta["network"])).load_state(arrays)
