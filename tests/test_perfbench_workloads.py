"""Every benchmark workload must run clean against the package.

The benchmark counts an operation whose command fails, whose artifacts
differ from the first operation's, or whose final check finds a problem.
This loads ``perfbench/inputs.py`` and ``perfbench/workloads.py`` by path,
without changing them, and runs each workload at the sizes of
``perfbench/run.py --smoke``: a warm-up, two operations and the final check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
# perfbench/run.py: SMOKE_DESK_SEGMENTS and SMOKE_CORPUS_RECORDINGS
SMOKE_DESK_SEGMENTS = 24
SMOKE_CORPUS_RECORDINGS = 12


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train-desk", "infer-sweep", "ingest"])
def test_workload_runs_clean(tmp_path, name):
    inputs, workloads = _load("inputs"), _load("workloads")
    if name == "ingest":
        paths = inputs.corpus_inputs(tmp_path / "work", SEED, SMOKE_CORPUS_RECORDINGS)
    else:
        paths = inputs.desk_inputs(tmp_path / "work", SEED, SMOKE_DESK_SEGMENTS)
    workload = workloads.WORKLOADS[name](paths, SEED)
    workload.warm_up(workloads.reset(tmp_path / "warmup"))
    ops = [workload.op(tmp_path / "out" / f"op{i}") for i in range(2)]
    assert [op.problems for op in ops] == [[], []]
    assert ops[0].digests == ops[1].digests
    assert workload.final_check(tmp_path / "out" / "op0") == []
