"""Every benchmark workload must run clean against the package.

The benchmark counts an operation whose command fails, whose artifacts
differ from the first operation's, or whose final check finds a problem.
This loads ``perfbench/inputs.py``, ``perfbench/workloads.py`` and
``perfbench/tracing.py`` by path, without changing them, and runs each
workload at the sizes of ``perfbench/run.py --smoke``: a warm-up, two
operations (the second with every layer wrapped by the tracer, as
``run.py --trace 1`` runs it) and the final check.
"""

import importlib.util
import math
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
    inputs, workloads, tracing = _load("inputs"), _load("workloads"), _load("tracing")
    if name == "ingest":
        paths = inputs.corpus_inputs(tmp_path / "work", SEED, SMOKE_CORPUS_RECORDINGS)
    else:
        paths = inputs.desk_inputs(tmp_path / "work", SEED, SMOKE_DESK_SEGMENTS)
    workload = workloads.WORKLOADS[name](paths, SEED)
    workload.warm_up(workloads.reset(tmp_path / "warmup"))
    ops = [workload.op(tmp_path / "out" / "op0")]
    tracer = tracing.Tracer(run_id=name)
    remove = tracing.instrument(tracer)
    try:
        ops.append(workload.op(tmp_path / "out" / "op1", tracer))
    finally:
        remove()
    assert [op.problems for op in ops] == [[], []]
    assert ops[0].digests == ops[1].digests
    assert workload.final_check(tmp_path / "out" / "op0") == []
    values = tracing.per_layer_metrics(tracer, ops[1].seconds - ops[0].seconds)
    assert [k for k in tracing.per_layer_units() if not math.isfinite(values[k])] == []
    if name != "ingest":
        assert values["autodiff.conv1d.fwd_ms"] > 0
