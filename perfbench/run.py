#!/usr/bin/env python3
"""qivcnet benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Workloads are ``train-desk``, ``infer-sweep`` and ``ingest`` (see
``workloads.py`` and ``README.md``).  Inputs are generated from ``--seed``
under ``.perfbench_work/`` before anything is timed.  The run then sets up
(imports plus a warm-up on tiny inputs), repeats the workload's operation
until the next one would end after ``--seconds`` (at least three times;
every operation's artifacts must equal the first's byte for byte), checks
the outputs, and measures set-up again in fresh processes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs the operation three times, the last with every layer wrapped
(``tracing.py``), and reports the per-layer metrics and the tracing overhead
(traced minus untraced wall time).
``--smoke`` shrinks the inputs for a quick self-test (``smoke.py``).

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment and the workload's own metrics.
Without the program's sources next to the benchmark it exits 2 and prints
no result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

sys.dont_write_bytecode = True
import benchenv  # noqa: E402

SETTINGS = benchenv.apply()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DESK_SEGMENTS = 128
CORPUS_RECORDINGS = 1000
SMOKE_DESK_SEGMENTS = 24
SMOKE_CORPUS_RECORDINGS = 12
MIN_OPS = 3
# Traced runs: operation 0 settles the process (the first operation of a
# fresh process runs up to 15 % slower while its heap grows), operation 1
# is the untraced baseline and operation 2 is traced.
TRACED_OP = 2
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("train-desk", "infer-sweep", "ingest"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    return ap.parse_args(argv)


def blas_info() -> "dict[str, object]":
    """BLAS library and the thread count it reports, when it can be asked."""
    import ctypes

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    core = getattr(np, "_core", None) or np.core
    # dlsym on numpy's extension also finds symbols of the BLAS it links
    handle = ctypes.CDLL(core._multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {"blas": name, "blas_threads": threads}


def env_record() -> "dict[str, object]":
    import numpy as np
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_info(), **SETTINGS, "commit": commit}


def probe_setup(name: str, inputs: dict, seed: int, scratch: Path) -> float:
    """Set-up time of a fresh process: interpreter, imports, warm-up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, json.dumps(inputs), str(seed),
         str(scratch), str(SRC)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run(args: argparse.Namespace) -> "tuple[dict, dict]":
    """Execute one benchmark run; returns (result line, details line)."""
    sys.path.insert(0, str(SRC))
    import workloads  # the timed import: qivcnet, numpy and scipy
    t_import = time.perf_counter() - T0
    import qivcnet
    if Path(qivcnet.__file__).resolve().parent != (SRC / "qivcnet").resolve():
        raise SystemExit(f"error: imported qivcnet from {qivcnet.__file__}, not {SRC}")
    import inputs as gen
    import tracing

    name, seed = args.workload, args.seed
    if name == "ingest":
        n = SMOKE_CORPUS_RECORDINGS if args.smoke else CORPUS_RECORDINGS
        inputs = gen.corpus_inputs(WORK, seed, n)
    else:
        n = SMOKE_DESK_SEGMENTS if args.smoke else DESK_SEGMENTS
        inputs = gen.desk_inputs(WORK, seed, n)
    wl = workloads.WORKLOADS[name](inputs, seed)
    scratch = WORK / "warmup" / name
    start = time.perf_counter()
    wl.warm_up(workloads.reset(scratch))
    setup_main = t_import + time.perf_counter() - start

    out_root = workloads.reset(WORK / "out" / name)
    ops = []
    tracer = None
    loop_start = time.perf_counter()
    while True:
        outdir = out_root / f"op{len(ops)}"
        if args.trace and len(ops) == TRACED_OP:
            tracer = tracing.Tracer(run_id=f"{name}:seed{seed}:op{TRACED_OP}")
            remove = tracing.instrument(tracer)
            try:
                op = wl.op(outdir, tracer)
            finally:
                remove()
        else:
            op = wl.op(outdir)
        if ops:
            if not op.problems and op.digests != ops[0].digests:
                changed = [k for k in op.digests if op.digests[k] != ops[0].digests[k]]
                op.problems.append(f"artifacts differ from the first operation: {changed}")
            shutil.rmtree(outdir)
        ops.append(op)
        elapsed = time.perf_counter() - loop_start
        if args.trace:
            if len(ops) > TRACED_OP:
                break
        elif len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > args.seconds:
            break

    problems = [p for op in ops for p in op.problems]
    checks = {"final": []}
    if ops[0].problems:
        checks["final"].append("skipped: first operation failed")
    else:
        try:
            checks["final"] = wl.final_check(out_root / "op0")
        except Exception as exc:  # a check that crashes is a failed check
            checks["final"] = [f"{type(exc).__name__}: {exc}"]
    details = {"workload": name, "seed": seed, "trace": args.trace, "smoke": args.smoke,
               "env": env_record(), "op_seconds": [op.seconds for op in ops],
               "setup_main_s": setup_main}

    if args.trace:
        overhead = ops[TRACED_OP].seconds - ops[TRACED_OP - 1].seconds
        values = tracing.per_layer_metrics(tracer, overhead)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in tracing.per_layer_units().items()}
        spans_file = WORK / "trace" / f"{name}-seed{seed}.jsonl"
        tracer.write(spans_file)
        details.update(spans_file=str(spans_file.relative_to(ROOT)), spans=len(tracer.spans))
    else:
        setups = [setup_main] + [probe_setup(name, inputs, seed, scratch)
                                 for _ in range(SETUP_PROBES)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "command_s": {"value": median(op.seconds for op in ops), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        details["setup_samples_s"] = setups
        if not ops[0].problems:
            own = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in wl.details(ops).items()}
            details["workload_metrics"] = {
                "setup_s": metrics["setup_s"], **own,
                "peak_rss_mb": metrics["peak_rss_mb"]}

    failed_checks = sum(1 for found in checks.values() if found)
    attempted = len(ops) + len(checks)
    failed = sum(1 for op in ops if op.problems) + failed_checks
    if "workload_metrics" in details:
        details["workload_metrics"]["failed_ratio"] = {"value": failed / attempted, "unit": "1"}
    details["problems"] = problems + [f"{k}: {p}" for k, found in checks.items() for p in found]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qivcnet" / "cli.py").is_file():
        print(f"error: qivcnet sources not found under {SRC}", file=sys.stderr)
        return 2
    result, details = run(args)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
