"""Time one fresh set-up of a workload: imports, then the warm-up.

``run.py`` starts this in a new process a few times per run and reports the
median with its own set-up as ``setup_s``.  Arguments: workload name,
inputs (JSON), seed, warm-up scratch directory, qivcnet source directory.
Prints ``{"setup_s": ...}``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
import benchenv  # noqa: E402

benchenv.apply()


def main() -> None:
    name, inputs, seed, scratch, src = sys.argv[1:6]
    sys.path.insert(0, src)
    import workloads
    wl = workloads.WORKLOADS[name](json.loads(inputs), int(seed))
    wl.warm_up(workloads.reset(Path(scratch)))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
