#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny inputs (about a minute).

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --smoke`` untraced and
traced, and asserts that the result line has exactly its four keys,
that the run was correct, that every metric BENCHMARK.json names is printed
with its unit and a finite value, and that the self times in the traced
run's span file add up to the duration of each root span.  Last, it runs
the benchmark in a directory holding only BENCHMARK.json and ``perfbench/``
and asserts that it exits non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench_work" / "bare"


def expect(condition, message) -> None:
    """Like assert, but not removed under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def run(root: Path, workload: str, trace: int) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


def check_result(out: "subprocess.CompletedProcess", expected: "list[dict]") -> dict:
    expect(out.returncode == 0, out.stderr)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] is True and result["failed"] == 0, lines[-2])
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"bad attempted count {result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name)
    return json.loads(lines[-2])


def check_spans(path: Path) -> int:
    """Self times of each span tree add up to its root's duration."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [s for s in spans if "name" in s]
    covered = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            expect(parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"], s)
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    root_of, tree_self = [], defaultdict(int)
    for i, s in enumerate(spans):
        root = i if s["parent"] < 0 else root_of[s["parent"]]
        root_of.append(root)
        tree_self[root] += s["end_ns"] - s["start_ns"] - covered[i]
    for root, total in tree_self.items():
        expect(total == spans[root]["end_ns"] - spans[root]["start_ns"], spans[root]["name"])
    expect(tree_self, f"no spans in {path}")
    return len(tree_self)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(run(ROOT, workload, 0), bench["end_to_end"])
        details = check_result(run(ROOT, workload, 1), bench["per_layer"])
        roots = check_spans(ROOT / details["spans_file"])
        print(f"{workload}: metrics ok, {roots} root spans add up")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    shutil.copytree(ROOT / "perfbench", BARE / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(BARE, bench["workloads"][0]["name"], 0)
    shutil.rmtree(BARE)
    expect(out.returncode != 0 and not out.stdout.strip(), out.stdout)
    print("without the program: exits", out.returncode, "and prints no result")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
