"""The benchmark workloads: warm-up, one timed operation, correctness checks.

Each workload drives qivcnet through ``qivcnet.cli.main``, the entry point
of the ``qivcnet`` command, in the benchmark's own process.  An operation is
one pass over the workload's commands; its artifacts are compared byte for
byte with the first operation of the run (the package's determinism
contract), and the checks below decide whether it failed.

- ``train-desk``: one ``train`` command of one epoch on the desk cache.
- ``infer-sweep``: ``eval``, ``robustness``, ``calibrate`` and
  ``export-latent`` on the desk cache with an untrained checkpoint.
- ``ingest``: ``preprocess`` of a WAV corpus, then one
  ``dataio.load_segment_cache`` of the cache it wrote.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from qivcnet import checkpoint, cli, dataio, network, preprocess

SNR_LIST = "25,20,15,10,5"
EPOCHS = 1


@dataclass
class OpResult:
    """One timed operation: its wall times, artifact digests and problems."""

    seconds: float                       # wall time of the whole operation
    digests: "dict[str, str]"
    problems: "list[str]" = field(default_factory=list)
    load_seconds: float = 0.0            # ingest: the load_segment_cache part
    train_loss: float = math.nan         # train-desk: last-epoch mean objective


def run_cli(argv: "list[str]", tracer=None) -> int:
    """``qivcnet <argv>`` in process; its stdout is swallowed.

    With a tracer the command is a root span named ``cli.<command>``.
    """
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        return tracer.call(f"cli.{argv[0]}", cli.main, argv)


def digests(outdir: Path, names) -> "dict[str, str]":
    """sha256 of each artifact; config.txt echoes the output path, so skip it."""
    out = {}
    for name in names:
        path = outdir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return out


def _missing(found: "dict[str, str]") -> "list[str]":
    return [f"missing artifact {name}" for name, d in found.items() if not d]


class TrainDesk:
    name = "train-desk"
    artifacts = ("fold0/train_log.csv", "fold0/checkpoint.bin", "metrics.csv")

    def __init__(self, inputs: dict, seed: int):
        self.inputs = inputs
        self.seed = seed

    def _train(self, cache: str, outdir: Path, folds: int, batch: int, tracer=None) -> int:
        return run_cli(["train", "--cache", cache, "--outdir", outdir,
                        "--epochs", EPOCHS, "--patience", EPOCHS, "--batch", batch,
                        "--folds", folds, "--fold-index", 0, "--seed", self.seed], tracer)

    def warm_up(self, scratch: Path) -> None:
        if self._train(self.inputs["tiny_cache"], scratch, folds=2, batch=4) != 0:
            raise RuntimeError("train-desk warm-up failed")

    def op(self, outdir: Path, tracer=None) -> OpResult:
        start = time.perf_counter()
        rc = self._train(self.inputs["cache"], outdir, folds=5, batch=64, tracer=tracer)
        seconds = time.perf_counter() - start
        result = OpResult(seconds, digests(outdir, self.artifacts))
        if rc != 0:
            result.problems.append(f"train exited {rc}")
        result.problems += _missing(result.digests)
        if not result.problems:
            with open(outdir / "fold0/train_log.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != EPOCHS:
                result.problems.append(f"train_log.csv has {len(rows)} epochs, not {EPOCHS}")
            else:
                result.train_loss = float(rows[-1]["train_loss"])
                if not math.isfinite(result.train_loss):
                    result.problems.append("non-finite training loss")
        return result

    def final_check(self, first: Path) -> "list[str]":
        """The first operation's checkpoint reads back with finite weights."""
        arrays, _ = checkpoint.load_checkpoint(first / "fold0/checkpoint.bin")
        bad = sorted(name for name, arr in arrays.items() if not np.all(np.isfinite(arr)))
        return [f"non-finite checkpoint arrays: {bad[:4]}"] if bad else []

    def details(self, ops) -> "dict[str, tuple[float, str]]":
        return {"epoch_s": (median([op.seconds for op in ops]) / EPOCHS, "s"),
                "train_loss": (ops[0].train_loss, "1")}


class InferSweep:
    name = "infer-sweep"
    artifacts = ("eval/eval_metrics.csv", "robustness/robustness.csv",
                 "calibrate/reliability.csv", "calibrate/ece.csv", "export-latent/latent.csv")

    def __init__(self, inputs: dict, seed: int):
        self.inputs = inputs
        self.seed = seed

    def _sweep(self, cache: str, ckpt: str, outdir: Path, snr_list: str = SNR_LIST,
               tracer=None) -> "list[str]":
        problems = []
        base = ["--cache", cache, "--checkpoint", ckpt, "--seed", self.seed]
        for cmd in (["eval"], ["robustness", "--snr-list", snr_list],
                    ["calibrate"], ["export-latent"]):
            rc = run_cli(cmd + base + ["--outdir", outdir / cmd[0]], tracer)
            if rc != 0:
                problems.append(f"{cmd[0]} exited {rc}")
        return problems

    def warm_up(self, scratch: Path) -> None:
        # one SNR is enough to run every code path once
        if self._sweep(self.inputs["tiny_cache"], self.inputs["tiny_checkpoint"], scratch,
                       snr_list=SNR_LIST.split(",")[0]):
            raise RuntimeError("infer-sweep warm-up failed")

    def op(self, outdir: Path, tracer=None) -> OpResult:
        start = time.perf_counter()
        problems = self._sweep(self.inputs["cache"], self.inputs["checkpoint"], outdir,
                               tracer=tracer)
        seconds = time.perf_counter() - start
        result = OpResult(seconds, digests(outdir, self.artifacts), problems)
        result.problems += _missing(result.digests)
        return result

    def details(self, ops) -> "dict[str, tuple[float, str]]":
        rate = self.segments_per_sweep() / median([op.seconds for op in ops])
        return {"infer_segments_per_s": (rate, "seg/s")}

    def segments_per_sweep(self) -> int:
        """Segments scored by one sweep: eval (val + test), robustness (test
        per SNR), calibrate (test), export-latent (every segment)."""
        _, meta = checkpoint.load_checkpoint(self.inputs["checkpoint"])
        n_test = len(meta["test_indices"])
        n_snr = len(SNR_LIST.split(","))
        return (len(meta["val_indices"]) + n_test + n_snr * n_test + n_test
                + meta["n_segments"])

    def final_check(self, first: Path) -> "list[str]":
        """Test-split probabilities are finite and each row sums to 1."""
        segments = dataio.load_segment_cache(self.inputs["cache"])
        arrays, meta = checkpoint.load_checkpoint(self.inputs["checkpoint"])
        net = network.QivcNet(network.config_from_dict(meta["network"]))
        net.load_state(arrays)
        probs = network.infer_probs(net, [segments[i] for i in meta["test_indices"]])
        problems = []
        if not np.all(np.isfinite(probs)):
            problems.append("non-finite probabilities")
        elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
            problems.append("probability rows do not sum to 1 within 1e-12")
        return problems


class Ingest:
    name = "ingest"
    artifacts = ("segments.qivc", "rejections.csv")
    check_recordings = 32

    def __init__(self, inputs: dict, seed: int):
        self.inputs = inputs
        self.seed = seed

    def _preprocess(self, manifest: str, outdir: Path, tracer=None) -> int:
        return run_cli(["preprocess", "--manifest", manifest,
                        "--cache", outdir / "segments.qivc", "--outdir", outdir], tracer)

    def warm_up(self, scratch: Path) -> None:
        if self._preprocess(self.inputs["tiny_manifest"], scratch) != 0:
            raise RuntimeError("ingest warm-up failed")
        dataio.load_segment_cache(scratch / "segments.qivc")

    def op(self, outdir: Path, tracer=None) -> OpResult:
        start = time.perf_counter()
        rc = self._preprocess(self.inputs["manifest"], outdir, tracer)
        loaded = time.perf_counter()
        segments = []
        if rc == 0:
            if tracer is None:
                segments = dataio.load_segment_cache(outdir / "segments.qivc")
            else:
                segments = tracer.call("dataio.load_segment_cache",
                                       dataio.load_segment_cache, outdir / "segments.qivc")
        end = time.perf_counter()
        result = OpResult(end - start, digests(outdir, self.artifacts), load_seconds=end - loaded)
        if rc != 0:
            result.problems.append(f"preprocess exited {rc}")
        result.problems += _missing(result.digests)
        if result.problems:
            return result
        if len(segments) != self.inputs["segments"]:
            result.problems.append(
                f"{len(segments)} segments cached, corpus predicts {self.inputs['segments']}")
        with open(outdir / "rejections.csv", newline="") as fh:
            rejected = sum(1 for _ in csv.DictReader(fh))
        if rejected != self.inputs["rejected"]:
            result.problems.append(
                f"{rejected} windows rejected, corpus predicts {self.inputs['rejected']}")
        return result

    def details(self, ops) -> "dict[str, tuple[float, str]]":
        preprocess_s = median([op.seconds - op.load_seconds for op in ops])
        return {"ingest_recordings_per_s": (self.inputs["recordings"] / preprocess_s, "rec/s"),
                "cache_load_s": (median([op.load_seconds for op in ops]), "s")}

    def final_check(self, first: Path) -> "list[str]":
        """Recompute a seeded sample of recordings from their WAVs and compare
        with the float32 segments the first operation's cache round-tripped."""
        cached = {(s.recording_id, s.window_index): s
                  for s in dataio.load_segment_cache(first / "segments.qivc")}
        rows = dataio.load_manifest(self.inputs["manifest"])
        pick = np.random.default_rng(self.seed).choice(
            len(rows), size=min(self.check_recordings, len(rows)), replace=False)
        problems = []
        for i in sorted(pick):
            rec_id, path, label = rows[i]
            samples, rate = dataio.read_wav(path)
            rec = preprocess.Recording(samples=samples, sample_rate=rate, id=rec_id, label=label)
            segments, _ = preprocess.preprocess_recording(rec)
            for seg in segments:
                got = cached.get((seg.recording_id, seg.window_index))
                if got is None:
                    problems.append(f"{rec_id}:{seg.window_index} missing from cache")
                elif got.label != seg.label or not np.array_equal(
                        got.values, seg.values.astype(np.float32).astype(np.float64)):
                    problems.append(f"{rec_id}:{seg.window_index} differs from its float32")
        return problems


WORKLOADS = {cls.name: cls for cls in (TrainDesk, InferSweep, Ingest)}


def reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

