"""Seeded input generation for the benchmark workloads.

Everything the program receives is a file made here from the benchmark's
``--seed``: the desk segment cache and an untrained checkpoint for
``train-desk`` and ``infer-sweep``, and a PCM16 WAV corpus with its manifest
for ``ingest``.  Each workload also gets tiny inputs of the same kind for its
warm-up.  Inputs are generated once per seed, outside any timed region, and
kept under the work directory so later runs with the same seed reuse them.
"""

from __future__ import annotations

import json
import shutil
import wave
from pathlib import Path

import numpy as np

from qivcnet import checkpoint, dataio, training
from qivcnet.config import RunConfig
from qivcnet.folds import segment_labels, stratified_kfold
from qivcnet.network import QivcNet, config_to_dict
from qivcnet.preprocess import WINDOW_SECONDS
from qivcnet.rng import Rng
from qivcnet.synthetic import make_dataset, synth_recording

DESK_FOLDS = 5
TINY_SEGMENTS = 16
TINY_FOLDS = 2

# Corpus shape: lengths spread evenly over [8 s, 60 s], alternating
# 4000 Hz / 2000 Hz along the sorted lengths, every 25th recording silent.
# The seed only shuffles the order and draws the content, so every seed
# gives the same number of samples, segments and rejected windows.
CORPUS_MIN_S = 8.0
CORPUS_MAX_S = 60.0
CORPUS_RATES = (4000, 2000)
SILENT_EVERY = 25
CLIPS_PER_KIND = 8


def write_untrained_checkpoint(cache: Path, path: Path, seed: int, folds: int) -> None:
    """Checkpoint of the initial network ``qivcnet train`` would build for fold 0.

    The split and the initial weights come from the same seed forks as
    ``training.train``; inference cost does not depend on weight values.
    """
    segments = dataio.load_segment_cache(cache)
    labels = segment_labels(segments)
    split = stratified_kfold(segments, k=folds, seed=seed)
    fold_rng = Rng(seed).fork()
    rng_init = fold_rng.fork()
    rng_data = fold_rng.fork()
    inner, val = training.stratified_val_split(
        labels, split.train_indices(0), RunConfig().val_fraction, rng_data)
    net_cfg = RunConfig(seed=seed).network_config()
    net = QivcNet(net_cfg, rng_init)
    meta = {"fold_index": 0, "n_segments": len(segments),
            "train_indices": [int(i) for i in inner],
            "val_indices": [int(i) for i in val],
            "test_indices": [int(i) for i in split.test_indices(0)],
            "network": config_to_dict(net_cfg),
            "best_val_f1": 0.0, "best_epoch": 0}
    checkpoint.save_checkpoint(path, net.state_arrays(), meta)


def desk_inputs(work: Path, seed: int, n_segments: int) -> "dict[str, str]":
    """Desk cache + untrained checkpoint, and their tiny warm-up versions."""
    final = work / "inputs" / f"desk-{n_segments}-seed{seed}"
    paths = {"cache": final / "segments.qivc", "checkpoint": final / "checkpoint.bin",
             "tiny_cache": final / "tiny.qivc", "tiny_checkpoint": final / "tiny.bin"}
    if not final.is_dir():
        tmp = final.with_name(final.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        segments = make_dataset(n_segments, Rng(seed))
        dataio.save_segment_cache(tmp / "segments.qivc", segments)
        dataio.save_segment_cache(tmp / "tiny.qivc", segments[:TINY_SEGMENTS])
        write_untrained_checkpoint(tmp / "segments.qivc", tmp / "checkpoint.bin",
                                   seed, DESK_FOLDS)
        write_untrained_checkpoint(tmp / "tiny.qivc", tmp / "tiny.bin", seed, TINY_FOLDS)
        tmp.rename(final)   # publish only complete inputs
    return {k: str(v) for k, v in paths.items()}


def corpus_plan(n_recordings: int) -> "list[tuple[float, int, bool]]":
    """(seconds, sample rate, silent) per recording, before shuffling."""
    plan = []
    for i in range(n_recordings):
        seconds = CORPUS_MIN_S + (CORPUS_MAX_S - CORPUS_MIN_S) * i / max(1, n_recordings - 1)
        plan.append((seconds, CORPUS_RATES[i % 2], i % SILENT_EVERY == SILENT_EVERY - 1))
    return plan


def expected_counts(plan) -> "tuple[int, int]":
    """(segments, rejected windows) the preprocess chain must produce."""
    segments = rejected = 0
    for seconds, rate, silent in plan:
        windows = int(round(seconds * rate)) // int(round(WINDOW_SECONDS * rate))
        if silent:
            rejected += windows
        else:
            segments += windows
    return segments, rejected


def _write_wav(path: Path, pcm: np.ndarray, rate: int) -> None:
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(pcm.astype("<i2").tobytes())


def _write_corpus(outdir: Path, plan, seed: int) -> None:
    """Render ``plan`` as WAVs: each recording splices synthetic 4 s clips.

    Synthesising every recording at full length costs about a second per
    minute of audio; splicing a small seeded pool of clips keeps generation
    to a few seconds while the content stays heart-sound-like.
    """
    rng = Rng(seed)
    pick = np.random.default_rng(seed)
    clips = {(rate, label): [synth_recording("clip", label, rng, sample_rate=float(rate),
                                             seconds=WINDOW_SECONDS).samples
                             for _ in range(CLIPS_PER_KIND)]
             for rate in CORPUS_RATES for label in ("normal", "abnormal")}
    (outdir / "wavs").mkdir(parents=True)
    lines = ["recording_id,relative_path,label"]
    for j, i in enumerate(pick.permutation(len(plan))):
        seconds, rate, silent = plan[i]
        label = "normal" if j % 2 == 0 else "abnormal"
        n = int(round(seconds * rate))
        if silent:
            pcm = np.zeros(n, dtype=np.int16)
        else:
            pool = clips[(rate, label)]
            parts = [pool[k] * pick.uniform(0.5, 1.0)
                     for k in pick.integers(0, len(pool), n // len(pool[0]) + 1)]
            samples = np.concatenate(parts)[:n]
            pcm = samples * (0.9 * 32767.0 / np.max(np.abs(samples)))
        rec_id = f"rec{j:04d}"
        _write_wav(outdir / "wavs" / f"{rec_id}.wav", pcm, rate)
        lines.append(f"{rec_id},wavs/{rec_id}.wav,{label}")
    (outdir / "manifest.csv").write_text("\n".join(lines) + "\n")


def corpus_inputs(work: Path, seed: int, n_recordings: int) -> "dict[str, object]":
    """WAV corpus + manifest, and a three-recording warm-up corpus.

    Only the newest corpus is kept: at 1000 recordings it is about 200 MB.
    """
    name = f"corpus-{n_recordings}-seed{seed}"
    final = work / "inputs" / name
    if not final.is_dir():
        for old in (work / "inputs").glob("corpus-*"):
            shutil.rmtree(old)
        tmp = final.with_name(name + ".tmp")
        tmp.mkdir(parents=True)
        plan = corpus_plan(n_recordings)
        _write_corpus(tmp, plan, seed)
        tiny_plan = [(CORPUS_MIN_S, 4000, False), (CORPUS_MIN_S, 2000, False),
                     (CORPUS_MIN_S, 2000, True)]
        _write_corpus(tmp / "tiny", tiny_plan, seed)
        segments, rejected = expected_counts(plan)
        (tmp / "expected.json").write_text(json.dumps(
            {"recordings": n_recordings, "segments": segments, "rejected": rejected}))
        tmp.rename(final)   # publish only complete inputs
    expected = json.loads((final / "expected.json").read_text())
    return {"manifest": str(final / "manifest.csv"),
            "tiny_manifest": str(final / "tiny" / "manifest.csv"),
            "recordings": expected["recordings"], "segments": expected["segments"],
            "rejected": expected["rejected"]}
