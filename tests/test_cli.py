"""End-to-end tests for the command line interface.

Everything drives ``qivcnet.cli.main`` in process with a throwaway WAV corpus,
so the full preprocess -> train -> eval chain runs in a couple of seconds.
"""

import contextlib
import hashlib
import io
import os
import struct
import subprocess
import sys
import tracemalloc
import wave
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qivcnet import cli
from qivcnet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from qivcnet.cli import main
from qivcnet.dataio import load_segment_cache, save_segment_cache
from qivcnet.errors import NumericalError
from qivcnet.rng import Rng
from qivcnet.synthetic import write_wav_dataset


def run_cli(argv):
    """Invoke the CLI and capture (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


TRAIN_FLAGS = ("--blocks", "2x3,3x3", "--classifier-width", "3",
               "--epochs", "1", "--patience", "2", "--batch", "8",
               "--folds", "3", "--seed", "5", "--k", "2", "--lr", "0.003")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """WAV corpus -> preprocess -> two identical train runs."""
    tmp = tmp_path_factory.mktemp("cli")
    manifest = write_wav_dataset(tmp / "data", 12, Rng(0), seconds=4.0)
    cache = tmp / "segments.qivc"
    rc, prep_out, _ = run_cli(["preprocess", "--manifest", manifest,
                               "--cache", cache, "--outdir", tmp / "prep"])
    assert rc == 0
    runs = {}
    for name in ("run1", "run2"):
        rc, train_out, _ = run_cli(["train", "--cache", cache,
                                    "--outdir", tmp / name, *TRAIN_FLAGS])
        assert rc == 0
        runs[name] = train_out
    return {"tmp": tmp, "manifest": manifest, "cache": cache,
            "prep_out": prep_out, "train_out": runs["run1"],
            "run1": tmp / "run1", "run2": tmp / "run2",
            "checkpoint": tmp / "run1" / "fold0" / "checkpoint.bin"}


def test_preprocess_reports_counts_and_writes_rejections(pipeline):
    # 12 recordings x 4 s -> one 5 s window short, so exactly one segment each
    assert "cached 12 segments from 12 recordings (0 windows rejected)" in pipeline["prep_out"]
    assert pipeline["cache"].exists()
    rej = (pipeline["tmp"] / "prep" / "rejections.csv").read_text()
    assert rej.splitlines()[0] == "recording_id,window_index,reason"


def test_outdir_gets_a_config_echo(pipeline):
    text = (pipeline["run1"] / "config.txt").read_text()
    assert "blocks = 2x3,3x3" in text
    assert "seed = 5" in text
    assert "classifier_width = 3" in text


def test_train_writes_fold_tree_and_metrics(pipeline):
    run = pipeline["run1"]
    lines = (run / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("fold,tp,fp,tn,fn,accuracy")
    assert len(lines) == 5  # header + 3 folds + mean row
    assert lines[-1].startswith("mean,")
    for fold in range(3):
        assert (run / f"fold{fold}" / "checkpoint.bin").exists()
        log = (run / f"fold{fold}" / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,")
        assert len(log) == 2  # one epoch
    assert "fold 0:" in pipeline["train_out"]


def test_identical_invocations_are_byte_identical(pipeline):
    run1, run2 = pipeline["run1"], pipeline["run2"]
    assert (run1 / "metrics.csv").read_bytes() == (run2 / "metrics.csv").read_bytes()
    for fold in range(3):
        for name in ("checkpoint.bin", "train_log.csv"):
            a = (run1 / f"fold{fold}" / name).read_bytes()
            b = (run2 / f"fold{fold}" / name).read_bytes()
            assert a == b, f"fold{fold}/{name} differs between identical runs"


def test_fold_index_trains_just_that_fold(pipeline):
    tmp = pipeline["tmp"]
    rc, _, _ = run_cli(["train", "--cache", pipeline["cache"],
                        "--outdir", tmp / "single", "--fold-index", "1",
                        *TRAIN_FLAGS])
    assert rc == 0
    assert (tmp / "single" / "fold1").exists()
    assert not (tmp / "single" / "fold0").exists()
    assert not (tmp / "single" / "fold2").exists()
    # same fold rng as in a full run, so the checkpoint matches bitwise
    got = (tmp / "single" / "fold1" / "checkpoint.bin").read_bytes()
    want = (pipeline["run1"] / "fold1" / "checkpoint.bin").read_bytes()
    assert got == want
    lines = (tmp / "single" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the one fold, no mean row


def test_eval_writes_both_splits_and_is_deterministic(pipeline):
    tmp = pipeline["tmp"]
    common = ["--cache", pipeline["cache"], "--checkpoint", pipeline["checkpoint"]]
    rc, out, _ = run_cli(["eval", *common, "--outdir", tmp / "eval_a"])
    assert rc == 0
    assert "val: acc=" in out and "test: acc=" in out
    lines = (tmp / "eval_a" / "eval_metrics.csv").read_text().splitlines()
    assert lines[0] == "split,tp,fp,tn,fn,accuracy,sensitivity,specificity,f1,auc,ece"
    assert lines[1].startswith("val,")
    assert lines[2].startswith("test,")
    rc, _, _ = run_cli(["eval", *common, "--outdir", tmp / "eval_b"])
    assert rc == 0
    assert ((tmp / "eval_a" / "eval_metrics.csv").read_bytes()
            == (tmp / "eval_b" / "eval_metrics.csv").read_bytes())


def test_robustness_sweeps_the_requested_snrs(pipeline):
    tmp = pipeline["tmp"]
    rc, out, _ = run_cli(["robustness", "--cache", pipeline["cache"],
                          "--checkpoint", pipeline["checkpoint"],
                          "--snr-list", "25,5", "--seed", "5",
                          "--outdir", tmp / "rob"])
    assert rc == 0
    lines = (tmp / "rob" / "robustness.csv").read_text().splitlines()
    assert lines[0].startswith("snr_db,")
    assert [row.split(",")[0] for row in lines[1:]] == ["25.0", "5.0"]
    assert "snr=25.0dB" in out and "snr=5.0dB" in out


def test_calibrate_writes_parseable_bins_and_ece(pipeline):
    tmp = pipeline["tmp"]
    rc, out, _ = run_cli(["calibrate", "--cache", pipeline["cache"],
                          "--checkpoint", pipeline["checkpoint"],
                          "--outdir", tmp / "cal"])
    assert rc == 0
    assert "ece=" in out
    lines = (tmp / "cal" / "reliability.csv").read_text().splitlines()
    assert len(lines) == 11  # header + 10 bins
    for row in lines[1:]:
        low, high, count, conf, acc = row.split(",")
        assert 0.0 <= float(low) < float(high) <= 1.0
        assert int(count) >= 0 and 0.0 <= float(acc) <= 1.0 and 0.0 <= float(conf) <= 1.0
    ece_lines = (tmp / "cal" / "ece.csv").read_text().splitlines()
    assert ece_lines[0] == "count,ece"
    count, ece = ece_lines[1].split(",")
    assert int(count) == 4  # fold0 test split of 12 segments over 3 folds
    assert 0.0 <= float(ece) <= 1.0


def test_noise_stats_summarises_the_sampler(pipeline):
    tmp = pipeline["tmp"]
    rc, out, _ = run_cli(["noise-stats", "--k", "2", "--seed", "5",
                          "--outdir", tmp / "stats"])
    assert rc == 0
    assert "mean_norm=" in out
    lines = (tmp / "stats" / "noise_stats.csv").read_text().splitlines()
    assert lines[0] == "k,p,n,mean_norm,norm_std,elem_mean,elem_var,subspace_energy"
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert abs(float(fields[3]) - 1.0) < 0.05  # unit-norm before decoherence


@pytest.mark.parametrize("blocks, n", [("16x7,32x7", 3584), ("5x3", 15), ("2x3,3x3,4x5", 60)])
def test_noise_stats_samples_the_last_blocks_kernel(tmp_path, blocks, n):
    # the last block's kernel is (width, c_in, filters), c_in the previous block's filters
    rc, out, _ = run_cli(["noise-stats", "--blocks", blocks, "--k", "2", "--trials", "3",
                          "--outdir", tmp_path / "stats"])
    assert rc == 0
    assert f" n={n}:" in out
    assert (tmp_path / "stats" / "noise_stats.csv").read_text().splitlines()[1].startswith(
        f"2,0.05,{n},")


@pytest.mark.parametrize("flag", ["--rescale-sqrt-n", "--activation", "--kernel-shape"])
def test_removed_setting_flags_exit_2(tmp_path, flag):
    rc, out, err = run_cli(["noise-stats", flag, "1", "--outdir", tmp_path / "stats"])
    assert (rc, out) == (2, "")
    assert err == f"error code=2 kind=config: unrecognized arguments: {flag} 1\n"
    assert not (tmp_path / "stats").exists()


@pytest.mark.parametrize("argv, reason", [
    (["noise-stats", "--activation", "tanh"], "unrecognized arguments: --activation tanh"),
    (["noise-stats", "--trials"], "argument --trials: expected one argument"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_parse_errors_are_one_config_line_without_usage(argv, reason):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error code=2 kind=config: {reason}") and err.count("\n") == 1
    assert "usage" not in err


def test_help_still_prints_usage_and_exits_0():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["noise-stats", "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: qivcnet noise-stats")


def test_export_latent_emits_one_row_per_segment(pipeline):
    tmp = pipeline["tmp"]
    rc, out, _ = run_cli(["export-latent", "--cache", pipeline["cache"],
                          "--checkpoint", pipeline["checkpoint"],
                          "--classifier-width", "3",
                          "--outdir", tmp / "latent"])
    assert rc == 0
    assert "12 bottleneck rows" in out
    lines = (tmp / "latent" / "latent.csv").read_text().splitlines()
    assert lines[0] == "segment_id,label,z1,z2,z3"
    assert len(lines) == 13
    assert lines[1].split(",")[0] == "syn0000:0"
    assert lines[1].split(",")[1] in ("normal", "abnormal")


def test_missing_cache_fails_with_data_code(tmp_path):
    rc, _, err = run_cli(["train", "--cache", tmp_path / "nope.qivc",
                          "--outdir", tmp_path / "run", *TRAIN_FLAGS])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:")
    assert "cache" in err
    # a failed run must not leave a half-created outdir behind
    assert not (tmp_path / "run").exists()


def test_failure_removes_only_the_outdir_it_made(tmp_path, monkeypatch):
    shared = tmp_path / "results"

    def sibling_finishes_then_fail(cfg, outdir):
        (shared / "b").mkdir()
        (shared / "b" / "metrics.csv").write_text("done\n")
        raise NumericalError("blew up")

    monkeypatch.setitem(cli.COMMANDS, "train", sibling_finishes_then_fail)
    rc, _, _ = run_cli(["train", "--outdir", shared / "a"])
    assert rc == 4
    assert sorted(p.name for p in shared.iterdir()) == ["b"]
    assert (shared / "b" / "metrics.csv").read_text() == "done\n"


def test_invalid_flag_value_fails_with_config_code(tmp_path):
    rc, _, err = run_cli(["train", "--cache", tmp_path / "nope.qivc",
                          "--outdir", tmp_path / "run", "--k", "0"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:")
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_exits_4_and_leaves_no_artifacts(pipeline, tmp_path):
    rc, _, err = run_cli(["train", "--cache", pipeline["cache"],
                          "--outdir", tmp_path / "run", *TRAIN_FLAGS,
                          "--lr", "1e300", "--batch", "2"])
    assert rc == 4
    assert err.startswith("error code=4 kind=numerical:")
    assert not (tmp_path / "run").exists()


def _hashes(root):
    """sha256 of every file under ``root``."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def test_failed_rerun_keeps_the_earlier_run(pipeline, tmp_path):
    run = ["train", "--cache", pipeline["cache"], "--outdir", tmp_path / "run", *TRAIN_FLAGS]
    rc, _, _ = run_cli(run)
    assert rc == 0
    before = _hashes(tmp_path / "run")
    assert len(before) == 8  # config.txt, metrics.csv, 3 folds x (checkpoint.bin, train_log.csv)
    rc, _, _ = run_cli([*run, "--lr", "1e300", "--batch", "2"])
    assert rc == 4
    assert _hashes(tmp_path / "run") == before


@pytest.mark.parametrize("flag, value, field", [
    ("--group-by-recording", "maybe", "group_by_recording"),
    ("--epochs", "abc", "epochs"),
    ("--lr", "fast", "lr"),
    # NaN fails every range check, and +inf is out of range for these three
    *[(flag, value, flag[2:].replace("-", "_"))
      for flag in ("--lr", "--prior-var", "--kl-scale") for value in ("nan", "inf")],
    # +inf means "no noise"; a bare -inf would parse as a flag
    ("--snr-list", "10,nan", "snr_list"),
    ("--snr-list", "10,-inf", "snr_list"),
])
def test_bad_flag_value_is_a_config_error(tmp_path, flag, value, field):
    rc, _, err = run_cli(["train", "--outdir", tmp_path / "run", flag, value])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:")
    assert err.count("\n") == 1
    assert field in err
    assert not (tmp_path / "run").exists()


def test_robustness_rejects_an_snr_past_float_range(tmp_path):
    # -4000 dB underflows 10^(snr/10) to zero; the flag is refused before
    # any cache or checkpoint is read
    rc, _, err = run_cli(["robustness", "--snr-list=-4000", "--outdir", tmp_path / "rob"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:") and "snr_list" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "rob").exists()


def test_console_failures_print_one_line_and_leave_no_outdir(pipeline, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    blow_up = ["--cache", pipeline["cache"], *TRAIN_FLAGS, "--lr", "1e300", "--batch", "2"]
    runs = [(["--group-by-recording", "maybe"], 2), (blow_up, 4)]
    for i, (flags, code) in enumerate(runs):
        outdir = tmp_path / f"run{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "qivcnet", "train", *map(str, flags), "--outdir", str(outdir)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(f"error code={code} ")
        assert not outdir.exists()


def test_preprocess_requires_a_manifest(tmp_path):
    rc, _, err = run_cli(["preprocess", "--cache", tmp_path / "c.qivc",
                          "--outdir", tmp_path / "prep"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:")


def test_preprocess_unreadable_wav_mid_stream_leaves_no_artifacts(tmp_path):
    manifest = write_wav_dataset(tmp_path / "data", 3, Rng(4), seconds=4.0)
    (tmp_path / "data" / "wavs" / "syn0001.wav").write_bytes(b"RIFF-not-really")
    cache = tmp_path / "segments.qivc"
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:")
    assert "syn0001.wav" in err
    assert not cache.exists()
    assert not (tmp_path / "prep" / "rejections.csv").exists()
    # the write streams, so the failure comes mid-write: an earlier cache stays whole
    cache.write_bytes(b"earlier cache")
    before = _hashes(tmp_path)
    rc, _, _ = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                        "--outdir", tmp_path / "prep"])
    assert rc == 3
    assert _hashes(tmp_path) == before       # no segments.qivc.tmp either


def _write_silent_wavs(root, n, seconds=8.0, rate=2000):
    (root / "wavs").mkdir(parents=True)
    lines = ["recording_id,relative_path,label"]
    for i in range(n):
        with wave.open(str(root / "wavs" / f"s{i}.wav"), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(rate)
            wav.writeframes(bytes(2 * int(seconds * rate)))
        lines.append(f"s{i},wavs/s{i}.wav,normal")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return root / "manifest.csv"


def test_preprocess_with_no_surviving_segment_keeps_the_earlier_cache(tmp_path):
    manifest = _write_silent_wavs(tmp_path / "data", 3)
    cache = tmp_path / "cache" / "segments.qivc"
    cache.parent.mkdir()
    argv = ["preprocess", "--manifest", manifest, "--cache", cache,
            "--outdir", tmp_path / "prep"]
    rc, _, err = run_cli(argv)
    assert rc == 3
    assert err == "error code=3 kind=data: no segments survived preprocessing\n"
    assert list(cache.parent.iterdir()) == []
    assert not (tmp_path / "prep").exists()
    cache.write_bytes(b"earlier cache")
    before = _hashes(cache.parent)
    assert run_cli(argv)[0] == 3
    assert _hashes(cache.parent) == before


def test_preprocess_cache_in_a_missing_directory_is_a_config_error(tmp_path):
    # the WAV is unreadable, so exit 2 rather than 3 shows no WAV was read
    manifest = write_wav_dataset(tmp_path / "data", 2, Rng(4), seconds=4.0)
    (tmp_path / "data" / "wavs" / "syn0000.wav").write_bytes(b"RIFF-not-really")
    cache = tmp_path / "missing" / "s.qivc"
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:")
    assert err.count("\n") == 1
    assert str(cache) in err
    assert not (tmp_path / "prep").exists()
    assert not (tmp_path / "missing").exists()


def test_preprocess_cache_that_is_a_directory_is_a_config_error(tmp_path):
    # the WAV is unreadable, so exit 2 rather than 3 shows no WAV was read
    manifest = write_wav_dataset(tmp_path / "data", 2, Rng(4), seconds=4.0)
    (tmp_path / "data" / "wavs" / "syn0000.wav").write_bytes(b"RIFF-not-really")
    cache = tmp_path / "cache.qivc"
    cache.mkdir()
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:") and err.count("\n") == 1
    assert str(cache) in err
    assert not (tmp_path / "prep").exists()
    assert cache.is_dir() and list(cache.iterdir()) == []


def test_preprocess_unwritable_cache_is_a_data_error(tmp_path):
    # a directory where the cache's temporary file goes makes the write fail
    # with an OSError, which exits 3 in one line and takes the new outdir along
    manifest = write_wav_dataset(tmp_path / "data", 2, Rng(4), seconds=4.0)
    cache = tmp_path / "segments.qivc"
    (tmp_path / "segments.qivc.tmp").mkdir()
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:") and err.count("\n") == 1
    assert "segments.qivc.tmp" in err
    assert not cache.exists()
    assert not (tmp_path / "prep").exists()


def test_input_text_that_is_not_utf8_fails_in_one_line(tmp_path):
    # a latin-1 byte in a config file exits 2, in a manifest 3, and neither
    # run leaves its new outdir or a cache behind
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"trials = 2\n# caf\xe9\n")
    rc, _, err = run_cli(["noise-stats", "--config", cfg, "--outdir", tmp_path / "ns"])
    assert (rc, err) == (2, f"error code=2 kind=config: {cfg}: not UTF-8 text (byte 16)\n")
    assert not (tmp_path / "ns").exists()
    manifest = Path(write_wav_dataset(tmp_path / "data", 2, Rng(4), seconds=4.0))
    manifest.write_bytes(manifest.read_bytes().replace(b"syn0000,", b"syn\xff000,", 1))
    cache = tmp_path / "segments.qivc"
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert (rc, err) == (3, f"error code=3 kind=data: manifest {manifest} is not UTF-8 text\n")
    assert not (tmp_path / "prep").exists() and not cache.exists()


@pytest.mark.parametrize("below", [False, True])
def test_outdir_that_cannot_be_a_directory_is_a_config_error(tmp_path, below):
    # an existing file as the outdir, or as one of its parents
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    outdir = taken / "run" if below else taken
    rc, _, err = run_cli(["noise-stats", "--trials", "5", "--outdir", outdir])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:") and err.count("\n") == 1
    assert str(outdir) in err
    assert taken.read_text() == "keep me\n"


def test_preprocess_memory_does_not_grow_with_the_corpus(tmp_path):
    """Segments stream to the cache, so 16 recordings need no more traced
    memory than 4 of the same length; holding them would add 16 kB each."""
    manifests = {n: write_wav_dataset(tmp_path / f"d{n}", n, Rng(n), seconds=12.0)
                 for n in (4, 16)}

    def traced_peak(n):
        tracemalloc.start()
        try:
            rc, out, _ = run_cli(["preprocess", "--manifest", manifests[n],
                                  "--cache", tmp_path / f"c{n}.qivc",
                                  "--outdir", tmp_path / f"prep{n}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and f"cached {3 * n} segments" in out
        return peak

    traced_peak(4)                          # warm-up: filter designs
    small, large = traced_peak(4), traced_peak(16)
    assert large <= small + 64 * 1024, (small, large)


def test_preprocess_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The band-pass runs as BLAS matrix products; its cache and rejections
    are the same bytes at one BLAS thread and at two."""
    data = tmp_path / "data"
    manifest = _write_silent_wavs(data, 1, seconds=9.0, rate=4000)
    rows = []
    for rate in (2000, 4000):
        sub = write_wav_dataset(data / str(rate), 2, Rng(rate), sample_rate=rate,
                                seconds=13.0)
        for row in sub.read_text().splitlines()[1:]:
            rid, rel, label = row.split(",")
            rows.append(f"{rid}_{rate},{rate}/{rel},{label}\n")
    with open(manifest, "a") as fh:
        fh.writelines(rows)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "qivcnet", "preprocess", "--manifest",
                        str(manifest), "--cache", str(out / "segments.qivc"),
                        "--outdir", str(out)], env=env, check=True, timeout=120,
                       capture_output=True)
        outputs.append([(out / name).read_bytes()
                        for name in ("segments.qivc", "rejections.csv")])
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"identically zero") == 2


def _drop_label_field(manifest):
    with open(manifest, "a") as fh:
        fh.write("syn0009,wavs/syn0000.wav\n")
    return "manifest.csv:5"


def _add_extra_field(manifest):
    with open(manifest, "a") as fh:
        fh.write("syn0009,wavs/syn0000.wav,normal,extra\n")
    return "manifest.csv:5"


def _cut_stereo_wav_inside_a_frame(manifest):
    path = manifest.parent / "wavs" / "syn0001.wav"
    with wave.open(str(path), "rb") as wav:
        pcm = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(2)
        wav.setsampwidth(2)
        wav.setframerate(4000)
        wav.writeframes(np.repeat(pcm, 2).tobytes())
    path.write_bytes(path.read_bytes()[:-3])
    return "syn0001.wav"


def test_preprocess_refuses_a_repeated_recording_id_before_reading_a_wav(tmp_path):
    # one id for a normal and an abnormal recording would be cached, dealt
    # into folds and exported as one recording with two labels
    manifest = write_wav_dataset(tmp_path / "data", 3, Rng(4), seconds=4.0)
    manifest.write_text(manifest.read_text().replace("syn0001,", "syn0000,"))
    (manifest.parent / "wavs" / "syn0000.wav").unlink()
    cache = tmp_path / "segments.qivc"
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert (rc, err) == (3, f"error code=3 kind=data: {manifest}:3: recording_id "
                            f"'syn0000' already listed on line 2\n")
    assert not cache.exists() and not (tmp_path / "prep").exists()


@pytest.mark.parametrize("damage", [_drop_label_field, _add_extra_field,
                                    _cut_stereo_wav_inside_a_frame])
def test_preprocess_malformed_input_fails_with_data_code(tmp_path, damage):
    manifest = write_wav_dataset(tmp_path / "data", 3, Rng(4), seconds=4.0)
    where = damage(manifest)
    cache = tmp_path / "segments.qivc"
    rc, _, err = run_cli(["preprocess", "--manifest", manifest, "--cache", cache,
                          "--outdir", tmp_path / "prep"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:")
    assert where in err
    assert not cache.exists()
    assert not (tmp_path / "prep").exists()      # config.txt is removed too


def test_eval_requires_a_checkpoint(pipeline, tmp_path):
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--outdir", tmp_path / "eval"])
    assert rc == 2
    assert "checkpoint" in err


@pytest.mark.parametrize("command", ["eval", "calibrate"])
def test_non_finite_test_segment_is_a_data_error(pipeline, tmp_path, command):
    # before the cache check, both commands exited 0 and reported ece=nan
    segs = load_segment_cache(pipeline["cache"])
    _, meta = load_checkpoint(pipeline["checkpoint"])
    bad = segs[meta["test_indices"][0]]
    segs = [replace(s, values=s.values.copy()) for s in segs]
    segs[meta["test_indices"][0]].values[100] = np.nan
    save_segment_cache(tmp_path / "nan.qivc", segs)
    rc, _, err = run_cli([command, "--cache", tmp_path / "nan.qivc",
                          "--checkpoint", pipeline["checkpoint"],
                          "--outdir", tmp_path / "out"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:") and err.count("\n") == 1
    assert f"({bad.recording_id} window {bad.window_index})" in err
    assert not (tmp_path / "out").exists()


def test_eval_rejects_cache_from_a_different_corpus(pipeline, tmp_path):
    # the checkpoint records how many segments it was trained against
    manifest = write_wav_dataset(tmp_path / "data", 6, Rng(1), seconds=4.0)
    rc, _, _ = run_cli(["preprocess", "--manifest", manifest,
                        "--cache", tmp_path / "other.qivc",
                        "--outdir", tmp_path / "prep"])
    assert rc == 0
    rc, _, err = run_cli(["eval", "--cache", tmp_path / "other.qivc",
                          "--checkpoint", pipeline["checkpoint"],
                          "--outdir", tmp_path / "eval"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:")


@pytest.mark.parametrize("keep, patch", [
    ((), {}),                                   # only n_segments survives
    (("network", "val_indices"), {"test_indices": [0, 12]}),  # 12 is past the cache
])
def test_eval_rejects_incomplete_checkpoint_metadata(pipeline, tmp_path, keep, patch):
    arrays, meta = load_checkpoint(pipeline["checkpoint"])
    broken = {"n_segments": meta["n_segments"], **{k: meta[k] for k in keep}, **patch}
    save_checkpoint(tmp_path / "broken.bin", arrays, broken)
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "broken.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:")
    assert not (tmp_path / "eval").exists()


def _echo(**changes):
    """A metadata edit that sets fields of the architecture echo."""
    return lambda meta: {**meta, "network": {**meta["network"], **changes}}


def _sampler_echo(**changes):
    """A metadata edit that sets fields of the echo's sampler config."""
    return lambda meta: _echo(qire={**meta["network"]["qire"], **changes})(meta)


@pytest.mark.parametrize("edit, code, named", [
    (lambda meta: sorted(meta), 3, "metadata"),
    (lambda meta: {**meta, "test_indices": ["a"]}, 3, "test_indices"),
    (lambda meta: {**meta, "test_indices": [0.5]}, 3, "test_indices"),
    (lambda meta: {**meta, "test_indices": [True]}, 3, "test_indices"),
    (lambda meta: {**meta, "test_indices": []}, 3, "test_indices"),
    (_echo(blocks=[[4]]), 2, "blocks"),
    (_echo(seed="x"), 2, "architecture seed must be a JSON int"),
    (_echo(seed=True), 2, "architecture seed must be a JSON int"),
    (_echo(classifier_width=3.0), 2, "architecture classifier_width must be a JSON int"),
    (_echo(classifier_width="3"), 2, "architecture classifier_width must be a JSON int"),
    (_echo(prior_var=None), 2, "architecture prior_var must be a JSON float"),
    (_echo(activation=[1]), 2, "architecture activation must be a JSON str"),
    (_echo(qire=[2, 0.05]), 2, "sampler must be a JSON object"),
    (_sampler_echo(k="2"), 2, "sampler k must be a JSON int"),
    (_sampler_echo(rescale_sqrt_n=False), 2, "unexpected keys ['rescale_sqrt_n']"),
    (lambda meta: {**meta, "network": "16x7,32x7"}, 2, "architecture must be a JSON object"),
], ids=["a list", "a string index", "a float index", "a bool index", "an empty split",
        "a short block", "a string seed", "a bool seed", "a float width", "a string width",
        "a null prior_var", "a list activation", "a list sampler", "a string k",
        "an old sampler echo", "a string architecture"])
def test_eval_refuses_checkpoint_metadata_of_the_wrong_type(pipeline, tmp_path, edit, code,
                                                            named):
    arrays, meta = load_checkpoint(pipeline["checkpoint"])
    save_checkpoint(tmp_path / "edited.bin", arrays, edit(meta))
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "edited.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == code
    assert err.startswith(f"error code={code} ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_a_malformed_checkpoint_in_one_line(pipeline, tmp_path):
    # a valid checksum over an array entry that claims more data than follows
    body = struct.pack("<HIH", 1, 1, 1) + b"w" + struct.pack("<BBI", 0, 1, 1000) + bytes(16)
    (tmp_path / "bad.bin").write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "bad.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:") and err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_deeply_nested_checkpoint_metadata_in_one_line(pipeline, tmp_path):
    # a valid checksum over JSON nested past the decoder's recursion limit
    payload = b"[" * 100000
    body = (struct.pack("<HIH", 1, 1, 4) + b"meta" + struct.pack("<BI", 1, len(payload))
            + payload)
    (tmp_path / "deep.bin").write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "deep.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == 3
    assert err.startswith("error code=3 kind=data:") and err.count("\n") == 1
    assert "malformed checkpoint entry" in err
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_a_checkpoint_with_conv_biases(pipeline, tmp_path):
    # the array layout from before the convs that feed a batch norm lost
    # their biases: mu_b/rho_b per conv and a shortcut.w/shortcut.b pair
    arrays, meta = load_checkpoint(pipeline["checkpoint"])
    old = {}
    for name, arr in arrays.items():
        if name.endswith(".shortcut"):
            old[name + ".w"], old[name + ".b"] = arr, np.zeros(arr.shape[-1])
        else:
            old[name] = arr
        if name.endswith("_conv.mu_w"):
            old[name[:-1] + "b"] = np.zeros(arr.shape[-1])
            old[name[:-4] + "rho_b"] = np.full(arr.shape[-1], -5.0)
    save_checkpoint(tmp_path / "old.bin", old, meta)
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "old.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:") and err.count("\n") == 1
    assert "block0.fwd_conv.mu_b" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("old_echo", [False, True])
def test_eval_refuses_a_checkpoint_with_two_conv_batch_norms(pipeline, tmp_path, old_echo):
    # the layout from before both variational convs ran as one stage:
    # bn_fwd and bn_bwd where bn_conv now holds their channels side by side,
    # and a network echo that still carried kl_scale
    arrays, meta = load_checkpoint(pipeline["checkpoint"])
    old = {}
    for name, arr in arrays.items():
        if ".bn_conv." in name:
            half = len(arr) // 2
            old[name.replace("bn_conv", "bn_fwd")] = arr[:half]
            old[name.replace("bn_conv", "bn_bwd")] = arr[half:]
        else:
            old[name] = arr
    if old_echo:
        meta = {**meta, "network": {**meta["network"], "kl_scale": 1e-5}}
    save_checkpoint(tmp_path / "old.bin", old, meta)
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "old.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:") and err.count("\n") == 1
    assert ("kl_scale" if old_echo else "block0.bn_bwd.beta") in err
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_a_checkpoint_that_echoes_removed_settings(pipeline, tmp_path):
    # bn_momentum and pool_between are constants now; an echo that still
    # carries them comes from older code and is refused by name
    arrays, meta = load_checkpoint(pipeline["checkpoint"])
    meta = {**meta, "network": {**meta["network"], "bn_momentum": 0.1, "pool_between": True}}
    save_checkpoint(tmp_path / "old.bin", arrays, meta)
    rc, _, err = run_cli(["eval", "--cache", pipeline["cache"],
                          "--checkpoint", tmp_path / "old.bin",
                          "--outdir", tmp_path / "eval"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:") and err.count("\n") == 1
    assert "unexpected keys ['bn_momentum', 'pool_between']" in err
    assert not (tmp_path / "eval").exists()


def test_malformed_blocks_flag_is_a_config_error(tmp_path):
    rc, _, err = run_cli(["train", "--cache", tmp_path / "nope.qivc",
                          "--outdir", tmp_path / "run", "--blocks", "2y3"])
    assert rc == 2
    assert err.startswith("error code=2 kind=config:")
