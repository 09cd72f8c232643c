"""Command-line entry point.

Subcommands::

    preprocess     manifest of WAV files -> segment cache + rejection report
    train          segment cache -> per-fold checkpoints, logs, metrics CSV
    eval           checkpoint -> validation/test metrics CSV
    robustness     checkpoint -> metrics vs additive-noise SNR sweep CSV
    calibrate      checkpoint -> reliability bins + expected calibration error
    noise-stats    structured-noise sampler diagnostics CSV
    export-latent  checkpoint -> 3-D bottleneck coordinates per segment

Every command resolves its configuration as defaults <- ``--config`` file
<- explicit flags, validates it before doing any work, echoes the resolved
form to ``<outdir>/config.txt`` once it succeeds, and on failure removes the
outdir if it made it and prints a one-line machine-parsable reason.  Exit codes:
0 success, 2 configuration error, 3 data error (including a file the command
could not read or write), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from . import dataio, network, preprocess, qire, training
from .config import FIELD_KINDS, RunConfig, _convert, config_text, resolve_config
from .errors import ConfigError, DataError, QivcError, ShapeError
from .folds import segment_labels, stratified_kfold
from .metrics import MetricsReport, compute_metrics, expected_calibration_error, reliability_bins
from .rng import Rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _load_cache(cfg: RunConfig):
    segments = dataio.load_segment_cache(cfg.cache)
    return segments, segment_labels(segments)


def _load_net(cfg: RunConfig, segments):
    """The checkpointed net and its metadata, whose split indices come back
    as int64 arrays checked against the cache."""
    if not cfg.checkpoint:
        raise ConfigError("this command needs --checkpoint")
    arrays, meta = ckpt_io.load_checkpoint(cfg.checkpoint)
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint metadata is a JSON {type(meta).__name__}, not an object")
    if meta.get("n_segments") != len(segments):
        raise DataError(
            f"checkpoint was trained on {meta.get('n_segments')} segments but the "
            f"cache holds {len(segments)}")
    missing = [key for key in ("network", "val_indices", "test_indices") if key not in meta]
    if missing:
        raise DataError(f"checkpoint metadata lacks {', '.join(missing)}")
    for key in ("val_indices", "test_indices"):
        idx = meta[key]
        # bool is an int subclass, and a JSON true is no segment index
        if not (isinstance(idx, list) and idx and all(
                type(i) is int and 0 <= i < len(segments) for i in idx)):
            raise DataError(f"checkpoint {key} must be a non-empty list of integers "
                            f"inside the {len(segments)}-segment cache")
        meta[key] = np.array(idx, dtype=np.int64)
    net = network.QivcNet(network.config_from_dict(meta["network"]))
    net.load_state(arrays)
    return net, meta


def _score_groups(net, groups: "list[tuple]") -> "list[tuple]":
    """(key, metrics report) per (key, segments) group, all scored by one inference call."""
    probs = network.infer_probs(net, [seg for _, group in groups for seg in group])
    ends = np.cumsum([len(group) for _, group in groups])[:-1]
    return [(key, compute_metrics(segment_labels(group), p.argmax(axis=1), p[:, 1]))
            for (key, group), p in zip(groups, np.split(probs, ends))]


def cmd_preprocess(cfg: RunConfig, outdir: Path) -> None:
    if not cfg.manifest:
        raise ConfigError("preprocess needs --manifest")
    if not Path(cfg.cache).parent.is_dir():
        raise ConfigError(f"the directory of --cache {cfg.cache} does not exist")
    if Path(cfg.cache).is_dir():
        raise ConfigError(f"--cache {cfg.cache} is a directory")
    rejected, n_recordings = [], 0

    def kept_segments():
        nonlocal n_recordings
        n_kept = 0
        for n_recordings, rec in enumerate(dataio.iter_recordings(cfg.manifest), 1):
            segs, rej = preprocess.preprocess_recording(rec)
            rejected.extend(rej)
            n_kept += len(segs)
            yield from segs
        if not n_kept:  # raised inside the write, so any earlier cache stays
            raise DataError("no segments survived preprocessing")

    n_segments = dataio.save_segment_cache(cfg.cache, kept_segments())
    dataio.write_csv(outdir / "rejections.csv",
                     ("recording_id", "window_index", "reason"),
                     [(r.recording_id, r.window_index, r.reason) for r in rejected])
    print(f"cached {n_segments} segments from {n_recordings} recordings "
          f"({len(rejected)} windows rejected) -> {cfg.cache}")


def cmd_train(cfg: RunConfig, outdir: Path) -> None:
    segments, _ = _load_cache(cfg)
    split = stratified_kfold(segments, k=cfg.folds, seed=cfg.seed,
                             group_by_recording=cfg.group_by_recording)
    results = training.train(segments, split, cfg, outdir)
    dataio.write_csv(outdir / "metrics.csv", training.METRICS_CSV_HEADER,
                     training.metrics_rows(results))
    for r in results:
        print(f"fold {r.fold}: epochs={r.state.epoch} best_val_f1={r.state.best_val_f1!r} "
              f"test_acc={r.report.accuracy!r} test_f1={r.report.f1!r}")


def cmd_eval(cfg: RunConfig, outdir: Path) -> None:
    segments, _ = _load_cache(cfg)
    net, meta = _load_net(cfg, segments)
    splits = [(name, [segments[i] for i in meta[f"{name}_indices"]]) for name in ("val", "test")]
    rows = []
    for split_name, report in _score_groups(net, splits):
        rows.append((split_name, *astuple(report)))
        print(f"{split_name}: acc={report.accuracy!r} f1={report.f1!r} auc={report.auc!r}")
    dataio.write_csv(outdir / "eval_metrics.csv",
                     ("split",) + MetricsReport.CSV_HEADER, rows)


def cmd_robustness(cfg: RunConfig, outdir: Path) -> None:
    segments, _ = _load_cache(cfg)
    net, meta = _load_net(cfg, segments)
    test_idx = meta["test_indices"]
    master = Rng(cfg.seed)
    noisy = []
    for snr in cfg.snr_values():
        rng = master.fork()
        noisy.append((snr, [preprocess.inject_noise_snr(segments[i], snr, rng) for i in test_idx]))
    rows = []
    for snr, report in _score_groups(net, noisy):
        rows.append((snr, *astuple(report)))
        print(f"snr={snr!r}dB acc={report.accuracy!r} auc={report.auc!r}")
    dataio.write_csv(outdir / "robustness.csv",
                     ("snr_db",) + MetricsReport.CSV_HEADER, rows)


def cmd_calibrate(cfg: RunConfig, outdir: Path) -> None:
    segments, labels = _load_cache(cfg)
    net, meta = _load_net(cfg, segments)
    test_idx = meta["test_indices"]
    probs = network.infer_probs(net, [segments[i] for i in test_idx])
    preds = probs.argmax(axis=1)
    bins = reliability_bins(labels[test_idx], preds, probs[:, 1])
    ece = expected_calibration_error(bins)
    dataio.write_csv(outdir / "reliability.csv",
                     ("bin_low", "bin_high", "count", "mean_confidence", "accuracy"),
                     zip(bins.edges[:-1], bins.edges[1:], bins.counts,
                         bins.mean_confidence, bins.accuracy))
    dataio.write_csv(outdir / "ece.csv", ("count", "ece"),
                     [(bins.counts.sum(), ece)])
    print(f"ece={ece!r} over {int(bins.counts.sum())} test segments")


def cmd_noise_stats(cfg: RunConfig, outdir: Path) -> None:
    """Sampler diagnostics at the last block's kernel shape, (width, c_in, filters)."""
    blocks = cfg.network_config().blocks
    filters, width = blocks[-1]
    c_in = blocks[-2][0] if len(blocks) > 1 else 1
    stats = qire.noise_statistics(cfg.qire_config(), (width, c_in, filters),
                                  cfg.trials, Rng(cfg.seed))
    dataio.write_csv(outdir / "noise_stats.csv", qire.NoiseStats.CSV_HEADER,
                     [[getattr(stats, name) for name in qire.NoiseStats.CSV_HEADER]])
    print(f"k={stats.k} p={stats.p!r} n={stats.n}: mean_norm={stats.mean_norm!r} "
          f"subspace_energy={stats.subspace_energy!r}")


def cmd_export_latent(cfg: RunConfig, outdir: Path) -> None:
    segments, _ = _load_cache(cfg)
    net, _ = _load_net(cfg, segments)
    rows = network.export_latent(net, segments)
    dataio.write_csv(outdir / "latent.csv",
                     ("segment_id", "label", "z1", "z2", "z3"), rows)
    print(f"exported {len(rows)} bottleneck rows")


COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "robustness": cmd_robustness,
    "calibrate": cmd_calibrate,
    "noise-stats": cmd_noise_stats,
    "export-latent": cmd_export_latent,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):   # main's one error line, not a usage block
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qivcnet",
        description="Variational convolution networks for heart-sound classification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for field in FIELD_KINDS:  # raw strings; main converts them like file values
            p.add_argument("--" + field.replace("_", "-"), default=None)
    return parser


def _fail(code: int, kind: str, exc: Exception, created: "Path | None") -> int:
    if created is not None:
        shutil.rmtree(created, ignore_errors=True)
    reason = " ".join(str(exc).split())
    print(f"error code={code} kind={kind}: {reason}", file=sys.stderr)
    return code


def main(argv: "list[str] | None" = None) -> int:
    """Run one command. A failure removes the outdir only if this command made
    it; every artifact is published whole, so none is ever partial."""
    created = None
    try:
        args = _build_parser().parse_args(argv)
        flags = {name: _convert(name, kind, raw) for name, kind in FIELD_KINDS.items()
                 if (raw := getattr(args, name)) is not None}
        cfg = resolve_config(args.config, flags)
        outdir = Path(cfg.outdir)
        created = None if outdir.exists() else outdir
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"cannot create --outdir {outdir}: {exc.strerror}") from exc
        # the finite checks raise NumericalError, so numpy's warnings add nothing
        with np.errstate(all="ignore"):
            COMMANDS[args.command](cfg, outdir)
        dataio.publish(outdir / "config.txt", lambda tmp: tmp.write_text(config_text(cfg)))
        return EXIT_OK
    except (ConfigError, ShapeError) as exc:
        return _fail(EXIT_CONFIG, "config", exc, created)
    except (DataError, OSError) as exc:  # OSError: a file it could not read or write
        return _fail(EXIT_DATA, "data", exc, created)
    except QivcError as exc:
        return _fail(EXIT_NUMERICAL, "numerical", exc, created)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
