"""Run configuration: file parsing, precedence, derived configs."""

import json

import pytest

from qivcnet.config import (
    RunConfig,
    config_text,
    load_config_file,
    parse_blocks,
    resolve_config,
)
from qivcnet.errors import ConfigError
from qivcnet.network import NetworkConfig, config_to_dict
from qivcnet.qire import QireConfig


# ------------------------------------------------------------------ blocks

def test_parse_blocks():
    assert parse_blocks("16x7,32x7") == ((16, 7), (32, 7))
    assert parse_blocks(" 4x3 , 6x5 ") == ((4, 3), (6, 5))
    assert parse_blocks("8x1") == ((8, 1),)


def test_parse_blocks_errors():
    for bad in ("", "16", "16x7x2", "axb", "16x7,,"):
        if bad == "16x7,,":
            assert parse_blocks(bad) == ((16, 7),)  # empty parts are skipped
            continue
        with pytest.raises(ConfigError):
            parse_blocks(bad)


# ------------------------------------------------------------------ file

def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "lr = 0.01   # trailing comment\n"
        "\n"
        "blocks = 4x3,6x3\n"
        "pool_between = false\n"
        "epochs=20\n"
        "seed = 7\n")
    overrides = load_config_file(p)
    assert overrides == {"lr": 0.01, "blocks": "4x3,6x3",
                         "pool_between": False, "epochs": 20, "seed": 7}


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.cfg")
    p = tmp_path / "bad.cfg"
    p.write_text("unknown_key = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(p)
    p.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(p)
    p.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="expected int"):
        load_config_file(p)
    p.write_text("pool_between = maybe\n")
    with pytest.raises(ConfigError, match="expected bool"):
        load_config_file(p)


def test_bool_words(tmp_path):
    p = tmp_path / "b.cfg"
    for word, value in (("true", True), ("YES", True), ("1", True),
                        ("false", False), ("No", False), ("0", False)):
        p.write_text(f"dynamic_weights = {word}\n")
        assert load_config_file(p)["dynamic_weights"] is value


# -------------------------------------------------------------- precedence

def test_resolve_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("lr = 0.01\nepochs = 20\n")
    cfg = resolve_config(str(p), {"epochs": 30, "batch": None})
    assert cfg.lr == 0.01          # file beats default
    assert cfg.epochs == 30        # flag beats file
    assert cfg.batch == 256        # None flags fall through to defaults


def test_resolve_defaults_only():
    cfg = resolve_config(None, {})
    assert cfg.blocks == "16x7,32x7"
    assert cfg.folds == 5


def test_resolve_validates(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config(None, {"k": 0})
    with pytest.raises(ConfigError):
        resolve_config(None, {"folds": 1})
    with pytest.raises(ConfigError):
        resolve_config(None, {"seed": -3})
    with pytest.raises(ConfigError):
        resolve_config(None, {"blocks": "32x7,16x7"})
    with pytest.raises(ConfigError):
        resolve_config(None, {"snr_list": "a,b"})
    with pytest.raises(ConfigError):
        resolve_config(None, {"kernel_shape": "0x3"})
    with pytest.raises(ConfigError):
        resolve_config(None, {"trials": 0})
    with pytest.raises(ConfigError):
        resolve_config(None, {"jobs": 0})
    with pytest.raises(ConfigError):
        resolve_config(None, {"fold_index": -2})
    with pytest.raises(ConfigError):
        resolve_config(None, {"fold_index": 5, "folds": 5})
    with pytest.raises(ConfigError):
        resolve_config(None, {"ema_decay": 1.5})
    with pytest.raises(ConfigError):
        resolve_config(None, {"bn_momentum": 7.0})
    with pytest.raises(ConfigError, match="kl_scale"):
        resolve_config(None, {"kl_scale": -1.0})


# ----------------------------------------------------------------- derived

def test_derived_configs():
    cfg = resolve_config(None, {"blocks": "4x3,6x5", "k": 3, "p": 0.1,
                                "classifier_width": 8, "lr": 0.002})
    net = cfg.network_config()
    assert net.blocks == ((4, 3), (6, 5))
    assert net.qire.k == 3
    assert net.qire.p == 0.1
    assert net.classifier_width == 8
    assert cfg.lr == 0.002
    assert cfg.snr_values() == [25.0, 20.0, 15.0, 10.0, 5.0]
    assert cfg.kernel_shape_tuple() == (7, 16, 32)


def test_snr_values_custom():
    cfg = RunConfig(snr_list="30, 10 ,5")
    assert cfg.snr_values() == [30.0, 10.0, 5.0]
    with pytest.raises(ConfigError):
        RunConfig(snr_list="").snr_values()


@pytest.mark.parametrize("snr_list", ["-4000", "-3100", "4000", "10,4000"])
def test_snr_values_past_float_range_are_rejected(snr_list):
    # 10^(snr/10) or its reciprocal leaves the finite nonzero floats here:
    # noise injection would divide by zero, overflow or return NaN
    with pytest.raises(ConfigError, match="snr_list"):
        RunConfig(snr_list=snr_list)


def test_snr_values_at_the_edge_of_float_range_are_accepted():
    assert RunConfig(snr_list="-3082,3082,inf").snr_values() == [-3082.0, 3082.0, float("inf")]


# -------------------------------------------------------------------- echo

def test_config_text_round_trips(tmp_path):
    cfg = resolve_config(None, {"lr": 0.0025, "blocks": "4x3", "pool_between": False,
                                "classifier_width": 8, "seed": 11})
    text = config_text(cfg)
    p = tmp_path / "echo.cfg"
    p.write_text(text)
    again = resolve_config(str(p), {})
    assert again == cfg
    assert "lr = 0.0025" in text
    assert "pool_between = false" in text


# --------------------------------------------------------------------- pins

DEFAULT_CONFIG_TEXT = (
    "manifest = \ncache = segments.qivc\noutdir = runs/latest\ncheckpoint = \n"
    "k = 5\np = 0.05\nrescale_sqrt_n = false\nprior_var = 0.01\nkl_scale = 1e-05\n"
    "blocks = 16x7,32x7\npool_between = true\nclassifier_width = 32\n"
    "activation = relu\nbn_momentum = 0.1\nlr = 0.001\nbatch = 256\nepochs = 500\n"
    "patience = 50\nfolds = 5\nfold_index = -1\nval_fraction = 0.1\n"
    "dynamic_weights = true\nema_decay = 0.9\ngroup_by_recording = false\njobs = 1\n"
    "seed = 0\nsnr_list = 25,20,15,10,5\ntrials = 10000\nkernel_shape = 7x16x32\n")


def test_default_config_text_bytes_are_pinned():
    assert config_text(RunConfig()) == DEFAULT_CONFIG_TEXT


def test_network_echo_json_bytes_are_pinned():
    cfg = NetworkConfig(blocks=((4, 3), (6, 5)), classifier_width=8,
                        qire=QireConfig(k=3, p=0.1, rescale_sqrt_n=True),
                        prior_var=0.02, bn_momentum=0.2,
                        activation="tanh", pool_between=False, seed=9)
    assert json.dumps(config_to_dict(cfg), sort_keys=True) == (
        '{"activation": "tanh", "blocks": [[4, 3], [6, 5]], "bn_momentum": 0.2, '
        '"classifier_width": 8, "pool_between": false, '
        '"prior_var": 0.02, "qire": {"k": 3, "p": 0.1, "rescale_sqrt_n": true}, '
        '"seed": 9}')


def test_default_blocks_match_the_network_default():
    assert parse_blocks(RunConfig().blocks) == NetworkConfig().blocks
