import json

import numpy as np
import pytest

from conftest import rewrite_config_blob
from seqcl.cli import main

TINY = {
    "seed": 5,
    "data": {"num_videos": 6, "num_phases": 3, "feature_dim": 8,
             "min_len": 20, "max_len": 30, "noise_std": 0.2},
    "augment": {"T": 8, "alpha": 1.5, "beta": 0.5},
    "encoder": {"input_dim": 8, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                "ffn_dim": 32, "out_dim": 8, "proj_hidden": 8, "proj_out": 6},
    "loss": {"sigma2": 10.0, "tau": 0.1},
    "optim": {"lr": 1e-3, "epochs": 2, "videos_per_batch": 3},
    "probe": {"steps": 50, "lr": 0.1},
}


@pytest.fixture
def workspace(tmp_path):
    cfg = dict(TINY)
    cfg["data_dir"] = str(tmp_path / "data")
    cfg["checkpoint"] = str(tmp_path / "encoder.ckpt")
    cfg["report"] = str(tmp_path / "report.json")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path, cfg


def test_pipeline_end_to_end(workspace, capsys):
    tmp, cfg_path, cfg = workspace
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert (tmp / "data" / "dataset.json").exists()
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp / "encoder.ckpt").exists()
    assert (tmp / "encoder.loss.csv").exists()
    assert main(["eval", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp / "report.json").read_text())
    for key in ("classification_acc", "progression_r2", "kendalls_tau", "ap_at_k"):
        assert key in report
    assert report["config"]["seed"] == 5  # effective config echoed for provenance


def test_align_and_retrieve(workspace, capsys):
    tmp, cfg_path, cfg = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    manifest = json.loads((tmp / "data" / "dataset.json").read_text())
    a, b = manifest["test"][0], manifest["train"][0]
    out = tmp / "alignment"
    assert main(["align", "--config", str(cfg_path), a, b, "--out", str(out)]) == 0
    assert out.with_suffix(".csv").read_text().startswith("i,j\n")
    assert out.with_suffix(".pgm").read_bytes().startswith(b"P5\n")
    assert main(["retrieve", "--config", str(cfg_path), a, "0", "-K", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 3


def test_invalid_config_exit_code(workspace):
    _, cfg_path, _ = workspace
    assert main(["gen-data", "--config", str(cfg_path), "--sigma2", "0"]) == 3


def test_missing_checkpoint_exit_code(workspace):
    _, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    assert main(["eval", "--config", str(cfg_path)]) == 4


def test_missing_config_file_exit_code(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json")]) == 3


def test_unknown_flag_usage_exit_code(workspace):
    _, cfg_path, _ = workspace
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(cfg_path), "--bogus"])
    assert exc.value.code == 2


def test_flag_overrides_win(workspace):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--epochs", "1"])
    lines = (tmp / "encoder.loss.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one epoch


def test_repeat_runs_byte_identical(workspace):
    tmp, cfg_path, cfg = workspace
    artifacts = []
    for run in range(2):
        for cmd in ("gen-data", "train", "eval"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
        artifacts.append(
            ((tmp / "encoder.ckpt").read_bytes(), (tmp / "report.json").read_bytes())
        )
    assert artifacts[0] == artifacts[1]


def test_invalid_config_in_checkpoint_exit_code(workspace, capsys):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    rewrite_config_blob(tmp / "encoder.ckpt", model_dim=15)
    assert main(["eval", "--config", str(cfg_path)]) == 4
    assert "invalid config blob" in capsys.readouterr().err


def _manifest_without(key):
    def corrupt(data_dir):
        path = data_dir / "dataset.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        return path
    return corrupt


def _bad_manifest_json(data_dir):
    path = data_dir / "dataset.json"
    path.write_text('{"train": [')
    return path


def _bad_sidecar_json(data_dir):
    first = json.loads((data_dir / "dataset.json").read_text())["train"][0]
    path = data_dir / f"{first}.json"
    path.write_text('{"id": ')
    return path


def _sidecar_with(key, make):
    """Set one field of the first train video's sidecar to make(sidecar)."""
    def corrupt(data_dir):
        first = json.loads((data_dir / "dataset.json").read_text())["train"][0]
        path = data_dir / f"{first}.json"
        meta = json.loads(path.read_text())
        meta[key] = make(meta)
        path.write_text(json.dumps(meta))
        return path
    return corrupt


SIDECAR_FIELDS = {
    "labels-int": ("phase_labels", lambda meta: 5),
    "labels-str": ("phase_labels", lambda meta: "x" * len(meta["phase_labels"])),
    "labels-null-entry": ("phase_labels", lambda meta: [None] + meta["phase_labels"][1:]),
    "labels-bool-entry": ("phase_labels", lambda meta: [True] + meta["phase_labels"][1:]),
    "action-list": ("action_label", lambda meta: [1]),
    "id-int": ("id", lambda meta: 5),
}


@pytest.mark.parametrize("corrupt", [
    _bad_manifest_json, *(_manifest_without(k) for k in ("train", "test", "num_phases", "feature_dim")),
    _bad_sidecar_json, *(_sidecar_with(*field) for field in SIDECAR_FIELDS.values()),
], ids=["manifest-json", "no-train", "no-test", "no-num_phases", "no-feature_dim", "sidecar-json",
        *SIDECAR_FIELDS])
def test_malformed_dataset_exit_code(workspace, capsys, corrupt):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    bad = corrupt(tmp / "data")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 4
    assert str(bad) in capsys.readouterr().err
