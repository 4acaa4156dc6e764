import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rewrite_config_blob
from seqcl import cli
from seqcl import encoder as enc
from seqcl.cli import main
from seqcl.data import load_dataset
from seqcl.errors import SeqclError

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


def test_one_phase_dataset_reports_null_accuracy(workspace, capsys):
    tmp, cfg_path, cfg = workspace
    cfg["data"] = dict(cfg["data"], num_phases=1)
    cfg_path.write_text(json.dumps(cfg))
    for command in ("gen-data", "train", "eval"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    report = json.loads((tmp / "report.json").read_text())
    assert report["classification_acc"] is None
    assert np.isfinite(report["progression_r2"])


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


def _scale_test_video(workspace, scale):
    """Train on the TINY data, then scale the first test video's features;
    returns that video's id and the first train video's."""
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    manifest = json.loads((tmp / "data" / "dataset.json").read_text())
    a, b = manifest["test"][0], manifest["train"][0]
    path = tmp / "data" / f"{a}.fseq"
    blob = path.read_bytes()
    feats = np.frombuffer(blob[16:], dtype="<f4")
    scaled = (feats.astype(np.float64) * (scale / np.abs(feats).max())).astype("<f4")
    assert np.isfinite(scaled).all()
    path.write_bytes(blob[:16] + scaled.tobytes())
    return a, b


def test_large_magnitude_features_stay_finite(workspace, capsys):
    # features up to 1e30 are valid float32, and the float32 encoder must
    # still give finite align and retrieve output for them
    tmp, cfg_path, _ = workspace
    a, b = _scale_test_video(workspace, 1e30)
    capsys.readouterr()
    out = tmp / "alignment"
    assert main(["align", "--config", str(cfg_path), a, b, "--out", str(out)]) == 0
    cost = float(capsys.readouterr().out.split("alignment cost ")[1].split(",")[0])
    assert np.isfinite(cost)
    assert main(["retrieve", "--config", str(cfg_path), a, "0", "-K", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(np.isfinite(float(line.split("score ")[1])) for line in lines)


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_features_near_float32_max_exit_numeric(workspace, capsys):
    # at 1e38 the float32 encoder's first matmul overflows; that must be a
    # numeric error, not NaN costs and scores with exit 0. Its overflow
    # warnings stay printed, not errors, until the encoder stops raising them.
    tmp, cfg_path, _ = workspace
    a, b = _scale_test_video(workspace, 1e38)
    capsys.readouterr()
    out = tmp / "alignment"
    assert main(["align", "--config", str(cfg_path), a, b, "--out", str(out)]) == 5
    assert main(["retrieve", "--config", str(cfg_path), a, "0", "-K", "3"]) == 5
    assert f"video {a!r}: embedding is not finite" in capsys.readouterr().err


def test_invalid_config_exit_code(workspace):
    _, cfg_path, _ = workspace
    assert main(["gen-data", "--config", str(cfg_path), "--sigma2", "0"]) == 3


def _set(path, value):
    """Config mutation: the leaf at dotted `path` (or the whole config) set to `value`."""
    def mutate(cfg):
        if path is None:
            return value
        *section, leaf = path.split(".")
        (cfg[section[0]] if section else cfg)[leaf] = value
        return cfg
    return mutate


# mutation, extra flags, what the message must name
BAD_CONFIGS = {
    "seed-str": (_set("seed", "s"), [], "RunConfig.seed"),
    "seed-negative": (_set("seed", -1), [], "RunConfig.seed"),
    "seed-bool": (_set("seed", True), [], "RunConfig.seed"),
    "top-level-array": (_set(None, []), [], "config must be a JSON object"),
    "top-level-array-flag": (_set(None, [1]), ["--seed", "1"], "config must be a JSON object"),
    "num_videos-float": (_set("data.num_videos", 1e9), [], "SyntheticSpec.num_videos"),
    "num_heads-float": (_set("encoder.num_heads", 2.0), [], "EncoderConfig.num_heads"),
    "epochs-float": (_set("optim.epochs", 1.0), [], "OptimConfig.epochs"),
    "tau-nan": (_set("loss.tau", float("nan")), [], "SCLConfig.tau"),
    "T-float": (_set("augment.T", 2.5), [], "AugmentConfig.T"),
    "probe-steps-negative": (_set("probe.steps", -1), [], "ProbeConfig.steps"),
    "data_dir-int": (_set("data_dir", 5), [], "RunConfig.data_dir"),
    "weight_decay-negative": (_set("optim.weight_decay", -5.0), [], "OptimConfig.weight_decay"),
    "lr-str": (_set("optim.lr", "abc"), [], "OptimConfig.lr"),
    "section-int": (_set("loss", 5), [], "config section 'loss'"),
    "section-int-flag": (_set("augment", 5), ["--frames", "8"], "config section 'augment'"),
}


@pytest.mark.parametrize("mutate, flags, names", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_malformed_config_exit_code(workspace, capsys, mutate, flags, names):
    tmp, cfg_path, cfg = workspace
    cfg_path.write_text(json.dumps(mutate(copy.deepcopy(cfg))))
    assert main(["train", "--config", str(cfg_path), *flags]) == 3
    assert names in capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # past the parser's recursion limit


def test_deeply_nested_config_exit_code(workspace):
    tmp, _, _ = workspace
    (tmp / "deep.json").write_text(DEEP_JSON)
    assert main(["train", "--config", str(tmp / "deep.json")]) == 3


def test_missing_checkpoint_exit_code(workspace):
    _, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    assert main(["eval", "--config", str(cfg_path)]) == 4


def test_missing_config_file_exit_code(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json")]) == 3


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12, 8)"),
    MemoryError(),
    SeqclError("an error of no narrower class"),
])
def test_last_resort_errors_exit_config(workspace, capsys, monkeypatch, error):
    _, cfg_path, _ = workspace

    def fail(cfg, args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
    assert main(["gen-data", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert str(error) in err and "Traceback" not in err


def test_unknown_flag_usage_exit_code(workspace):
    _, cfg_path, _ = workspace
    for bad in (["--bogus"], ["--sampling", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--config", str(cfg_path), *bad])
        assert exc.value.code == 2


def test_flag_overrides_win(workspace):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--epochs", "1"])
    lines = (tmp / "encoder.loss.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + one epoch


def test_align_embeds_only_the_two_videos(workspace, monkeypatch):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    manifest = json.loads((tmp / "data" / "dataset.json").read_text())
    forward, calls = enc.forward, []

    def counted(*args, train=True, **kwargs):
        calls.append(train)
        return forward(*args, train=train, **kwargs)

    monkeypatch.setattr(enc, "forward", counted)
    argv = ["align", "--config", str(cfg_path), manifest["test"][0], manifest["train"][0]]
    assert main([*argv, "--out", str(tmp / "alignment")]) == 0
    assert calls == [False, False]
    assert main([*argv[:3], "nope", argv[4]]) == 4


def test_retrieve_checks_frame_before_embedding(workspace, monkeypatch, capsys):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    split = load_dataset(tmp / "data")
    video = split.test[0]
    forward, calls = enc.forward, []

    def counted(*args, **kwargs):
        calls.append(video.id)
        return forward(*args, **kwargs)

    monkeypatch.setattr(enc, "forward", counted)
    argv = ["retrieve", "--config", str(cfg_path), video.id]
    for frame in (-1, video.num_frames):
        assert main([*argv, str(frame)]) == 3
        assert f"frame {frame} out of range" in capsys.readouterr().err
    assert calls == []
    assert main([*argv, str(video.num_frames - 1)]) == 0
    assert len(calls) == len(split.train) + len(split.test)


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


@pytest.mark.parametrize("kind, name", [
    ("tensor", "proj.fc1.W"), ("buffer", "proj.bn1.var"), ("extra", "adam.m.out.b"),
])
def test_nonfinite_checkpoint_exit_code(workspace, capsys, kind, name):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    cfg, params, extra = enc.load_checkpoint(tmp / "encoder.ckpt")
    {"tensor": params.tensors, "buffer": params.buffers, "extra": extra}[kind][name][0] = np.nan
    enc.save_checkpoint(tmp / "encoder.ckpt", cfg, params, extra=extra)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 4
    record = name if kind == "tensor" else f"{kind}.{name}"
    assert f"tensor {record!r} has non-finite values" in capsys.readouterr().err


def _manifest_without(key):
    def corrupt(data_dir):
        path = data_dir / "dataset.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        return path
    return corrupt


def _manifest_with(key, value):
    def corrupt(data_dir):
        path = data_dir / "dataset.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        return path
    return corrupt


MANIFEST_FIELDS = {  # TINY's videos are 20-30 frames of 8 features
    "num_phases-zero": ("num_phases", 0),
    "num_phases-negative": ("num_phases", -3),
    "num_phases-over-length": ("num_phases", 31),
    "num_phases-huge": ("num_phases", 10**12),
    "num_phases-inf": ("num_phases", float("inf")),
    "num_phases-float": ("num_phases", 2.5),
    "feature_dim-mismatch": ("feature_dim", 9),
}


def _manifest_text(text):
    def corrupt(data_dir):
        path = data_dir / "dataset.json"
        path.write_text(text)
        return path
    return corrupt


def _sidecar_text(text):
    def corrupt(data_dir):
        first = json.loads((data_dir / "dataset.json").read_text())["train"][0]
        path = data_dir / f"{first}.json"
        path.write_text(text)
        return path
    return corrupt


def _nan_features(data_dir):
    first = json.loads((data_dir / "dataset.json").read_text())["train"][0]
    path = data_dir / f"{first}.fseq"
    blob = bytearray(path.read_bytes())
    blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
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
    "label-huge": ("phase_labels", lambda meta: [10**12] + meta["phase_labels"][1:]),
    "label-negative": ("phase_labels", lambda meta: [-1] + meta["phase_labels"][1:]),
    "label-num_phases": ("phase_labels", lambda meta: meta["phase_labels"][:-1] + [3]),
}


def _manifest_lists(edit):
    """Apply edit(train, test) to the manifest's two id lists, in place."""
    def corrupt(data_dir):
        path = data_dir / "dataset.json"
        manifest = json.loads(path.read_text())
        edit(manifest["train"], manifest["test"])
        path.write_text(json.dumps(manifest))
        return path
    return corrupt


def _sidecar_id_twice(data_dir):
    """Give the first train video's sidecar the second train video's id."""
    path = data_dir / "dataset.json"
    first, second = json.loads(path.read_text())["train"][:2]
    sidecar = data_dir / f"{first}.json"
    sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), id=second)))
    return path


MANIFEST_LISTS = {
    "train-empty": _manifest_lists(lambda train, test: train.clear()),
    "test-empty": _manifest_lists(lambda train, test: test.clear()),
    "test-id-twice": _manifest_lists(lambda train, test: test.append(test[0])),
    "train-id-twice": _manifest_lists(lambda train, test: train.insert(1, train[0])),
    "sidecar-id-twice": _sidecar_id_twice,
}


@pytest.mark.parametrize("corrupt", [
    _manifest_text('{"train": ['),
    *(_manifest_without(k) for k in ("train", "test", "num_phases", "feature_dim")),
    _sidecar_text('{"id": '), *(_sidecar_with(*field) for field in SIDECAR_FIELDS.values()),
    _nan_features, _manifest_text(DEEP_JSON), _sidecar_text(DEEP_JSON),
    *(_manifest_with(*field) for field in MANIFEST_FIELDS.values()), *MANIFEST_LISTS.values(),
], ids=["manifest-json", "no-train", "no-test", "no-num_phases", "no-feature_dim", "sidecar-json",
        *SIDECAR_FIELDS, "fseq-nan", "manifest-deep", "sidecar-deep", *MANIFEST_FIELDS,
        *MANIFEST_LISTS])
def test_malformed_dataset_exit_code(workspace, capsys, corrupt):
    tmp, cfg_path, _ = workspace
    main(["gen-data", "--config", str(cfg_path)])
    bad = corrupt(tmp / "data")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 4
    assert str(bad) in capsys.readouterr().err


SWAPS = ["x", True, None, [], {}, 2, 2.5, float("nan"), float("inf"), float("-inf")]
DELETE, NEGATE = object(), object()
NON_OBJECTS = [5, "x", [], None, True]
# path of each fuzzed file under the workspace, given the first train video's id
FILES = {
    "manifest": lambda first: "data/dataset.json",
    "sidecar": lambda first: f"data/{first}.json",
    "fseq": lambda first: f"data/{first}.fseq",
    "ckpt": lambda first: "encoder.ckpt",
}


def _edit_config(cfg, path, op):
    """Apply one edit to the leaf, section or (empty path) whole config at `path`."""
    if not path:
        return op
    parent = cfg[path[0]] if len(path) == 2 else cfg
    if op is DELETE:
        del parent[path[-1]]
    elif op is NEGATE:
        value = parent[path[-1]]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        parent[path[-1]] = -value if number else -1
    else:
        parent[path[-1]] = op
    return cfg


def _workspace_config(root):
    cfg = dict(copy.deepcopy(TINY), data_dir=str(root / "data"),
               checkpoint=str(root / "encoder.ckpt"), report=str(root / "report.json"))
    (root / "config.json").write_text(json.dumps(cfg))
    return cfg


def test_cli_fuzz_exits_with_a_documented_code(tmp_path, monkeypatch):
    """Malformed configs, and byte flips and truncations of a manifest, a
    sidecar, an .fseq and a checkpoint, run through the CLI: every case ends
    in a documented exit code, and no exception escapes."""
    monkeypatch.chdir(tmp_path)  # a deleted path field falls back to a relative default
    files, runs = tmp_path / "files", tmp_path / "runs"
    files.mkdir()
    runs.mkdir()
    _workspace_config(files)
    run_cfg = _workspace_config(runs)
    on_files = ["--config", str(files / "config.json")]
    assert main(["gen-data", *on_files]) == 0 and main(["train", *on_files]) == 0
    manifest = json.loads((files / "data" / "dataset.json").read_text())
    first, other = manifest["train"][0], manifest["test"][0]
    pristine = {kind: (files / name(first)).read_bytes() for kind, name in FILES.items()}

    leaves = [(k,) for k, v in run_cfg.items() if not isinstance(v, dict)]
    leaves += [(s, k) for s, v in TINY.items() if isinstance(v, dict) for k in v]
    sections = [()] + [(s,) for s, v in TINY.items() if isinstance(v, dict)]
    config_edit = st.one_of(
        st.tuples(st.sampled_from(leaves), st.sampled_from([*SWAPS, DELETE, NEGATE])),
        st.tuples(st.sampled_from(sections), st.sampled_from(NON_OBJECTS)),
    )
    file_edit = st.one_of(*(
        st.tuples(st.just(kind), st.booleans(), st.integers(0, len(blob) - 1), st.integers(1, 255))
        for kind, blob in pristine.items()
    ))
    codes = set()

    def run(argv):
        code = main(argv)
        assert code in {0, 2, 3, 4, 5}
        codes.add(code)
        return code

    @settings(derandomize=True, database=None, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(config_edit, file_edit))
    def case(edit):
        if len(edit) == 2:
            cfg = _edit_config(copy.deepcopy(run_cfg), *edit)
            (runs / "config.json").write_text(json.dumps(cfg))
            for command in ("gen-data", "train", "eval"):
                if run([command, "--config", str(runs / "config.json")]):
                    break
            return
        kind, flip, at, mask = edit
        target, blob = files / FILES[kind](first), bytearray(pristine[kind])
        if flip:
            blob[at] ^= mask
        else:
            del blob[at:]
        target.write_bytes(bytes(blob))
        try:
            for argv in (["eval"], ["align", first, other], ["retrieve", first, "0"]):
                run([argv[0], *on_files, *argv[1:]])
        finally:
            target.write_bytes(pristine[kind])

    case()
    assert {0, 3, 4} <= codes  # the cases reach success, config errors and file errors
