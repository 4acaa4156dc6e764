import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from seqcl.data import (
    SyntheticSpec,
    VideoRecord,
    generate_synthetic,
    load_dataset,
    load_features,
    save_dataset,
    save_features,
    split_train_test,
)
from seqcl.errors import ConfigError, FormatError


def test_generate_deterministic():
    spec = SyntheticSpec(num_videos=6, num_phases=3, feature_dim=4, min_len=10, max_len=20, seed=7)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for ra, rb in zip(a.train + a.test, b.train + b.test):
        assert ra.id == rb.id
        assert ra.features.tobytes() == rb.features.tobytes()
        assert ra.phase_labels == rb.phase_labels


def test_single_phase_zero_noise_is_constant():
    spec = SyntheticSpec(num_videos=4, num_phases=1, feature_dim=3, min_len=5, max_len=9,
                         noise_std=0.0, seed=1)
    split = generate_synthetic(spec)
    protos = {tuple(np.round(r.features[0], 6)) for r in split.train + split.test}
    assert len(protos) == 1  # single shared prototype
    for rec in split.train + split.test:
        assert np.allclose(rec.features, rec.features[0])


def test_generate_matches_per_frame_reference():
    # the per-frame loop that generate_synthetic vectorizes; the prototypes are
    # the first draw of the spec's rng
    spec = SyntheticSpec(num_videos=6, num_phases=4, feature_dim=5, min_len=8, max_len=30,
                         noise_std=0.0, seed=3)
    protos = np.random.default_rng(spec.seed).standard_normal((4, 5))
    split = generate_synthetic(spec)
    for rec in split.train + split.test:
        labels = np.asarray(rec.phase_labels)
        expected = np.empty((rec.num_frames, 5))
        for ph in range(4):
            idx = np.flatnonzero(labels == ph)
            seg, nxt = idx.size, protos[min(ph + 1, 3)]
            for k in range(seg):
                u = k / seg
                expected[idx[0] + k] = (1.0 - u) * protos[ph] + u * nxt
        assert rec.features.tobytes() == expected.astype(np.float32).tobytes()


def test_labels_nondecreasing_with_all_phases():
    spec = SyntheticSpec(num_videos=50, num_phases=5, feature_dim=32, min_len=40,
                         max_len=80, noise_std=0.1, seed=3)
    split = generate_synthetic(spec)
    for rec in split.train + split.test:
        labels = np.asarray(rec.phase_labels)
        assert (np.diff(labels) >= 0).all()
        assert set(labels.tolist()) == set(range(5))


def test_zero_noise_collinearity():
    spec = SyntheticSpec(num_videos=4, num_phases=3, feature_dim=6, min_len=12,
                         max_len=20, noise_std=0.0, seed=5)
    split = generate_synthetic(spec)
    for rec in split.train + split.test:
        labels = np.asarray(rec.phase_labels)
        for p in range(3):
            idx = np.flatnonzero(labels == p)
            a = rec.features[idx[0]].astype(np.float64)
            b = rec.features[idx[-1]].astype(np.float64)
            span = b - a
            for t in idx:
                d = rec.features[t].astype(np.float64) - a
                # frame must lie on the segment through a with direction span
                if np.linalg.norm(span) > 0:
                    proj = span * (d @ span) / (span @ span)
                    assert np.linalg.norm(d - proj) < 1e-5


def test_invalid_specs():
    with pytest.raises(ConfigError):
        SyntheticSpec(num_phases=10, min_len=5)
    with pytest.raises(ConfigError):
        SyntheticSpec(min_len=20, max_len=10)
    with pytest.raises(ConfigError):
        SyntheticSpec(noise_std=-1)
    with pytest.raises(ConfigError):
        SyntheticSpec(seed=-1)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    rec = VideoRecord(id="v1", features=rng.standard_normal((17, 5)).astype(np.float32),
                      phase_labels=list(np.sort(rng.integers(0, 3, 17))), action_label=2)
    p = tmp_path / "v1.fseq"
    save_features(rec, p)
    loaded = load_features(p)
    assert loaded.features.tobytes() == rec.features.tobytes()
    assert loaded.phase_labels == rec.phase_labels
    assert loaded.action_label == 2
    # save again: byte-identical files
    p2 = tmp_path / "v1b.fseq"
    save_features(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_golden_1x1_file(tmp_path):
    # hand-constructed: magic, version=1, S=1, D=1, one float32 3.5
    expected = b"FSEQ" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 3.5)
    p = tmp_path / "one.fseq"
    save_features(VideoRecord(id="one", features=np.array([[3.5]], dtype=np.float32)), p)
    assert p.read_bytes() == expected
    assert load_features(p).features[0, 0] == 3.5


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda b: b"XSEQ" + b[4:], "magic"),
        (lambda b: b[:4] + struct.pack("<III", 1, 0, 1) + b[16:], "S=0"),
        (lambda b: b[:-2], "payload"),
        (lambda b: b[:8], "truncated"),
        (lambda b: b[:20] + struct.pack("<f", np.nan) + b[24:], "non-finite features"),
        (lambda b: b[:16] + struct.pack("<f", -np.inf) + b[20:], "non-finite features"),
    ],
)
def test_malformed_files_rejected(tmp_path, mutate, msg):
    p = tmp_path / "x.fseq"
    save_features(VideoRecord(id="x", features=np.ones((2, 2), dtype=np.float32)), p)
    p.write_bytes(mutate(p.read_bytes()))
    with pytest.raises(FormatError, match=msg):
        load_features(p)


def test_load_holds_the_payload_once(tmp_path):
    # The payload is read straight into the feature array: a 2.34 MiB payload
    # peaked at 7.03 MiB when the file was read whole, sliced past its header
    # and copied.
    rng = np.random.default_rng(3)
    rec = VideoRecord(id="big", features=rng.standard_normal((300, 2048)).astype(np.float32),
                      phase_labels=[0] * 300)
    p = tmp_path / "big.fseq"
    save_features(rec, p)
    tracemalloc.start()
    try:
        loaded = load_features(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.features.tobytes() == rec.features.tobytes()
    assert loaded.phase_labels == rec.phase_labels
    assert peak < 1.25 * rec.features.nbytes


def test_sidecar_length_mismatch(tmp_path):
    p = tmp_path / "x.fseq"
    save_features(VideoRecord(id="x", features=np.ones((3, 2), dtype=np.float32),
                              phase_labels=[0, 0, 1]), p)
    meta = json.loads(p.with_suffix(".json").read_text())
    meta["phase_labels"] = [0]
    p.with_suffix(".json").write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        load_features(p)


def _records(n, d=3):
    return [VideoRecord(id=f"r{i}", features=np.full((4, d), i, dtype=np.float32))
            for i in range(n)]


def test_split_sizes_and_determinism():
    recs = _records(10)
    split = split_train_test(recs, 0.8, seed=0)
    assert len(split.train) == 8 and len(split.test) == 2
    again = split_train_test(recs, 0.8, seed=0)
    assert [r.id for r in split.train] == [r.id for r in again.train]
    assert {r.id for r in split.train}.isdisjoint({r.id for r in split.test})


def test_split_floor_rule():
    split = split_train_test(_records(5), 0.5, seed=1)
    assert len(split.train) == 2 and len(split.test) == 3  # floor(5*0.5) = 2


def test_split_errors():
    with pytest.raises(ConfigError):
        split_train_test(_records(1), 0.5, seed=0)
    with pytest.raises(ConfigError):
        split_train_test(_records(4), 1.5, seed=0)


def test_dataset_round_trip(tmp_path):
    spec = SyntheticSpec(num_videos=5, num_phases=2, feature_dim=3, min_len=6, max_len=8, seed=2)
    split = generate_synthetic(spec)
    save_dataset(split, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.num_phases == 2 and loaded.feature_dim == 3
    assert [r.id for r in loaded.train] == [r.id for r in split.train]
    for a, b in zip(split.test, loaded.test):
        assert a.features.tobytes() == b.features.tobytes()


@pytest.mark.parametrize("labels, first", [
    ([0.9, 1.5, True], "0.9"), ([0, True, 1], "True"),
    ([0, 1, np.float64(2.0)], "np.float64(2.0)"), ([np.bool_(False), 0, 1], "np.False_"),
    ([0, "1", 2], "'1'")])
def test_record_rejects_labels_that_are_not_integers(labels, first):
    feats = np.ones((3, 2), dtype=np.float32)
    message = f"record 'r': phase label {first} is not an integer"
    with pytest.raises(ConfigError, match=re.escape(message)):
        VideoRecord(id="r", features=feats, phase_labels=labels)
    kept = VideoRecord(id="r", features=feats, phase_labels=[0, np.int64(1), np.int32(2)])
    assert kept.phase_labels == [0, 1, 2] and set(map(type, kept.phase_labels)) == {int}


def test_record_invariants():
    with pytest.raises(ConfigError):
        VideoRecord(id="bad", features=np.zeros((0, 3), dtype=np.float32))
    with pytest.raises(ConfigError):
        VideoRecord(id="bad", features=np.array([[np.inf]], dtype=np.float32))
    with pytest.raises(ConfigError):
        VideoRecord(id="bad", features=np.ones((3, 2), dtype=np.float32), phase_labels=[0])
