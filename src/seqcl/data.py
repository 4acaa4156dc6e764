"""Feature-sequence data model, synthetic dataset generation and .fseq file I/O.

A "video" here is a sequence of pre-extracted frame feature vectors (S x D
float32) plus optional per-frame phase labels. The on-disk format is a small
little-endian binary container with a JSON sidecar for labels/metadata:

    <name>.fseq : magic "FSEQ", version u32=1, S u32, D u32, S*D float32 row-major
    <name>.json : {"id": str, "phase_labels": [int]|null, "action_label": int|null}
"""

from __future__ import annotations

import json
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, check_fields, rule

FSEQ_MAGIC = b"FSEQ"
FSEQ_VERSION = 1


@dataclass
class VideoRecord:
    id: str
    features: np.ndarray  # (S, D) float32
    phase_labels: list[int] | None = None
    action_label: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            raise ConfigError(f"features must be 2-D, got shape {self.features.shape}")
        s, d = self.features.shape
        if s < 1 or d < 1:
            raise ConfigError(f"need S >= 1 and D >= 1, got S={s}, D={d}")
        # min and max are NaN or infinite if any value is; no array is allocated
        if not (np.isfinite(self.features.min()) and np.isfinite(self.features.max())):
            raise ConfigError(f"record {self.id!r} contains non-finite features")
        if self.phase_labels is not None:
            self.phase_labels = [int(p) for p in self.phase_labels]
            if len(self.phase_labels) != s:
                raise ConfigError(
                    f"record {self.id!r}: {len(self.phase_labels)} labels for {s} frames"
                )

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class DatasetSplit:
    train: list[VideoRecord]
    test: list[VideoRecord]
    num_phases: int
    feature_dim: int

    def __post_init__(self):
        train_ids = {r.id for r in self.train}
        test_ids = {r.id for r in self.test}
        if train_ids & test_ids:
            raise ConfigError(f"train/test ids overlap: {sorted(train_ids & test_ids)}")
        for r in self.train + self.test:
            if r.feature_dim != self.feature_dim:
                raise ConfigError(
                    f"record {r.id!r} has D={r.feature_dim}, expected {self.feature_dim}"
                )


@dataclass
class SyntheticSpec:
    num_videos: int = rule(63, ge=2)  # the test split must not be empty
    num_phases: int = rule(5, ge=1)
    feature_dim: int = rule(32, ge=1)
    min_len: int = 80
    max_len: int = 160
    noise_std: float = rule(0.0, ge=0)
    seed: int = rule(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if self.min_len < self.num_phases:
            raise ConfigError(
                f"min_len={self.min_len} < num_phases={self.num_phases}: "
                "every phase needs at least one frame"
            )
        if self.max_len < self.min_len:
            raise ConfigError(f"max_len={self.max_len} < min_len={self.min_len}")


def _phase_boundaries(rng: np.random.Generator, length: int, phases: int) -> np.ndarray:
    """Random cut points partitioning [0, length) into `phases` segments of >= 1 frame."""
    if phases == 1:
        return np.array([0, length])
    cuts = rng.choice(np.arange(1, length), size=phases - 1, replace=False)
    return np.concatenate([[0], np.sort(cuts), [length]])


def generate_synthetic(spec: SyntheticSpec) -> DatasetSplit:
    """Generate labeled synthetic videos with shared phase prototypes.

    Each video runs through the same P phases in order. Phase p owns a
    prototype vector (drawn once per dataset); a frame at within-phase
    progress u carries (1-u)*proto[p] + u*proto[p+1] plus Gaussian noise,
    so feature trajectories drift smoothly from one prototype to the next.
    Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    p, d = spec.num_phases, spec.feature_dim
    protos = rng.standard_normal((p, d))

    records = []
    for v in range(spec.num_videos):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        bounds = _phase_boundaries(rng, length, p)
        feats = np.empty((length, d), dtype=np.float64)
        labels = np.empty(length, dtype=np.int64)
        for ph in range(p):
            start, stop = bounds[ph], bounds[ph + 1]
            seg = stop - start
            nxt = protos[min(ph + 1, p - 1)]
            u = (np.arange(seg) / seg)[:, None]
            feats[start:stop] = (1.0 - u) * protos[ph] + u * nxt
            labels[start:stop] = ph
        if spec.noise_std > 0:
            feats += rng.normal(0.0, spec.noise_std, size=feats.shape)
        records.append(
            VideoRecord(
                id=f"synth{v:04d}",
                features=feats.astype(np.float32),
                phase_labels=labels.tolist(),
                action_label=0,
            )
        )

    split = split_train_test(records, ratio=0.8, seed=spec.seed, num_phases=p)
    return split


def split_train_test(
    records: list[VideoRecord], ratio: float, seed: int, num_phases: int | None = None
) -> DatasetSplit:
    """Deterministic whole-video split; train gets floor(n * ratio) videos."""
    if not 0 < ratio < 1:
        raise ConfigError(f"ratio must be in (0, 1), got {ratio}")
    if len(records) < 2:
        raise ConfigError("need at least 2 records to split")
    order = np.random.default_rng(seed).permutation(len(records))
    n_train = int(len(records) * ratio)
    n_train = min(n_train, len(records) - 1)  # test must be non-empty
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    if num_phases is None:
        labeled = [l for r in records if r.phase_labels for l in r.phase_labels]
        num_phases = max(labeled) + 1 if labeled else 0
    return DatasetSplit(
        train=train, test=test, num_phases=num_phases, feature_dim=records[0].feature_dim
    )


def save_features(record: VideoRecord, path: str | Path) -> None:
    """Write the binary payload and its JSON sidecar."""
    path = Path(path)
    s, d = record.features.shape
    payload = np.ascontiguousarray(record.features, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(FSEQ_MAGIC)
        f.write(struct.pack("<III", FSEQ_VERSION, s, d))
        f.write(payload)
    sidecar = {
        "id": record.id,
        "phase_labels": record.phase_labels,
        "action_label": record.action_label,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not a label


def load_features(path: str | Path) -> VideoRecord:
    """Read an .fseq file and its optional sidecar. The header is read first,
    then the payload straight into its float32 array, so the file's bytes are
    held once. The header and sidecar are checked here and the features by
    the record's own checks; any violation is a FormatError naming the file."""
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if len(head) < 16:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        if head[:4] != FSEQ_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {FSEQ_MAGIC!r}")
        version, s, d = struct.unpack("<III", head[4:16])
        if version != FSEQ_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if s < 1:
            raise FormatError(f"{path}: header field S={s}, must be >= 1")
        if d < 1:
            raise FormatError(f"{path}: header field D={d}, must be >= 1")
        expected = 16 + 4 * s * d
        if size != expected:
            raise FormatError(f"{path}: payload is {size} bytes, expected {expected}")
        feats = np.empty((s, d), dtype="<f4")
        got = 16 + f.readinto(feats)
        if got != expected:  # the file shrank since it was opened
            raise FormatError(f"{path}: payload is {got} bytes, expected {expected}")

    sidecar_path = path.with_suffix(".json")
    rec_id, labels, action = path.stem, None, None
    if sidecar_path.exists():
        try:
            meta = json.loads(sidecar_path.read_text())
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{sidecar_path}: malformed sidecar JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{sidecar_path}: sidecar JSON is not an object")
        rec_id = meta.get("id", rec_id)
        labels = meta.get("phase_labels")
        action = meta.get("action_label")
        if not isinstance(rec_id, str):
            raise FormatError(f"{sidecar_path}: id must be a string, got {rec_id!r}")
        if labels is not None and not (isinstance(labels, list) and all(map(_is_int, labels))):
            raise FormatError(f"{sidecar_path}: phase_labels must be null or a list of ints")
        if labels is not None and len(labels) != s:
            raise FormatError(
                f"{sidecar_path}: phase_labels has {len(labels)} entries for S={s}"
            )
        if action is not None and not _is_int(action):
            raise FormatError(f"{sidecar_path}: action_label must be null or an int: {action!r}")
    try:
        return VideoRecord(id=rec_id, features=feats, phase_labels=labels, action_label=action)
    except ConfigError as exc:  # shapes and labels passed above: a feature is not finite
        raise FormatError(f"{path}: non-finite features") from exc


def save_dataset(split: DatasetSplit, out_dir: str | Path) -> None:
    """One .fseq per video plus a manifest recording the split and shapes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in split.train + split.test:
        save_features(rec, out_dir / f"{rec.id}.fseq")
    manifest = {
        "num_phases": split.num_phases,
        "feature_dim": split.feature_dim,
        "train": [r.id for r in split.train],
        "test": [r.id for r in split.test],
    }
    (out_dir / "dataset.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_dataset(data_dir: str | Path) -> DatasetSplit:
    """Read the manifest and every video it lists. The train and test lists
    must be non-empty, no video id may occur twice (listed twice, or given by
    two sidecars), num_phases must be an int in [1, longest video's frame count],
    feature_dim must be an int that every video matches, and every phase
    label must lie in [0, num_phases); any violation is a FormatError naming
    the manifest or the sidecar."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "dataset.json"
    if not manifest_path.exists():
        raise FormatError(f"{manifest_path}: manifest not found")
    try:
        manifest = json.loads(manifest_path.read_text())
        train_ids, test_ids = list(manifest["train"]), list(manifest["test"])
        num_phases, feature_dim = manifest["num_phases"], manifest["feature_dim"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise FormatError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
    if not (_is_int(num_phases) and _is_int(feature_dim)):
        raise FormatError(
            f"{manifest_path}: num_phases and feature_dim must be ints, "
            f"got {num_phases!r} and {feature_dim!r}"
        )
    if not (train_ids and test_ids):
        raise FormatError(f"{manifest_path}: the train and test lists must not be empty")
    paths = [data_dir / f"{rid}.fseq" for rid in train_ids + test_ids]
    records = [load_features(path) for path in paths]
    twice = [rid for rid, n in Counter(r.id for r in records).items() if n > 1]
    if twice:
        raise FormatError(
            f"{manifest_path}: video id {twice[0]!r} is listed twice or given by two sidecars"
        )
    longest = max((r.num_frames for r in records), default=0)
    if not 1 <= num_phases <= longest:
        raise FormatError(
            f"{manifest_path}: num_phases={num_phases} is outside [1, {longest}], "
            "where the bound is the longest video's frame count"
        )
    for path, r in zip(paths, records):
        bad = [label for label in r.phase_labels or () if not 0 <= label < num_phases]
        if bad:
            raise FormatError(
                f"{path.with_suffix('.json')}: phase label {bad[0]} is outside "
                f"[0, {num_phases})"
            )
    n_train = len(train_ids)
    try:
        return DatasetSplit(train=records[:n_train], test=records[n_train:],
                            num_phases=num_phases, feature_dim=feature_dim)
    except ConfigError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from exc
