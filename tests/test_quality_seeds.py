import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import quality_seeds  # noqa: E402

# A stand-in for tests/test_acceptance.py: criterion 5's names at a tiny size.
STUB = '''
from dataclasses import replace
from seqcl.augment import AugmentConfig
from seqcl.data import SyntheticSpec
from seqcl.encoder import EncoderConfig
from seqcl.eval import ProbeConfig
from seqcl.loss import SCLConfig
from seqcl.train import OptimConfig

BENCH_SPEC = SyntheticSpec(num_videos=6, num_phases=3, feature_dim=8, min_len=20, max_len=30,
                           noise_std=0.2, seed=0)
BENCH_AUG = AugmentConfig(T=8)
BENCH_ENC = EncoderConfig(input_dim=8, model_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                          out_dim=8, proj_hidden=8, proj_out=6)
BENCH_SCL = SCLConfig()
BENCH_PROBE = ProbeConfig(steps=5, lr=0.1)


def _bench_optim(loss_kind):
    return OptimConfig(lr=1e-3, epochs=1, videos_per_batch=2, seed=0, checkpoint_every=0,
                       loss_kind=loss_kind)
'''


def test_reports_per_seed_from_the_checkouts_own_config(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "tests").mkdir(parents=True)
    (checkout / "tests" / "test_acceptance.py").write_text(STUB)
    (checkout / "src").symlink_to(Path(__file__).resolve().parent.parent / "src")
    out = tmp_path / "QUALITY.json"
    assert quality_seeds.main(["--checkout", str(checkout), "--seeds", "3", "4",
                               "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seeds"] == [3, 4] and doc["src_tree"] is None  # not a git work tree
    assert list(doc["reports"]) == ["3", "4"]
    for reports in doc["reports"].values():
        assert list(reports) == ["scl", "frame", "random"]
        for report in reports.values():
            assert set(report) == {"classification_acc", "progression_r2", "kendalls_tau",
                                   "ap_at_k"}
            assert list(report["ap_at_k"]) == ["5"]
    # the seed sets the data, the init and the training draws
    assert doc["reports"]["3"] != doc["reports"]["4"]
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == ["seed 3", "seed 4"]
