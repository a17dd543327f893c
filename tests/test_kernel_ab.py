"""``scripts/kernel_ab.py`` runs every kernel of this tree against itself
with equal bits, and reports a kernel whose bits differ."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ["sgns_step dense", "sgns_step sparse", "window pairs + negatives", "train_embeddings"]


def kernel_ab(parent: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    """One round per kernel (``--seconds 0``), in its own interpreter."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_ab.py"), str(parent), str(change),
         "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_this_tree_against_itself_has_equal_bits(tmp_path):
    run = kernel_ab(ROOT, ROOT, tmp_path / "ab.json")
    assert run.returncode == 0, run.stderr
    results = json.loads((tmp_path / "ab.json").read_text())
    assert list(results) == KERNELS
    for name, result in results.items():
        assert result["bits_equal"], name
        assert len(result["parent_s"]) == len(result["change_s"]) >= 1
        assert f"{name} " in run.stdout


def test_a_kernel_whose_bits_differ_fails_the_run(tmp_path):
    # a batch size of 64 moves training's bits, not the kernels that call
    # sgns_step, _window_pairs or negative_sample directly
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src")
    source = change / "src" / "session2rec" / "skipgram.py"
    text = source.read_text()
    assert "SGNS_BATCH = 128" in text
    source.write_text(text.replace("SGNS_BATCH = 128", "SGNS_BATCH = 64"))
    run = kernel_ab(ROOT, change, tmp_path / "ab.json")
    assert run.returncode == 1, run.stderr
    results = json.loads((tmp_path / "ab.json").read_text())
    assert {name: r["bits_equal"] for name, r in results.items()} == {
        **dict.fromkeys(KERNELS[:3], True), "train_embeddings": False,
    }
    assert "DIFFER" in run.stdout
