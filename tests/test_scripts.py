"""The bundled scripts, run as a user runs them."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "tests" / "fixtures" / "e2e"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_make_synthetic_corpus_regenerates_the_fixture(tmp_path):
    result = run_script("make_synthetic_corpus.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    written = sorted(path.name for path in tmp_path.iterdir())
    # the golden manifest is written only with --refresh-golden
    expected = sorted(path.name for path in FIXTURE_DIR.iterdir())
    expected.remove("golden_manifest.json")
    assert written == expected
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name


def test_ranking_demo_prints_both_rankings():
    result = run_script("ranking_demo.py", "--lines", "60")
    assert result.returncode == 0, result.stderr
    blocks = [block.splitlines() for block in result.stdout.strip().split("\n\n")]
    assert [block[0] for block in blocks] == [
        "FAMD ranking (60 shared lines):",
        "FAMP ranking (60 shared lines):",
    ]
    for block in blocks:
        rows = [row.split() for row in block[1:]]
        assert [row[0] for row in rows] == ["1.", "2.", "3.", "4."]
        assert sorted(row[1] for row in rows) == ["copy", "noised25", "random", "shuffled"]
        assert rows[0][1] == "copy"
