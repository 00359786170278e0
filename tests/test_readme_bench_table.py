"""The README's BENCH table has one row per committed ``BENCH_*.json``."""

import glob
import os
import re
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _committed_bench_files():
    """The ``BENCH_*.json`` files git tracks at the repo root; outside a
    git checkout, the ones present there."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--", "BENCH_*.json"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        listed = [os.path.basename(path)
                  for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))]
    return set(listed)


def _readme_rows():
    with open(os.path.join(ROOT, "README.md")) as handle:
        return re.findall(r"^\| `(BENCH_[A-Za-z0-9_]+\.json)` \|",
                          handle.read(), re.MULTILINE)


def test_every_committed_bench_file_has_one_readme_row():
    rows = _readme_rows()
    committed = _committed_bench_files()
    assert committed, "no BENCH_*.json at the repo root"
    assert len(rows) == len(set(rows)), sorted(rows)
    assert not committed - set(rows), (
        "committed but missing from the README table: %s"
        % sorted(committed - set(rows)))
    assert not set(rows) - committed, (
        "in the README table but not committed: %s"
        % sorted(set(rows) - committed))
