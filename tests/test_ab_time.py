"""tools/ab_time.py: two trees' engine calls, alternated in one process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_time.py"


def test_one_tree_against_itself_agrees_and_times_both_sides():
    done = subprocess.run([sys.executable, str(TOOL), ROOT, ROOT, "--workload",
                           "compress-fc-exact", "--reps", "2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "compress-fc-exact seed 0: 2 samples per tree, alternating"
    assert [line.split()[0] for line in lines[1:3]] == ["parent", "change"]
    assert lines[-1] == "outputs agree: yes (0 of 2 sample digests differ)"
