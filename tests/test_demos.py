import subprocess
import sys
from pathlib import Path

import pytest

import bivorder

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the demos assert their own results; run each from the directory the
    # tests imported bivorder from, so it finds the package without PYTHONPATH
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__')",
            str(demo),
        ],
        capture_output=True,
        text=True,
        cwd=Path(bivorder.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
