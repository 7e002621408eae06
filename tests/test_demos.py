import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bivorder

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_library_example_prints_what_its_comments_say():
    # each print in the README's python block is followed by the line it
    # prints as a comment; text after a comma there explains the value
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    expected = [
        line.split("#", 1)[1].split(",")[0].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert expected and out.getvalue().splitlines() == expected
