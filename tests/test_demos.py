"""The demo scripts print the bytes recorded in fixtures/demos.out."""

import contextlib
import io
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_print_the_recorded_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for script in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
    assert out.getvalue() == (ROOT / "tests" / "fixtures" / "demos.out").read_text()
