"""Every demo but 03 runs to the end as a child process.

Demo 03 (the capacity-region sweep) is left out: it takes several seconds, and
``tests/test_region.py`` and ``tests/test_cli.py`` already run the optimizer it
calls. It runs no wiretap code.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_states_and_entropies", "02_channels_and_eavesdropper",
                                  "04_resource_derivations", "05_wiretap_simulation"])
def test_demo_runs(tmp_path, name):
    r = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path, env=cli_env(),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
