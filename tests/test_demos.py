"""Every demo but 03 runs to the end as a child process and prints the same bytes as before.

Demo 03 (the capacity-region sweep) is left out: it takes several seconds, and
``tests/test_region.py`` and ``tests/test_cli.py`` already run the optimizer it
calls. It runs no wiretap code.

The digests pin each demo's stdout, so a refactor that changes a printed value
fails here. A change that alters a demo's output on purpose records the new
digest and says why.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: SHA-256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_states_and_entropies": "376ab54d2db3fabe4bcda7c5a080b8df3f56a68c9984b627fb250fab47b5b1fa",
    "02_channels_and_eavesdropper": "db0229c9fc34d4037554ae51827960db59a834bf51ea2bf67bd88d59d8faa096",
    "04_resource_derivations": "19d6ea30a652c65dff04eadddd0145e9033f89902c3ad8c0e36ebc214cb788d0",
    "05_wiretap_simulation": "186c30286d58dc992c98f4246c2fc31bf561680735ece48db43d2db27d904e7c",
}


@pytest.mark.parametrize("name", list(STDOUT_SHA256))
def test_demo_runs(tmp_path, name):
    r = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path, env=cli_env(),
                       capture_output=True, timeout=300)
    assert r.returncode == 0, r.stderr.decode(errors="replace")
    assert hashlib.sha256(r.stdout).hexdigest() == STDOUT_SHA256[name]
