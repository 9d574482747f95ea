"""Import isolation: the library packages load no HTTP server code.

Worker nodes import :mod:`repro.runtime` and report builders import
:mod:`repro.report`; neither needs ``http.server``, which only the
fabric coordinator uses.  Each check runs in a fresh interpreter so
modules other tests imported cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["repro.runtime", "repro.report"])
def test_import_leaves_http_server_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print('http.server' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()
    assert out == "False", f"import {module} loaded http.server"
