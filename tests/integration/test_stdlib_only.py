"""The library is stdlib-only: importing it loads no numpy.

Checked in a fresh interpreter, since this test process may well have
numpy loaded by a test dependency."""

import os
import subprocess
import sys

import repro


def test_importing_the_library_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import sys\n"
            "import repro, repro.core.cluster\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
