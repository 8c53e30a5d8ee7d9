"""Packaging checks that run polygal in a fresh interpreter."""

import os
from pathlib import Path
import subprocess
import sys

import polygal


def test_import_loads_no_test_only_module():
    # scipy and hypothesis back the tests only; importing polygal must not
    # pay for them.
    src = str(Path(polygal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, polygal; print(sorted({m.split('.')[0] for m in "
            "sys.modules} & {'scipy', 'hypothesis'}))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
