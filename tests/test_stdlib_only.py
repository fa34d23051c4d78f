"""The library runs on the standard library alone.

CI installs only the test tools (``pytest``, ``hypothesis``), so a
third-party import anywhere on the server, CLI or testkit import path
fails every job on a clean runner.  The probe runs in a fresh
interpreter and compares against the modules loaded before the import,
because site hooks may preload packages of their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

PROBE = """
import json, sys
before = set(sys.modules)
import repro.server, repro.casetool.cli, repro.testkit.run
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - before})))
"""


def test_entry_points_import_only_stdlib_modules():
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env,
                           capture_output=True, text=True, check=True)
    added = json.loads(probe.stdout)
    foreign = [name for name in added
               if name != "repro" and name not in sys.stdlib_module_names
               and not (name.startswith("__") and name.endswith("__"))]
    assert foreign == []
