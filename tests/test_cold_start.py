"""Importing the CLI stays cheap: no module on its import path loads the
stdlib's introspection machinery (dataclasses pulls in inspect, ast, dis and
tokenize; typing is heavy on its own), which would cost every fresh
`quatlat verify` several milliseconds before any work starts."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")

# Runs under `python -S`, so no site .pth file preloads anything.  A finder
# placed first on sys.meta_path sees each heavy module's first import and
# records the innermost quatlat module on the stack that asked for it.
PROBE = """
import json, sys

HEAVY = %r
first = {}

class Probe:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name in HEAVY and name not in first:
            frame, importer = sys._getframe(1), None
            while frame is not None and importer is None:
                module = frame.f_globals.get("__name__", "")
                if module == "quatlat" or module.startswith("quatlat."):
                    importer = module
                frame = frame.f_back
            first[name] = importer
        return None

already = [name for name in HEAVY if name in sys.modules]
sys.meta_path.insert(0, Probe)
import quatlat.cli
loaded = [name for name in HEAVY if name in sys.modules]
print(json.dumps({"already": already, "loaded": loaded, "importers": first}))
"""


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE % (HEAVY,)], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["already"] == [], f"the interpreter started with {report['already']} loaded; the probe cannot tell"
    if report["loaded"]:
        name = report["loaded"][0]
        importer = report["importers"].get(name) or "a module imported by quatlat"
        raise AssertionError(f"import quatlat.cli loaded {name} (via {importer}); all heavy: {report['loaded']}")
