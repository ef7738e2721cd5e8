"""Every package definition is reached from an entry point, or is a
test reference listed in ``scripts/reachability.py``'s KEEP table."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_package_definition_is_reached():
    r = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "reachability.py")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
