"""Run a script in its own interpreter against one checkout's nprsim.

scripts/diff_outputs.py and scripts/time_drives.py compare two checkouts
by running each side in a child interpreter that imports nprsim from that
checkout's src alone.  run_in_tree starts such a child, and the child calls
imported_from to check that the nprsim it imported is that checkout's.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def run_in_tree(tree: Path, args: list[str], cwd: Path,
                **env: str) -> subprocess.CompletedProcess:
    """Run python with args, tree's src as the only entry of PYTHONPATH,
    NPRSIM_ARCHETYPES unset and the variables env on top; the output is
    captured as text."""
    child = dict(os.environ)
    child["PYTHONPATH"] = str(tree / "src")
    child.pop("NPRSIM_ARCHETYPES", None)
    child.update(env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child, capture_output=True,
                          text=True)


def imported_from(module, src: str) -> bool:
    """Whether module was imported from under src; when not, it says so on
    stderr."""
    if Path(module.__file__).resolve().is_relative_to(Path(src).resolve()):
        return True
    print(f"imported nprsim from {module.__file__}, not from {src}", file=sys.stderr)
    return False
