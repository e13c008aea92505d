"""Set-up time of the CLI, measured in fresh interpreters.

Each probe starts a new Python process that imports ``fpkit.cli`` from the
checkout's ``src`` and builds the argument parser, and reports how long
that took.  With ``-X importtime`` the same probe also yields the import
time split by module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_CHILD = """\
import json, time
t0 = time.perf_counter()
import fpkit.cli
fpkit.cli.build_parser()
print(json.dumps({"seconds": time.perf_counter() - t0, "file": fpkit.cli.__file__}))
"""

TIMEOUT_S = 60


def _run_child(src: Path, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S,
                          cwd=src.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    loaded = Path(json.loads(proc.stdout)["file"]).resolve()
    if src.resolve() not in loaded.parents:
        raise RuntimeError(f"set-up probe imported fpkit from {loaded}, not {src}")
    return proc


def setup_seconds(src: Path) -> float:
    """Seconds to import fpkit.cli and build its parser in a fresh interpreter."""
    return float(json.loads(_run_child(src).stdout)["seconds"])


def import_split(src: Path) -> dict[str, float]:
    """Cumulative import seconds of ``fpkit.cli`` and of ``scipy.stats``
    within it, parsed from ``python -X importtime``: its lines read
    ``self | cumulative | name``, with two spaces of indent per level."""
    out = {}
    for line in _run_child(src, "-X", "importtime").stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        if name == "fpkit.cli" or name.strip() == "scipy.stats":
            out.setdefault(name.strip(), int(parts[1]) * 1e-6)
    if "fpkit.cli" not in out:
        raise RuntimeError("importtime output lacks fpkit.cli")
    # 0 when importing the CLI no longer imports scipy.stats
    return {"setup.import_s": out["fpkit.cli"],
            "setup.import_scipy_stats_s": out.get("scipy.stats", 0.0)}
