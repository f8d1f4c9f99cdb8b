"""Atomic output files, shared by the CLI and the map writer.

Kept apart from the physics modules so that a command loads only the
modules it runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def atomic_write(path, text: str):
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``,
    so readers see either the old file or the complete new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    """Write ``payload`` as indented JSON with sorted keys and one final
    newline, atomically."""
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
