"""Host and commit identity for recorded measurements.

``perfbench`` stamps every result with these two strings, so a figure
always says which machine and which commit produced it.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

__all__ = ["host_fingerprint", "git_sha"]


def host_fingerprint() -> str:
    """A short, stable id of the measuring host (machine + cores + python)."""
    return (
        f"{platform.machine()}-{os.cpu_count() or 1}c-"
        f"py{platform.python_version()}"
    )


def git_sha(repo_root: str | Path | None = None) -> str:
    """The current git commit sha, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"
