"""The cache's one writer (repro.cachefile.publish).

Every trace, direction column, recipe and result-store entry is
published by :func:`publish`: a failed write must raise nothing and
leave no file, so the run goes on with the content in memory only.
"""

from __future__ import annotations

import errno
import os
import tempfile

from repro.cachefile import publish


def _files(directory) -> list[str]:
    return sorted(p.name for p in directory.rglob("*") if p.is_file())


def test_publish_into_a_read_only_dir_raises_nothing(tmp_path, monkeypatch):
    """A directory that refuses the temp file (read-only, or full)
    leaves no file and no exception."""
    target = tmp_path / "traces"
    target.mkdir()
    target.chmod(0o555)

    def refused(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")

    if os.geteuid() == 0:  # root ignores the mode bits: refuse as for others
        monkeypatch.setattr(tempfile, "mkstemp", refused)
    try:
        publish(target / "astar--0123.trace.pkl", b"payload")
    finally:
        target.chmod(0o755)
    assert _files(tmp_path) == []


def test_publish_that_cannot_rename_removes_its_temp_file(tmp_path):
    """A rename onto a directory fails after the temp write: the temp
    file goes, nothing is raised, and the squatting directory stays."""
    squat = tmp_path / "entry.json"
    squat.mkdir()
    publish(squat, b"{}")
    assert _files(tmp_path) == []
    assert squat.is_dir()
