"""README's library sketch runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    """The first ``python`` block under the ``## Library sketch`` heading."""
    section = README.read_text().split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_sketch(), str(README), "exec"), {"__name__": "readme_sketch"})
    lines = capsys.readouterr().out.splitlines()
    # the shape its comment states, and the conserved total mass of 1
    assert lines[0] == "(21, 128)"
    assert abs(float(lines[1]) - 1.0) < 1e-9
    assert len(lines) == 3
