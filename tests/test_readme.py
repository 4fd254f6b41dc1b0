"""README's library example runs as written, so the documented API cannot drift."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_typical_library_use_runs(capsys):
    text = README.read_text()
    assert "Typical library use:\n\n```python\n" in text
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)  # the first fence
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 1       # print(est.mu, ...)
