"""The README's Python examples run as written."""

import re
from pathlib import Path

_README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every ```python block of the README runs to its end, so a public name
    it uses cannot be removed or renamed without this failing."""
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
