"""The library examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 4
    namespace = {}
    for block in blocks:  # later blocks reuse the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
