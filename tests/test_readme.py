"""The README's library quick start runs against the current public API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_start_code():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, flags=re.S | re.M)
    assert len(blocks) == 1, "expected one python block under 'Library quick start'"
    return blocks[0]


def test_library_quick_start_runs():
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["shares"].shape == (100, 3)
