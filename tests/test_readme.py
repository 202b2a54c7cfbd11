"""README's library example runs as written, so its calls keep matching the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1, "README should hold exactly one python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
