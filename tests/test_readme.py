"""README.md's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", library, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
