"""The Library example in README.md runs as documented.

The example runs in a child interpreter on the package under test, and
what it prints must equal the output block that follows it, so a change of
a documented call or of its result fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> tuple[str, str]:
    """The first ```python block of the ``## Library`` section and the output block after it."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code, output = re.search(r"```python\n(.*?)```\n.*?```\n(.*?)```", library, re.S).groups()
    return code, output


def test_library_example_prints_its_documented_output(package_pythonpath):
    code, output = library_example()
    env = {**os.environ, "PYTHONPATH": package_pythonpath}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout == output
