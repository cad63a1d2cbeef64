"""Every Python code block in README.md runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": f"readme_block_{index}"})
