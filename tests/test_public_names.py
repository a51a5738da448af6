"""Every caliblab name that a demo or the README imports must exist.

No test runs the demos or the README snippet, so deleting or renaming a
public name would break them silently. Parsing their imports catches that
without running them.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S
)
SOURCES = {f"demos/{path.name}": path.read_text(encoding="utf-8") for path in DEMOS}
SOURCES.update({f"README.md:python-{i}": block for i, block in enumerate(README_BLOCKS)})


def test_demos_and_readme_code_are_found():
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_caliblab_imports_resolve(name):
    missing = []
    for node in ast.walk(ast.parse(SOURCES[name], filename=name)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "caliblab":
                    importlib.import_module(alias.name)
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "caliblab"
        ):
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]
    assert not missing, f"{name} imports names caliblab does not define: {missing}"
