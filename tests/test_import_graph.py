"""The brute-force oracle stays independent of the engine it checks.

Read from the source with ast, so an import inside a function counts too.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "memranger"


def _imports(path: Path) -> tuple[set[str], set[str]]:
    """(package modules, top-level absolute modules) that path imports."""
    local, absolute = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module.split(".")[0])
            elif node.module is None:              # from . import name
                local.update(alias.name for alias in node.names)
            else:
                local.add(node.module.split(".")[0])
    return local, absolute


def test_the_oracle_imports_only_the_address_and_ept_primitives():
    local, absolute = _imports(SRC / "reference_oracle.py")
    assert local <= {"address_space", "ept_model"}, local
    assert not local & {"policy_map", "dispatcher", "kernel_sim"}
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names
