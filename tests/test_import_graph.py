"""The brute-force oracle and the shadow verifier stay independent of the
engine they check, and every module states its imports at its top.

Read from the source with ast, so an import inside a function counts too.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "memranger"


def _imports(source: str) -> tuple[set[str], set[str]]:
    """(package modules, top-level absolute modules) that source imports; the
    package's modules count as package modules however they are named, and a
    bare import of the package itself counts as its __init__."""
    local, absolute = set(), set()

    def add(module: str, names) -> None:
        top, _, rest = module.partition(".")
        if top != SRC.name:
            absolute.add(top)
        elif rest:
            local.add(rest.split(".")[0])
        elif names:                                # from memranger import name
            local.update(names)
        else:                                      # import memranger
            local.add("__init__")

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name, ())
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level == 0:
                add(node.module, names)
            elif node.module is None:              # from . import name
                local.update(names)
            else:
                local.add(node.module.split(".")[0])
    return local, absolute


def test_the_oracle_imports_only_the_address_and_ept_primitives():
    local, absolute = _imports((SRC / "reference_oracle.py").read_text(encoding="utf-8"))
    assert local <= {"address_space", "ept_model"}, local
    assert not local & {"policy_map", "dispatcher", "kernel_sim"}
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names


def test_the_shadow_verifier_imports_nothing_from_the_engine():
    """report_cli takes the event classes, fill constants, report and replay
    entry points from kernel_sim, but no policy or dispatch code: its
    legality rule comes from the oracle."""
    local, _ = _imports((SRC / "report_cli.py").read_text(encoding="utf-8"))
    assert not local & {"policy_map", "dispatcher"}, local


def test_the_engine_imports_nothing_from_the_checkers():
    """The engine cannot borrow the oracle's static rows or the shadow's
    bookkeeping: a fault in its copy must not be mirrored on the expected side."""
    for name in ("kernel_sim", "policy_map", "dispatcher", "ept_model"):
        local, _ = _imports((SRC / f"{name}.py").read_text(encoding="utf-8"))
        assert not local & {"reference_oracle", "report_cli"}, (name, local)


def test_every_import_is_at_the_top_of_its_module():
    """No module of the package imports inside a function, class or block: its
    dependencies are read in one place, and a cycle cannot hide in a call."""
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        nested += [
            (path.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def test_the_static_regions_are_stated_once():
    """The three static regions are assigned in address_space alone."""
    names = {"OS_KERNEL_CODE", "OS_STRUCTURES", "OTHER_DRIVER"}
    assigned = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in names:
                assigned.setdefault(node.id, []).append(path.name)
    assert assigned == {name: ["address_space.py"] for name in names}


@pytest.mark.parametrize("line, module", [
    ("import memranger", "__init__"),
    ("import memranger.dispatcher", "dispatcher"),
    ("from memranger import policy_map", "policy_map"),
    ("from . import dispatcher", "dispatcher"),
    ("from .kernel_sim import Simulation", "kernel_sim"),
])
def test_every_spelling_of_a_package_import_is_seen(line, module):
    local, absolute = _imports(f"def f():\n    {line}\n")
    assert local == {module} and not absolute


def test_the_oracle_reads_no_private_attribute_of_another_object():
    """The oracle reads contexts and the engine's ledger through their public
    names only (Ept.entry_for, Ept.materialized_leaves, the ledger's fact
    tables): a _-prefixed attribute may be read on self alone."""
    tree = ast.parse((SRC / "reference_oracle.py").read_text(encoding="utf-8"))
    private = [
        (node.lineno, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert private == []
