"""Every settable configuration field has a caller outside the tests.

A field that no experiment, example or benchmark ever sets is an option
nobody uses: it belongs as a module constant at its reader.  This scans
``src/``, ``examples/`` and ``benchmarks/`` for a keyword argument or an
attribute assignment naming each field of the fabric's configuration
classes and each ``SweepPool`` constructor parameter, ignoring the
defining class's own body (its validation and normalization do not count
as callers).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.core.params import PFMParams
from repro.core.watchdog import RecoveryPolicy, WatchdogParams
from repro.experiments.pool import SweepPool
from repro.faults.plan import FaultPlan
from repro.pfm.tenancy import TenantSpec

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks")
CLASSES = (
    PFMParams, WatchdogParams, RecoveryPolicy, TenantSpec, FaultPlan, SweepPool
)

#: ``(class, field) -> reason`` for fields kept without a caller.
EXEMPT = {
    ("TenantSpec", "rst_capacity"): (
        "its rst_evictions counter is part of the golden tenant_stats"
    ),
    ("TenantSpec", "fst_capacity"): (
        "its fst_evictions counter is part of the golden tenant_stats"
    ),
}


def _set_names(tree: ast.AST, skip_class: str) -> set[str]:
    """Keyword-argument names and assigned attribute names in *tree*,
    outside any class named *skip_class*."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip_class:
            continue
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _settable(cls: type) -> list[str]:
    """A dataclass's fields, else its constructor's parameters."""
    if dataclasses.is_dataclass(cls):
        return [field.name for field in dataclasses.fields(cls)]
    return list(inspect.signature(cls).parameters)


@pytest.fixture(scope="module")
def trees() -> list[ast.AST]:
    return [
        ast.parse(path.read_text(), filename=str(path))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_config_field_is_set_somewhere(cls, trees):
    used: set[str] = set()
    for tree in trees:
        used |= _set_names(tree, cls.__name__)
    unset = [
        name
        for name in _settable(cls)
        if name not in used and (cls.__name__, name) not in EXEMPT
    ]
    assert not unset, (
        f"{cls.__name__} options never set outside tests: {unset}; fold"
        " each into a module constant at its reader"
    )
