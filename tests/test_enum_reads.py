"""No function in custodysim reads an enum member through its class.

On Python 3.11 every ``Enum.X`` read goes through
``EnumType.__getattr__``, several times the cost of reading a global.
So each module binds its members to module constants right after the
class (``PREPARE = MsgType.PREPARE``) and function bodies read those.
This parses the package's sources and lists every ``<Enum>.<member>``
read inside a function or lambda. Module-level reads (the constants
themselves, ``REVERT_ERRORS``), ``tx.kind.value`` and ``TxKind(text)``
are allowed.
"""
import ast
from pathlib import Path

import custodysim

PACKAGE = Path(custodysim.__file__).resolve().parent


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _enum_members(trees) -> dict:
    """Enum class name -> its member names, for every Enum in the package."""
    enums = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base) in ("enum.Enum", "Enum")
                    for base in node.bases):
                enums[node.name] = {
                    target.id for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)}
    return enums


def _class_name(node: ast.expr):
    """``TxKind`` for both ``TxKind`` and ``ledger.TxKind``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _in_function_reads(trees, enums) -> list:
    sites = set()
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = func.body
            elif isinstance(func, ast.Lambda):
                body = [func.body]
            else:
                continue
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Attribute) \
                            and node.attr in enums.get(
                                _class_name(node.value), ()):
                        sites.add((name, node.lineno, ast.unparse(node)))
    # a nested function is walked twice, as itself and in its parent
    return [f"{name}:{line} {text}" for name, line, text in sorted(sites)]


def test_the_package_defines_the_four_enums():
    enums = _enum_members(_trees())
    assert set(enums) == {"MsgType", "Phase", "TxKind", "RevertReason"}
    assert enums["Phase"] == {"AWAITING", "PRE_PREPARED", "PREPARED"}


def test_no_function_reads_an_enum_member_through_its_class():
    trees = _trees()
    sites = _in_function_reads(trees, _enum_members(trees))
    assert sites == [], "read a module constant instead:\n" + "\n".join(sites)


def test_the_guard_sees_a_read_in_a_function():
    trees = {"probe.py": ast.parse(
        "import enum\n"
        "class Kind(enum.Enum):\n"
        "    A = 1\n"
        "A = Kind.A\n"
        "def f(x):\n"
        "    return x is Kind.A or x is mod.Kind.A or Kind(x) or x.value\n"
        "g = lambda x: x is Kind.A\n")}
    assert _in_function_reads(trees, _enum_members(trees)) == [
        "probe.py:6 Kind.A", "probe.py:6 mod.Kind.A", "probe.py:7 Kind.A"]
