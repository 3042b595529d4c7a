"""Source hygiene: every import in the package modules is used, and the
CLI's commands leave error handling to `main`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "comet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that the module never reads.

    An import on a line marked `# noqa: F401` is kept on purpose (for
    example, a name another module patches) and is not reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_dead_and_exempt_names():
    src = ("import os\nimport numpy as np\nfrom a import b, c\n"
           "from d import e  # noqa: F401\nnp.zeros(b)\n")
    assert unused_imports(src) == ["line 1: os", "line 3: c"]


def commands_with_try(source: str) -> list[str]:
    """`cmd_*` functions that hold a `try` statement.

    A command raises on bad input; `cli.main` alone maps errors to exit
    codes, so a `try` inside a command would restate that policy.
    """
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("cmd_")
            and any(isinstance(n, ast.Try) for n in ast.walk(node))]


def test_cli_commands_hold_no_try():
    assert commands_with_try((SRC / "cli.py").read_text()) == []


def test_command_try_check_sees_nested_try():
    src = ("def cmd_a():\n    try:\n        pass\n    except OSError:\n"
           "        pass\n"
           "def cmd_b():\n    if x:\n        try:\n            pass\n"
           "        finally:\n            pass\n"
           "def cmd_c():\n    return 0\n"
           "def main():\n    try:\n        cmd_c()\n    except ValueError:\n"
           "        pass\n")
    assert commands_with_try(src) == ["cmd_a", "cmd_b"]
