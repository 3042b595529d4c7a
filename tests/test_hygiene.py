"""Source hygiene: every import in the package modules is used, the CLI's
commands leave error handling to `main`, no function casts a caller's
value to int64 past `as_int64`, every cache is bounded, and the oracles
stay off the datapath."""

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


def _is_int64(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "int64"
            or isinstance(node, ast.Constant) and node.value == "int64")


def int64_casts_of_parameters(source: str) -> list[str]:
    """Casts of a function's own parameter to int64 outside `as_int64`.

    `np.asarray(p, dtype=np.int64)`, `np.array(p, np.int64)` and
    `p.astype(np.int64)` truncate 0.5 to 0 and wrap 2^64 - 1 to -1 without
    a word; a caller's value goes through `fxp.as_int64`, which rejects
    both.  Arrays a function built itself may be cast freely.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "as_int64":
            continue
        a = fn.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p}
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)):
                continue
            if call.func.attr == "astype":
                target, dtypes = call.func.value, call.args[:1]
            elif call.func.attr in ("asarray", "array") and call.args:
                target = call.args[0]
                dtypes = call.args[1:2] + [k.value for k in call.keywords
                                           if k.arg == "dtype"]
            else:
                continue
            if (isinstance(target, ast.Name) and target.id in params
                    and any(map(_is_int64, dtypes))):
                found.append((call.lineno, fn.name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_int64_cast_of_a_parameter(path):
    assert int64_casts_of_parameters(path.read_text()) == []


def test_int64_cast_check_sees_parameter_casts_only():
    src = ("import numpy as np\n"
           "def f(a, *, b):\n"
           "    return np.asarray(a, dtype=np.int64), b.astype(np.int64)\n"
           "def g(c):\n"
           "    return np.array(c, np.int64), c.astype('int64')\n"
           "def as_int64(a, what):\n"
           "    return a.astype(np.int64)\n"
           "def h(a):\n"
           "    local = np.zeros(3)\n"
           "    return (local.astype(np.int64), np.asarray(a),\n"
           "            a.astype(object), np.array(a[0], dtype=np.int64))\n")
    assert int64_casts_of_parameters(src) == [
        "line 3: f", "line 3: f", "line 5: g", "line 5: g"]


def unbounded_caches(source: str) -> list[str]:
    """Lines that use `functools.cache`, or `lru_cache` with a `maxsize`
    other than an integer constant.

    A memo keyed by callers' values (shapes, widths, weight contents) grows
    for the life of the process unless it has a fixed bound; a bare
    `lru_cache` keeps its default bound of 128.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for a in node.names if a.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and "lru_cache" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            bound = node.args[:1] + [k.value for k in node.keywords
                                     if k.arg == "maxsize"]
            if bound and not (isinstance(bound[0], ast.Constant)
                              and type(bound[0].value) is int):
                found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_cache(path):
    assert unbounded_caches(path.read_text()) == []


def test_unbounded_cache_check_sees_every_spelling():
    src = ("import functools\n"
           "from functools import cache, lru_cache\n"
           "@functools.cache\n"
           "def a(): pass\n"
           "@lru_cache(maxsize=None)\n"
           "def b(): pass\n"
           "@functools.lru_cache(None)\n"
           "def c(): pass\n"
           "@lru_cache(maxsize=SIZE)\n"
           "def d(): pass\n"
           "@lru_cache(maxsize=64)\n"
           "def e(): pass\n"
           "@lru_cache\n"
           "def f(): pass\n"
           "@functools.lru_cache(16, typed=True)\n"
           "def g(): pass\n")
    assert unbounded_caches(src) == ["line 2", "line 3", "line 5", "line 7",
                                     "line 9"]


ORACLES = ("conv_direct", "gemm_oracle", "ipc_oracle")
DATAPATH = {"im2col", "_im2col_map", "gemm_obc", "PreparedLut", "sa_run",
            "piso_schedule"}


def datapath_in_oracles(source: str) -> dict[str, list[str]]:
    """Each oracle function defined in `source`, mapped to the datapath
    names its body references, as a name or as an attribute.

    An oracle is the independent reference a datapath is checked against,
    so it may not reach the im2col gather, the GEMM kernel, the prepared
    tables, the shift-accumulate run or the PISO schedule.
    """
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name in ORACLES:
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(fn)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            found[fn.name] = sorted(names & DATAPATH)
    return found


def test_oracles_reference_no_datapath():
    found = {}
    for path in MODULES:
        found.update(datapath_in_oracles(path.read_text()))
    assert found == {name: [] for name in ORACLES}


def test_oracle_check_sees_names_and_attributes():
    src = ("from comet import gemm_core\n"
           "from comet.gemm_core import im2col\n"
           "def conv_direct(x, w, b, cfg):\n"
           "    return gemm_core.gemm_obc(w, im2col(x, cfg), b, cfg)\n"
           "def gemm_oracle(theta, xcols, bias):\n"
           "    return theta @ xcols + bias[:, None]\n"
           "def ipc_oracle(problem):\n"
           "    def inner():\n"
           "        return sa_run(PreparedLut, piso_schedule)\n"
           "    return inner()\n"
           "def infer(x):\n"
           "    return im2col(x), gemm_obc(x)\n")
    assert datapath_in_oracles(src) == {
        "conv_direct": ["gemm_obc", "im2col"], "gemm_oracle": [],
        "ipc_oracle": ["PreparedLut", "piso_schedule", "sa_run"]}


LUT_INTERNALS = ("field_entries", "mirror_read", "field_layout",
                 "padded_layout")


def lut_internals_used(source: str) -> list[str]:
    """The `lut_arch` layout internals that `source` imports or references,
    as a name or as an attribute.

    How a technique lays out and mirrors its tables is stated once, in
    `lut_arch`; every other module takes it from `lut_arch.layout`.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        else:
            names.add(getattr(node, "id", None) or getattr(node, "attr", None))
    return sorted(names & set(LUT_INTERNALS))


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "lut_arch.py"],
                         ids=lambda p: p.name)
def test_lut_internals_stay_in_lut_arch(path):
    assert lut_internals_used(path.read_text()) == []


def test_lut_internals_check_sees_imports_names_and_attributes():
    src = ("from .lut_arch import field_entries as fe, layout\n"
           "from comet import lut_arch\n"
           "def f(kind, k):\n"
           "    lay = layout(kind, k)\n"
           "    fields = lut_arch.field_layout(kind, *padded_layout(k))\n"
           "    return fe(fields, True), lay.tables\n"
           "def g(mirror_read):\n"
           "    return 'field_entries'\n")
    assert lut_internals_used(src) == ["field_entries", "field_layout",
                                       "padded_layout"]
