"""Source hygiene: every function parameter in the library is read, and no
library module reads another library module's private names."""

import ast
from pathlib import Path

import ramanasdp

SRC = Path(ramanasdp.__file__).parent


def _unread_parameters(tree: ast.AST, filename: str) -> list[str]:
    """``file:line name(param)`` for each parameter its function never reads.

    Dunder methods keep the signature their protocol fixes, and a nested
    ``stop`` keeps the parameter list of the barrier path's stop hook.
    """
    out = []

    def visit(node: ast.AST, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                exempt = (name.startswith("__") and name.endswith("__")) or (
                    nested and name == "stop"
                )
                if not exempt:
                    a = child.args
                    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                    read = {
                        n.id
                        for stmt in child.body
                        for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    }
                    out.extend(
                        f"{filename}:{child.lineno} {name}({p})" for p in params if p not in read
                    )
                visit(child, True)
            else:
                visit(child, nested)

    visit(tree, False)
    return out


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text()), path.name)
    assert unread == []


def test_the_check_sees_unread_parameters():
    tree = ast.parse(
        "def f(a, b, *, c=1):\n    return a\n"
        "def g(x):\n    def stop(u, v):\n        return u\n    def h(y):\n        return 0\n"
        "    return stop(x, x), h\n"
        "class K:\n    def __eq__(self, other):\n        return True\n"
    )
    assert _unread_parameters(tree, "m.py") == ["m.py:1 f(b)", "m.py:1 f(c)", "m.py:6 h(y)"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _foreign_private_reads(tree: ast.AST, filename: str, modules: set[str]) -> list[str]:
    """``file:line m._x`` for each ``from .m import _x`` or ``m._x`` by which
    a module reads a private name of another library module m."""
    others = modules - {filename.removesuffix(".py")}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module in others:
            out += [f"{filename}:{node.lineno} {node.module}.{a.name}"
                    for a in node.names if _private(a.name)]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in others
            and _private(node.attr)
        ):
            out.append(f"{filename}:{node.lineno} {node.value.id}.{node.attr}")
    return out


def test_no_module_reads_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    modules = {p.stem for p in paths}
    reads = []
    for path in paths:
        reads += _foreign_private_reads(ast.parse(path.read_text()), path.name, modules)
    assert reads == []


def test_the_check_sees_foreign_private_reads():
    tree = ast.parse(
        "from .facial import _a, b\n"
        "from . import facial\n"
        "from .m import _own\n"
        "x = facial._c + facial.d + facial.__doc__ + obj._e + _own\n"
    )
    assert _foreign_private_reads(tree, "m.py", {"facial", "m"}) == [
        "m.py:1 facial._a",
        "m.py:4 facial._c",
    ]
