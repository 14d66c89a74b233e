"""Source hygiene: every function parameter in the library is read."""

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
