"""Source hygiene: every function parameter in the library is read, every
default of a private function is passed by some call, no library module
reads another library module's private names, no function imports a
library module, and no library or tool code reads the per-row view of an
emitted system."""

import ast
from pathlib import Path

import ramanasdp

SRC = Path(ramanasdp.__file__).parent
TOOLS = Path(__file__).resolve().parents[1] / "tools"


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


def _function_imports(tree: ast.AST, filename: str) -> list[str]:
    """``file:line name`` for each import of a library module (a relative
    import, or one of ``ramanasdp``) inside the function ``name``.  Imports
    belong at module level, where an import cycle shows when the package
    loads."""
    out = []

    def visit(node: ast.AST, fn) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                lib = child.level > 0 or (child.module or "").split(".")[0] == "ramanasdp"
            elif isinstance(child, ast.Import):
                lib = any(a.name.split(".")[0] == "ramanasdp" for a in child.names)
            else:
                lib = False
            if lib and fn is not None:
                out.append(f"{filename}:{child.lineno} {fn}")
            visit(child, fn)

    visit(tree, None)
    return out


def test_no_function_imports_a_library_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _function_imports(ast.parse(path.read_text()), path.name)
    assert found == []


def test_the_check_sees_function_imports():
    tree = ast.parse(
        "import json\n"
        "from .verify import x\n"
        "def f():\n    from .verify import y\n    import json\n    return y\n"
        "def g():\n    def h():\n        import ramanasdp.facial\n    from . import sdpa\n"
    )
    assert _function_imports(tree, "m.py") == ["m.py:4 f", "m.py:9 h", "m.py:10 g"]


def _unpassed_defaults(tree: ast.AST, filename: str) -> list[str]:
    """``file:line name(param)`` for each defaulted parameter of a private
    function that no call in the module passes, by position or by keyword.

    A call is one whose callee is the function's name or an attribute of
    that name; a call through an attribute binds a method's ``self`` or
    ``cls`` first, and one with ``*args`` or ``**kwargs`` may pass anything."""
    calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, index, param: str, method: bool) -> bool:
        if any(isinstance(x, ast.Starred) for x in call.args):
            return True
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        bound = method and isinstance(call.func, ast.Attribute)
        return index is not None and index - bound < len(call.args)

    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not _private(fn.name):
            continue
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        method = positional[:1] in (["self"], ["cls"])
        first = len(positional) - len(a.defaults)
        defaulted = [(i, positional[i]) for i in range(first, len(positional))]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out += [
            f"{filename}:{fn.lineno} {fn.name}({param})"
            for index, param in defaulted
            if not any(passes(c, index, param, method) for c in calls.get(fn.name, []))
        ]
    return out


def test_every_default_of_a_private_function_is_passed_somewhere():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _unpassed_defaults(ast.parse(path.read_text()), path.name)
    assert found == []


def test_the_check_sees_unpassed_defaults():
    tree = ast.parse(
        "def _f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
        "_f(0, 1)\n_f(0, e=5)\n"
        "def _g(a, b=1):\n    return a\n"
        "_g(*xs)\n"
        "def public(a=1):\n    return a\n"
        "class K:\n    def _m(self, a=1, b=2):\n        return a\n"
        "    def run(self):\n        return self._m(0)\n"
    )
    assert _unpassed_defaults(tree, "m.py") == ["m.py:1 _f(c)", "m.py:1 _f(d)", "m.py:11 _m(b)"]


def _constraints_reads(tree: ast.AST, filename: str) -> list[str]:
    """``file:line`` for each read of an attribute named ``constraints``.
    That is StandardFormSdp's view of its rows as slices of its value
    tables, kept for bench/tracer.py, its only reader: the library and the
    tools read the tables, so the view can go once the tracer reads them
    too."""
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "constraints"
    ]


def test_no_library_code_reads_the_constraints_view():
    found, tools = [], sorted(TOOLS.glob("*.py"))
    assert tools
    for path in sorted(SRC.glob("*.py")) + tools:
        found += _constraints_reads(ast.parse(path.read_text()), f"{path.parent.name}/{path.name}")
    assert found == []


def test_the_check_sees_constraints_reads():
    tree = ast.parse(
        "class S:\n    @property\n    def constraints(self):\n        return ()\n"
        "n = len(sdp.constraints)\nfor con in S().constraints:\n    pass\n"
    )
    assert sorted(_constraints_reads(tree, "m.py")) == ["m.py:5", "m.py:6"]
