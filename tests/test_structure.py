"""The package's structure, read from its source with `ast`: the relative
imports at module level form an acyclic graph, and no function or method
imports anything, so every dependency between modules shows at the top of a
module and importing one module never runs another's body twice; every
module-level function is used by the package or exported by it; every
method of a class the package does not export has a caller in the
package; the step bound has one caller, the one rule walk; re-framing
has one caller, `_Kernel.ready`; every checker report is made by one
builder, `ktape._report`; and each CLI subcommand prints one record."""
import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qturing"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _outside_functions(node: ast.AST):
    """The nodes under `node` that no function or method encloses."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _outside_functions(child)


def _relative_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports at module level."""
    found = set()
    for node in _outside_functions(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
    return found & set(MODULES)


def test_module_level_relative_imports_are_acyclic():
    graph = {name: _relative_imports(tree) for name, tree in MODULES.items()}
    assert "windows" in graph["oracle"] and "evolution" in graph["windows"]
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as error:
        pytest.fail(f"import cycle: {' -> '.join(error.args[1])}")


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_function_body_imports(name):
    nested = [
        f"{name}.py:{node.lineno} in {function.name}"
        for function in ast.walk(MODULES[name])
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, nested


def _names_used(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names, attribute names and imported names under `node`, outside
    `skip`."""
    names = set()
    for child in _walk_outside(node, skip):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def _walk_outside(node: ast.AST, skip: ast.AST | None):
    """`ast.walk` of `node` without the subtree `skip`."""
    if node is not skip:
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _walk_outside(child, skip)


def test_every_module_level_function_is_used_in_the_package():
    """A module-level function must be referenced by name somewhere in the
    package outside its own body, an import counting (so a name that
    `__init__.py` exports is used), so no code that only the tests call
    lives in the package."""
    used = set()
    for tree in MODULES.values():
        for node in tree.body:
            names = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(node.name)  # a recursive call is no use from outside
            used |= names
    unused = [f"{name}.py:{node.lineno} {node.name}"
              for name, tree in MODULES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in used]
    assert not unused, unused


def test_every_method_of_an_unexported_class_has_a_caller():
    """A method (dunders aside) of a class that `__init__.py` does not
    export must be named somewhere in the package outside its own body, as
    an attribute or a name, so no method that only the tests call lives in
    the package.  An exported class may have methods the package never
    calls, such as `Superposition.plus`."""
    exported = _names_used(MODULES["__init__"])
    unused = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in exported:
                continue
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (method.name.startswith("__") and method.name.endswith("__"))
                        and not any(method.name in _names_used(other, method) for other in MODULES.values())):
                    unused.append(f"{name}.py:{method.lineno} {node.name}.{method.name}")
    assert not unused, unused


def _scoped(node: ast.AST, scope: str = ""):
    """Every node under `node`, with the dotted name of the innermost class
    or function around it ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scoped(child, f"{scope}.{child.name}".lstrip(".") if named else scope)


def _callers(name: str) -> list[str]:
    """Where the package names `name`, as a name or an attribute: one
    "module.py scope" per reference."""
    return [f"{module}.py {scope}" for module, tree in MODULES.items() for node, scope in _scoped(tree)
            if name in ((node.id,) if isinstance(node, ast.Name) else
                        (node.attr,) if isinstance(node, ast.Attribute) else ())]


def test_the_step_bound_has_one_caller():
    """`evolution._check_step_size` is named once in the package, by the
    one rule walk, `_Kernel.walk`, so every step is refused in one place
    and a second walk beside it does not go unnoticed."""
    assert _callers("_check_step_size") == ["evolution.py _Kernel.walk"]


def test_reframing_has_one_caller():
    """`_Kernel.reframe` is named once in the package, by `_Kernel.ready`,
    so terms are re-framed at slack 0 on the way into a step and nowhere
    else."""
    assert _callers("reframe") == ["evolution.py _Kernel.ready"]


def _constructed(name: str) -> list[str]:
    """Where the package calls `name`: one "module.py scope" per call."""
    return [f"{module}.py {scope}" for module, tree in MODULES.items() for node, scope in _scoped(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name]


@pytest.mark.parametrize("name", ["ConditionResidual", "ValidationReport"])
def test_reports_have_one_builder(name):
    """`ConditionResidual(...)` and `ValidationReport(...)` are called only in
    `ktape._report`, the builder all five checkers end in, so every residual
    is made once, under its final label and witness keys."""
    assert _constructed(name) == ["ktape.py _report"]


CLI_FUNCTIONS = {node.name: node for node in MODULES["cli"].body if isinstance(node, ast.FunctionDef)}
COMMANDS = sorted(name for name in CLI_FUNCTIONS if name.startswith("cmd_"))


@pytest.mark.parametrize("command", COMMANDS)
def test_each_subcommand_prints_one_record(command):
    """A `cmd_*` of `cli.py` calls `_emit` exactly once, with its record and
    the module-level function that renders the text format from that record,
    and calls `print` only with `file=sys.stderr`, so no subcommand reads its
    result a second time to build its text."""
    calls = [node for node in ast.walk(CLI_FUNCTIONS[command])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    emits = [call for call in calls if call.func.id == "_emit"]
    assert len(emits) == 1
    text = emits[0].args[2]
    assert isinstance(text, ast.Name) and text.id in CLI_FUNCTIONS
    assert [arg.arg for arg in CLI_FUNCTIONS[text.id].args.args] == ["record"]
    assert all(any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in call.keywords)
               for call in calls if call.func.id == "print")


def test_every_subcommand_is_checked():
    assert COMMANDS == ["cmd_conditions", "cmd_gram", "cmd_norm", "cmd_run", "cmd_validate"]
