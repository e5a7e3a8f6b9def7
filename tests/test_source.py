"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import pytest

import gottlieb


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must be explicit checks.
    root = Path(gottlieb.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_oracles_name_nothing_from_the_engine():
    # An oracle routed through the engine it checks would check nothing.
    source = (Path(gottlieb.__file__).parent / "oracle.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    engine = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module in ("decompose", "gottlieb.decompose")
        or (node.module is None and alias.name == "decompose")
    }
    assert engine
    oracles = {
        "randomized_decompose",
        "recursive_bouquet_coefficients",
        "tuple_enumeration_shifts",
    }
    found = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in oracles
    ]
    assert {node.name for node in found} == oracles
    offenders = [
        f"{node.name}:{name.lineno} {name.id}"
        for node in found
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and name.id in engine
    ]
    assert offenders == []


def test_package_imports_no_sympy():
    # Number theory is gottlieb.numtheory; sympy alone was most of the
    # cold-start time.
    root = Path(gottlieb.__file__).parent
    offenders = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "sympy"
            ]
    assert offenders == []


def _imported_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) for every import in ``tree``, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return found


def test_import_path_imports_no_dataclasses():
    # Loading and saving a document loads the profile layer, the group
    # layer and the writer, and the modules they import at module level in
    # turn; none of them may use dataclasses, whose import and per-class
    # code generation were half of the profile layer's start-up.
    root = Path(gottlieb.__file__).parent
    path, todo, offenders = set(), ["__init__", "profiles", "abelian", "writer"], []
    while todo:
        name = todo.pop()
        if name in path:
            continue
        path.add(name)
        tree = ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))
        todo += [
            node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        ]
        offenders += [
            f"{name}.py:{line}" for line, module in _imported_names(tree)
            if module.split(".")[0] == "dataclasses"
        ]
    assert path == {
        "__init__", "abelian", "names", "numtheory", "profiles", "records", "writer",
    }
    assert offenders == []


def test_project_has_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []


def test_package_never_expands_invariant_factors():
    # invariant_factors() lists one entry per cyclic summand, which can be
    # astronomically many; the package prints runs of equal factors instead.
    root = Path(gottlieb.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "invariant_factors"
    ]
    assert offenders == []


def test_dispatchers_match_classes_without_capturing():
    # A positional capture in a class pattern costs about as much again per
    # node as the match itself; the dispatchers read the fields they need.
    root = Path(gottlieb.__file__).parent
    offenders = [
        f"{name}:{node.lineno}"
        for name in ("formal.py", "spaces.py", "splitting.py")
        for node in ast.walk(ast.parse((root / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.MatchClass) and (node.patterns or node.kwd_patterns)
    ]
    assert offenders == []


def test_only_main_prints_in_the_cli():
    # Commands return (code, obj, lines); main is the one output point.
    tree = ast.parse((Path(gottlieb.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    in_main = {id(node) for node in ast.walk(main)}
    output = [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print")
        or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"))
    ]
    assert any(id(node) in in_main for node in output)
    assert [node.lineno for node in output if id(node) not in in_main] == []


def _is_isinstance(node: ast.AST, kind: str) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and isinstance(node.args[1], ast.Name) and node.args[1].id == kind
    )


def _is_integer_check(node: ast.AST) -> bool:
    """``isinstance(x, bool) or not isinstance(x, int)``."""
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)):
        return False
    return any(_is_isinstance(v, "bool") for v in node.values) and any(
        isinstance(v, ast.UnaryOp) and isinstance(v.op, ast.Not)
        and _is_isinstance(v.operand, "int")
        for v in node.values
    )


def _scopes(node: ast.AST, match, scope: str = ""):
    """Dotted scope of every node under ``node`` that ``match`` accepts."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if match(child):
            yield inner
        yield from _scopes(child, match, inner)


def test_one_positive_integer_check_outside_the_profile_layer():
    # spaces._nat is the package's check that a count or degree is a positive
    # integer.  The profile layer may not load spaces, so it keeps its own;
    # ShiftPolynomial.__pow__ returns NotImplemented instead of raising.
    root = Path(gottlieb.__file__).parent
    found = {
        f"{path.stem}.{scope}"
        for path in sorted(root.glob("*.py"))
        if path.stem not in ("abelian", "numtheory", "profiles")
        for scope in _scopes(ast.parse(path.read_text(encoding="utf-8")), _is_integer_check)
    }
    assert found == {"spaces._nat", "splitting.ShiftPolynomial.__pow__"}


def _calls_desugar(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "desugar")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "desugar")
    )


def test_sugar_is_expanded_only_where_a_residual_is_read_and_in_the_oracles():
    # desugar builds one node per copy of a count.  The engine expands a
    # residual's source and target only in _Walk.at, after the walk has
    # charged every level to its size budget; an error path or a blocker
    # names an expression as written.  The oracles keep their own route.
    root = Path(gottlieb.__file__).parent
    found = {
        f"{path.stem}.{scope}"
        for path in sorted(root.glob("*.py"))
        if path.stem not in ("spaces", "oracle")
        for scope in _scopes(ast.parse(path.read_text(encoding="utf-8")), _calls_desugar)
    }
    assert found == {"decompose._Walk.at"}


_SPACE_NODES = {"Sphere", "Torus", "Product", "Wedge", "Susp", "Atom", "Bouquet", "Point",
                "MapSpace", "Loop", "BouquetSpace"}


def test_splitting_reads_space_nodes_in_two_functions():
    # _degree reads a source's degree and _form its polynomial; a third
    # reader dispatching on the same nodes would have to agree with both.
    tree = ast.parse((Path(gottlieb.__file__).parent / "splitting.py").read_text(encoding="utf-8"))
    found = set(_scopes(tree, lambda node: isinstance(node, ast.Name) and node.id in _SPACE_NODES))
    assert found == {"_degree", "_form"}


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Module functions and methods, each with the ones it calls by name.

    A name is resolved within the module: ``f(...)`` to a module function
    or to the ``__init__``/``__post_init__`` of a module class,
    ``self.m(...)`` and ``cls.m(...)`` to the enclosing class's method,
    ``C.m(...)`` to class C's, and any other ``x.m(...)`` to every method
    named m.  Calls made by a nested function count as its enclosing
    function's.
    """
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    methods = {
        f"{name}.{item.name}": item
        for name, node in classes.items()
        for item in node.body if isinstance(item, ast.FunctionDef)
    }

    def callees(body: ast.AST, owner: str | None) -> set[str]:
        found = set()
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in functions:
                    found.add(func.id)
                elif func.id in classes:
                    found |= {f"{func.id}.{m}" for m in ("__init__", "__post_init__")} & set(methods)
            elif isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                        and value.func.id == "super":
                    continue
                if isinstance(value, ast.Name) and value.id in ("self", "cls") and owner:
                    found |= {f"{owner}.{func.attr}"} & set(methods)
                elif isinstance(value, ast.Name) and value.id in classes:
                    found |= {f"{value.id}.{func.attr}"} & set(methods)
                else:
                    found |= {name for name in methods if name.split(".")[1] == func.attr}
        return found

    graph = {name: callees(node, None) for node in tree.body
             if isinstance(node, ast.FunctionDef) for name in [node.name]}
    graph.update({name: callees(node, name.split(".")[0]) for name, node in methods.items()})
    return graph


def test_space_readers_do_not_recurse():
    # Every reader of a space tree walks it with an explicit stack, so the
    # depth of an expression is bounded by the size budgets alone.
    root = Path(gottlieb.__file__).parent
    cycles = []
    for name in ("spaces.py", "splitting.py", "formal.py", "decompose.py"):
        graph = _call_graph(ast.parse((root / name).read_text(encoding="utf-8")))
        for start in graph:
            seen, todo = set(), list(graph[start])
            while todo:
                node = todo.pop()
                if node not in seen:
                    seen.add(node)
                    todo += graph.get(node, ())
            if start in seen:
                cycles.append(f"{name}:{start}")
    assert cycles == []
