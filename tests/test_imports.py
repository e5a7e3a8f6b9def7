"""What each entry point imports, and which object each root name is.

The package root loads the profile layer eagerly and every other public
name on first access.  These tests start fresh interpreters, since this
one has already imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gottlieb

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))


def fresh(code: str):
    """Run ``code`` in a new interpreter and decode its last stdout line."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV,
        cwd=REPO, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "gottlieb")))
"""

DECOMPOSE_BOUND = """
import json, sys, types
import gottlieb
fn = gottlieb.decompose
print(json.dumps([
    isinstance(fn, types.ModuleType),
    fn is sys.modules["gottlieb.decompose"].decompose,
    gottlieb.decompose(gottlieb.parse_space("map(T2, Y)"), 1).__class__.__name__,
]))
"""


@pytest.mark.parametrize(
    "first",
    [
        "import gottlieb.cli",
        "import importlib; importlib.import_module('gottlieb.decompose')",
        "import gottlieb; gottlieb.crosscheck",
        "import gottlieb.decompose",
        "from gottlieb import decompose",
    ],
    ids=["cli", "import_module", "crosscheck", "import-statement", "from-import"],
)
def test_root_decompose_is_the_function_whatever_loads_first(first):
    assert fresh(first + "\n" + DECOMPOSE_BOUND) == [False, True, "FormalSum"]


def test_every_public_name_is_the_object_of_its_module():
    code = """
import importlib, json
import gottlieb
modules = ["abelian", "decompose", "formal", "fox", "oracle", "profiles", "ranks",
           "relative", "spaces", "splitting"]
owner = {}
for name in modules:
    module = importlib.import_module("gottlieb." + name)
    for public in module.__all__:
        owner.setdefault(public, module)
print(json.dumps({
    name: getattr(gottlieb, name) is getattr(owner[name], name) for name in gottlieb.__all__
}))
"""
    found = fresh(code)
    assert sorted(found) == sorted(gottlieb.__all__)
    assert [name for name, same in found.items() if not same] == []


def test_dir_lists_all_public_names_before_they_load():
    code = """
import json, sys
import gottlieb
print(json.dumps([sorted(set(gottlieb.__all__) - set(dir(gottlieb))),
                  "gottlieb.oracle" in sys.modules]))
"""
    assert fresh(code) == [[], False]


def test_unknown_root_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gottlieb.no_such_name  # noqa: B018


def test_loading_a_document_imports_only_the_profile_layer():
    # The profile layer's records are plain slotted classes, since importing
    # dataclasses would cost about half of ``import gottlieb``.  When a site
    # hook loaded dataclasses before the package, that says nothing (None).
    code = """
import json, sys
before = "dataclasses" in sys.modules
import gottlieb
gottlieb.load(open("profiles/synthetic_demo.json").read())
print(json.dumps([
    None if before else "dataclasses" in sys.modules,
    sorted(m for m in sys.modules if m.split(".")[0] == "gottlieb"),
]))
"""
    dataclasses_loaded, modules = fresh(code)
    assert dataclasses_loaded is not True
    assert modules == [
        "gottlieb",
        "gottlieb.abelian",
        "gottlieb.names",
        "gottlieb.numtheory",
        "gottlieb.profiles",
    ]


def test_cli_import_defers_the_command_modules():
    loaded = fresh("import gottlieb.cli\n" + REPORT)
    assert "gottlieb.cli" in loaded
    for module in ("oracle", "ranks", "relative", "fox"):
        assert f"gottlieb.{module}" not in loaded
