"""What each entry point imports, and which object each root name is.

A process compiles only the layers it runs.  ``import gottlieb`` loads no
submodule, and every public name loads its module on first access.
Loading a document loads the profile layer (``profiles``, ``records``,
``names``), and the group layer (``abelian``, ``numtheory``) only with
the first table that holds a group.  The CLI loads the profile layer only
for a command given ``--profiles``.  These tests start fresh
interpreters, since this one has already imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gottlieb
import gottlieb.profiles

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


PROFILE_LAYER = ["gottlieb.names", "gottlieb.profiles", "gottlieb.records"]
GROUP_LAYER = ["gottlieb.abelian", "gottlieb.numtheory"]
ATOMS_ONLY = {"spaces": {"X": {"suspension_shifts": [1, 2], "flags": {"finite": True}},
                         "Y": {"betti": [1, 0, 1]}}}

LOADED_BY = """
import json, sys
before = "dataclasses" in sys.modules
import gottlieb
gottlieb.load({doc!r})
print(json.dumps([
    None if before else "dataclasses" in sys.modules,
    sorted(m for m in sys.modules if m.split(".")[0] == "gottlieb"),
]))
"""


def test_import_gottlieb_loads_no_submodule():
    assert fresh("import gottlieb\n" + REPORT) == ["gottlieb"]


def test_an_atoms_only_document_loads_no_group_layer():
    # The profile layer's records are plain slotted classes, since importing
    # dataclasses would cost about half of the profile layer's start-up.
    # When a site hook loaded dataclasses before the package, that says
    # nothing (None).
    dataclasses_loaded, modules = fresh(LOADED_BY.format(doc=json.dumps(ATOMS_ONLY)))
    assert dataclasses_loaded is not True
    assert modules == ["gottlieb", *PROFILE_LAYER]


@pytest.mark.parametrize(
    "table",
    [{"entries": {"2": "Z/2"}}, {"zero_above": 3}],
    ids=["an-entry", "only-a-bound"],
)
def test_a_document_with_a_group_table_loads_the_group_layer(table):
    # A bound alone holds a group: the table answers the trivial group past it.
    doc = json.dumps({"spaces": {"Y": {"gottlieb": table}}})
    dataclasses_loaded, modules = fresh(LOADED_BY.format(doc=doc))
    assert dataclasses_loaded is not True
    assert modules == sorted(["gottlieb", *PROFILE_LAYER, *GROUP_LAYER])


def test_the_demo_document_loads_the_profile_and_group_layers_only():
    code = LOADED_BY.format(doc=(REPO / "profiles" / "synthetic_demo.json").read_text())
    assert fresh(code)[1] == sorted(["gottlieb", *PROFILE_LAYER, *GROUP_LAYER])


def test_a_constructed_table_binds_the_group_layer():
    code = """
import json, sys
from gottlieb.profiles import GradedGroup, SpaceProfile
empty = SpaceProfile("Y")
before = "gottlieb.abelian" in sys.modules
from gottlieb.abelian import TRIVIAL
table = GradedGroup({}, 2)
print(json.dumps([before, table.lookup(3) is TRIVIAL, table.lookup(2) is None]))
"""
    assert fresh(code) == [False, True, True]


def test_evaluation_and_the_writer_load_on_first_use_and_are_bound_once():
    code = """
import json, sys
import gottlieb.profiles as profiles
names = ["evaluate", "gottlieb_table_of_map_space", "save", "group_to_json"]
before = [name in vars(profiles) for name in names]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "gottlieb")
owners = [getattr(profiles, name).__module__ for name in names]
print(json.dumps([before, loaded, owners, [name in vars(profiles) for name in names]]))
"""
    before, loaded, owners, after = fresh(code)
    assert before == [False] * 4
    assert loaded == ["gottlieb", *PROFILE_LAYER]
    assert owners == ["gottlieb.evaluation"] * 2 + ["gottlieb.writer"] * 2
    assert after == [True] * 4


def test_unknown_profile_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gottlieb.profiles.no_such_name  # noqa: B018


def test_cli_import_defers_the_command_modules():
    loaded = fresh("import gottlieb.cli\n" + REPORT)
    assert "gottlieb.cli" in loaded
    for module in ("oracle", "ranks", "relative", "fox"):
        assert f"gottlieb.{module}" not in loaded


@pytest.mark.parametrize(
    "run",
    [
        "import gottlieb.cli",
        "from gottlieb.cli import main\n"
        "assert main(['decompose', '--expr', 'map(T2, Y)', '--degree', '1']) == 0",
    ],
    ids=["import", "decompose"],
)
def test_the_cli_loads_no_profile_layer_without_profiles(run):
    loaded = fresh(run + "\n" + REPORT)
    for module in ("profiles", "abelian", "numtheory", "evaluation", "writer"):
        assert f"gottlieb.{module}" not in loaded


BAD_DOCUMENTS = {
    "not-json": "{",
    "unknown-key": json.dumps({"spaces": {}, "extra": 1}),
    "bad-name": json.dumps({"spaces": {"map": {}}}),
    "not-prime": json.dumps({"spaces": {"Y": {"gottlieb": {"entries": {"1": {"torsion": [[4, 1]]}}}}}}),
}


@pytest.mark.parametrize("doc", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_a_bad_profile_document_still_exits_three(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    code = f"""
import contextlib, io, json
from gottlieb.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["eval", "--profiles", {str(path)!r}, "--expr", "loop(Y)", "--degree", "2"])
print(json.dumps([code, err.getvalue()]))
"""
    code, err = fresh(code)
    assert code == 3
    assert err.startswith("error: ")
