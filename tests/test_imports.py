"""The package's loading contract.

`import holim_engine` loads no submodule; each exported name is
imported from its submodule on first access, and a CLI command loads
only the engine modules it runs, and neither `dataclasses` nor
`inspect`.  No command loads `oracle` or `printer`, only `verify` loads
the verify suites, and only the commands that run an `endkan`
algorithm load `endkan`.  No other engine module imports `oracle`.
Every case that imports runs in a fresh interpreter, since
`sys.modules` is shared by all tests in this one.  Every name an
engine module imports is used in it, so no import outlives its caller.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import holim_engine

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(holim_engine.__file__).resolve().parents[1]
CORPUS = SRC / "holim_engine" / "corpus"

SUBMODULES = ("chaincx", "cli", "diagrams", "dsl", "endkan", "errors",
              "exactalg", "fincat", "holim", "oracle", "printer", "randgen",
              "records", "ssets", "verify")

# every name the package exported when it imported all its submodules
EXPORTED = {
    "chaincx": ("ChainComplex", "ChainMap", "betti_numbers", "hom_complex",
                "homology", "is_quasi_iso", "make_chain_map", "make_complex",
                "power", "product_total"),
    "diagrams": ("ChainDiagram", "FinSetDiagram", "restrict"),
    "endkan": ("coend_finset", "co_yoneda_check", "end_chain", "end_finset",
               "finset_colimit", "finset_limit", "lan", "lan_via_coend",
               "nat_trans_bruteforce", "ran", "ran_via_end"),
    "exactalg": ("RationalMatrix", "quotient_basis", "rank_kernel", "solve"),
    "fincat": ("DegreeFunction", "FinCategory", "FunctorData", "comma_over",
               "comma_under_functor", "is_direct", "opposite", "product",
               "validate_category", "validate_functor"),
    "holim": ("bk_holim", "change_of_diagrams_iso", "check_homotopy_initial",
              "comparison_map", "fat_tot", "homotopy_pullback"),
    "oracle": ("SimplicialFrame", "boundary", "check_reedy_fibrant",
               "equalizer_kernel", "fibrant_frame", "fubini_check",
               "holim_we_invariance", "matching_object"),
    "ssets": ("SemiSimplicialSet", "SSetMap", "Weight",
              "check_point_resolution", "homology_contractible", "nerve",
              "nerve_of_comma_under", "nerve_weight", "normalized_chains",
              "standard_simplex"),
}


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


# an expression, in the child, for the engine submodules it has loaded
LOADED = ("sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('holim_engine.'))")


def test_package_import_loads_no_submodule():
    out = json.loads(_run(
        "import json, sys\n"
        "import holim_engine\n"
        f"loaded = {LOADED}\n"
        "unbound = [m for m in %r\n"
        "           if getattr(holim_engine, m, None) is None]\n"
        "print(json.dumps([loaded, unbound]))\n" % (SUBMODULES,)))
    assert out == [[], list(SUBMODULES)]


def test_submodule_attribute_appears_only_on_import():
    # bench/spans.py reads a missing attribute as "not imported yet"
    out = json.loads(_run(
        "import json\n"
        "import holim_engine\n"
        "from holim_engine import FinCategory, RationalMatrix, exactalg\n"
        "before = [getattr(holim_engine, m, None) is None\n"
        "          for m in ('fincat', 'exactalg', 'holim')]\n"
        "from holim_engine import bk_holim\n"
        "import holim_engine.holim as mod\n"
        "print(json.dumps([before, holim_engine.holim is mod,\n"
        "                  holim_engine.bk_holim is mod.bk_holim]))\n"))
    assert out == [[False, False, True], True, True]


# the modules every command loads: parsing a workspace needs these
CORE = {"chaincx", "cli", "diagrams", "dsl", "errors", "exactalg", "fincat",
        "records"}
# no command loads these but `verify`, which loads only the first
NEVER = ("verify", "oracle", "printer")
FINSET = ("holim", "ssets", "randgen") + NEVER
HOLIM = ("endkan", "randgen") + NEVER


@pytest.mark.parametrize("fname,cmd,absent", [
    ("arrow.hle", "lim S", FINSET),
    ("arrow.hle", "colim S", FINSET),
    ("arrow.hle", "lan ia P", FINSET),
    ("arrow.hle", "ran ia P", FINSET),
    ("arrow.hle", "homology Cone", ("endkan",) + FINSET),
    ("hom_end.hle", "end H", FINSET),
    ("hom_end.hle", "coend H", FINSET),
    ("arrow.hle", "nerve C", ("endkan", "holim", "randgen") + NEVER),
    ("cospan.hle", "holim Loop", HOLIM),
    ("cospan.hle", "fattot Loop --depth 4", HOLIM),
    ("arrow.hle", "verify all", NEVER[1:]),
    ("cospan.hle", "hopullback Glue", HOLIM),
    ("arrow.hle", "hoinitial ia", HOLIM),
    ("arrow.hle", "compare-holim ia D", HOLIM),
])
def test_cli_command_loads_only_what_it_runs(fname, cmd, absent):
    # a command's own flags follow its first " --"
    name, _, flags = cmd.partition(" --")
    argv = [str(CORPUS / fname), "--cmd", name] + \
        (("--" + flags).split() if flags else [])
    out = json.loads(_run(
        "import contextlib, io, json, sys\n"
        "from holim_engine import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED},\n"
        "                  [m for m in ('dataclasses', 'inspect')\n"
        "                   if m in sys.modules]]))\n"))
    code, loaded, stdlib = out
    assert code == 0
    assert not set(absent) & set(loaded), loaded
    assert CORE <= set(loaded)
    assert stdlib == []


@pytest.mark.parametrize("fname,cmd", [("arrow.hle", "verify all"),
                                       ("cospan.hle", "holim Loop")])
def test_the_entry_point_compiles_each_engine_module_once(fname, cmd):
    # under `python -m holim_engine.cli` the command module is
    # `__main__`: importing `holim_engine.cli` as well would compile it a
    # second time, with a second `Report` class
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "holim_engine.cli",
         str(CORPUS / fname), "--cmd", cmd], capture_output=True, text=True,
        env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in res.stderr.splitlines()
                if line.startswith("import time:")]
    engine = [m for m in imported if m.split(".")[0] == "holim_engine"]
    assert "holim_engine.cli" not in engine
    assert len(engine) == len(set(engine)), engine
    assert CORE - {"cli"} <= {m.partition(".")[2] for m in engine}


def test_every_exported_name_resolves_to_its_submodule_object():
    names = {name: mod for mod, ns in EXPORTED.items() for name in ns}
    out = json.loads(_run(
        "import importlib, json\n"
        "import holim_engine\n"
        "names = %r\n"
        "listed = set(holim_engine.__all__)\n"
        "shown = set(dir(holim_engine))\n"
        "bad = [n for n, m in sorted(names.items())\n"
        "       if getattr(holim_engine, n) is not getattr(\n"
        "           importlib.import_module('holim_engine.' + m), n)\n"
        "       or n not in listed or n not in shown]\n"
        "from holim_engine import *\n"
        "print(json.dumps([bad, sorted(listed),\n"
        "                  all(n in globals() for n in names)]))\n" % names))
    bad, listed, starred = out
    assert bad == []
    assert listed == sorted(names)
    assert starred
    with pytest.raises(AttributeError):
        holim_engine.no_such_name


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert _run(code) == "{0: 1}\n"


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for tgt in targets for n in ast.walk(tgt)
                      if isinstance(n, ast.Name)}
    return names


def _imports_oracle(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            mods = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "oracle" for m in mods):
            return True
    return False


def test_oracle_is_imported_by_no_engine_module_and_shadows_none():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (SRC / "holim_engine").glob("*.py")}
    oracle = trees.pop("oracle")
    assert sorted(m for m, tree in trees.items() if _imports_oracle(tree)) \
        == []
    production = set().union(*map(_top_level_names, trees.values()))
    assert _top_level_names(oracle) & production == set()


def _bound_names(node):
    """The names an import statement binds."""
    for alias in node.names:
        if isinstance(node, ast.Import) and alias.asname is None:
            yield alias.name.split(".")[0]
        else:
            yield alias.asname or alias.name


def test_every_imported_name_is_used_in_its_module():
    """A name an engine module imports is read somewhere in that module,
    unless the import statement's first line says `# noqa: F401`, as
    flake8 reads it (names imported back to resolve under the importing
    module too)."""
    stale = []
    for path in sorted((SRC / "holim_engine").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            stale += [f"{path.name}: {name}" for name in _bound_names(node)
                      if name not in used]
    assert stale == []
