"""The package's loading contract.

`import holim_engine` loads no submodule; each exported name is
imported from its submodule on first access, and a CLI command loads
only the engine modules it runs, and neither `dataclasses` nor
`inspect`.  Every case runs in a fresh interpreter, since
`sys.modules` is shared by all tests in this one.
"""

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

SUBMODULES = ("chaincx", "cli", "dsl", "endkan", "errors", "exactalg",
              "fincat", "holim", "randgen", "records", "ssets")

# every name the package exported when it imported all its submodules
EXPORTED = {
    "chaincx": ("ChainComplex", "ChainMap", "betti_numbers",
                "equalizer_kernel", "hom_complex", "homology",
                "is_quasi_iso", "make_chain_map", "make_complex", "power",
                "product_total"),
    "endkan": ("ChainDiagram", "FinSetDiagram", "coend_finset",
               "co_yoneda_check", "end_chain", "end_finset",
               "finset_colimit", "finset_limit", "fubini_check", "lan",
               "lan_via_coend", "nat_trans_bruteforce", "ran", "ran_via_end",
               "restrict"),
    "exactalg": ("RationalMatrix", "quotient_basis", "rank_kernel", "solve"),
    "fincat": ("DegreeFunction", "FinCategory", "FunctorData", "comma_over",
               "comma_under_functor", "is_direct", "opposite", "product",
               "validate_category", "validate_functor"),
    "holim": ("SimplicialFrame", "bk_holim", "change_of_diagrams_iso",
              "check_homotopy_initial", "check_reedy_fibrant",
              "comparison_map", "fat_tot", "fibrant_frame",
              "holim_we_invariance", "homotopy_pullback", "matching_object"),
    "ssets": ("SemiSimplicialSet", "SSetMap", "Weight", "boundary",
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


@pytest.mark.parametrize("fname,cmd,absent", [
    ("arrow.hle", "lim S", ("holim", "ssets", "randgen")),
    ("arrow.hle", "colim S", ("holim", "ssets", "randgen")),
    ("arrow.hle", "lan ia P", ("holim", "ssets", "randgen")),
    ("arrow.hle", "ran ia P", ("holim", "ssets", "randgen")),
    ("arrow.hle", "homology Cone", ("holim", "ssets", "randgen")),
    ("hom_end.hle", "end H", ("holim", "ssets", "randgen")),
    ("hom_end.hle", "coend H", ("holim", "ssets", "randgen")),
    ("arrow.hle", "nerve C", ("holim", "randgen")),
    ("cospan.hle", "holim Loop", ("randgen",)),
    ("cospan.hle", "fattot Loop --depth 4", ("randgen",)),
    ("arrow.hle", "verify all", ()),
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
    assert {"cli", "dsl", "endkan", "fincat"} <= set(loaded)
    assert stdlib == []


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
