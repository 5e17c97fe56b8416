"""Exact homotopy-limit computations over finite categories.

Finite categories with total composition tables, finite-set and
rational-chain-complex valued diagrams, ends/coends/Kan extensions,
nerves of loop-free categories, Bousfield-Kan homotopy limits and fat
totalizations, all in exact rational arithmetic.

The main entry points:

    fincat    -- categories, functors, commas, degree functions
    exactalg  -- exact rational matrices, kernels, quotients
    chaincx   -- chain complexes, hom complexes, powering
    ssets     -- semisimplicial sets, nerves, weights
    diagrams  -- finite-set and chain diagrams, their validators, restrict
    endkan    -- (co)limits, (co)ends, Kan extensions
    holim     -- bk_holim, fat_tot, comparison maps
    oracle    -- checks no command runs: frames, Fubini, invariance
    dsl, cli  -- the workspace text format and `holim-engine`
    printer   -- pretty_print, the text form `dsl.parse` reads back
    verify    -- the suites of `holim-engine verify`

Importing the package loads no submodule: each name below is imported
from its submodule on first access (PEP 562), so a CLI command loads
only the modules it runs.  Submodules are reached by importing them
(`from holim_engine import holim`), never through `__getattr__`, so
`getattr(holim_engine, "holim", None)` stays None until something
imports `holim_engine.holim`.
"""

from importlib import import_module

# submodule -> the names the package exports from it
_EXPORTS = {
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
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
