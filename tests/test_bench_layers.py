"""The traced benchmark (`bench/spans.py`) wraps engine functions by
name; every name it lists must exist in the engine, or the traced run
crashes."""

import importlib
import importlib.util
import sys
from pathlib import Path

from holim_engine.exactalg import RationalMatrix

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_in_the_engine(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{modname}.{name}"
               for modname, names in spans.LAYERS.values()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"holim_engine.{modname}"), name, None))]
    missing += [f"RationalMatrix.{name}" for name in spans.MATRIX_METHODS
                if name not in RationalMatrix.__dict__]
    assert not missing
