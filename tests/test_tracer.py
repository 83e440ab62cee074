"""The benchmark tracer patches bentkit by name; every name must still exist."""

import importlib

import bentkit
import bentkit.cli
from oracles import PERFBENCH


def test_tracer_finds_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    original = bentkit.spreads.ps_minus
    tracer = importlib.import_module("tracer").Tracer(bentkit)
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
    assert bentkit.spreads.ps_minus is original
