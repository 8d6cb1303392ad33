"""The traced pass's wrappers hit the real call sites of every workload.

Runs each workload once, traced, at reduced size (about 20 s in all):

    python3 -m pytest perfbench/test_spans.py -q
"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.setup(seed=1, scale=0.05)
        rec = spans.Recorder()
        restore, missing = spans.install(rec)
        start = time.perf_counter()
        try:
            wl.run(inputs)
        finally:
            wall = time.perf_counter() - start
            spans.uninstall(restore)
        assert missing == []
        out[name] = (rec, wall)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_layer_of_the_workload_fires(traced, name):
    rec, wall = traced[name]
    lay = rec.layer_metrics(wall)
    silent = [la for la in WORKLOADS[name].layers if lay[f"{la}.calls"] == 0]
    assert silent == []
    self_sum = sum(lay[f"{la}.self_s"] for la in spans.LAYERS)
    assert self_sum + lay["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)


def test_every_call_site_fires_in_some_workload(traced):
    fired = set()
    for rec, _ in traced.values():
        fired |= set(rec.site_calls)
    assert sorted(set(spans.SITES) - fired) == []


def test_uninstall_restores_the_original_functions():
    import importlib

    iv = importlib.import_module("volterra_deviations.implied_vol")
    kn = importlib.import_module("volterra_deviations.kernels")
    before = (iv.simulate, kn.KernelSpec.__dict__["moment0"])
    restore, _ = spans.install(spans.Recorder())
    assert iv.simulate is not before[0]
    spans.uninstall(restore)
    assert (iv.simulate, kn.KernelSpec.__dict__["moment0"]) == before
