"""The benchmark's tracer (perfbench/spans.py) replaces msrnas functions by
name; a refactor that drops or renames one must fail here, not in every
traced benchmark run. Only reads perfbench/."""

import importlib.util
import os

import numpy as np
import pytest

from msrnas import convolution, spectral, supernet, train
from msrnas.spectral import SpectralConfig
from msrnas.supernet import SupernetConfig, build_supernet

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


@pytest.fixture
def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names():
    return (spectral.power_iteration, spectral.conv2d_forward,
            spectral.conv2d_transpose_forward, convolution.conv2d_forward,
            convolution.conv2d_weight_grad, supernet.stable_rank,
            supernet.Supernet.adjust_all, train.collect_rank_table)


def test_tracer_installs_and_uninstalls(spans_module):
    originals = patched_names()
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        assert all(now is not before
                   for now, before in zip(patched_names(), originals))
    finally:
        tracer.uninstall()
    assert all(now is before for now, before in zip(patched_names(), originals))


def test_traced_adjust_runs_one_power_iteration_per_group(spans_module):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        net.begin_step()
        net.adjust_all()
        supernet.collect_rank_table(net)
    finally:
        tracer.uninstall()
    counts = {}
    for nid, *_ in tracer.spans:
        counts[tracer.names[nid]] = counts.get(tracer.names[nid], 0) + 1
    assert counts["supernet.adjust_all"] == 1
    assert counts["spectral.stable_rank"] == len(net.fin_groups)
    assert counts["spectral.power_iteration"] == (
        len(net.handle_groups) + len(net.fin_groups))
