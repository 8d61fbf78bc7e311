"""The benchmark replaces msrnas functions by name: its tracer
(perfbench/spans.py) the traced ones, its recorder (perfbench/bench.py) the
two step clocks. Its output checks (perfbench/checks.py) call msrnas by name
too. A refactor that drops or renames one, or changes how the training loop
calls them, must fail here, not in every benchmark run. Only reads
perfbench/."""

import importlib.util
import os

import numpy as np
import pytest

from msrnas import autodiff, convolution, layers, spectral, supernet, train
from msrnas.autodiff import Tensor
from msrnas.config import config_from_text
from msrnas.derive import derive_genotype
from msrnas.spectral import SpectralConfig
from msrnas.supernet import SupernetConfig, build_supernet

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans_module():
    return load_perfbench("spans")


def patched_names():
    return (spectral.power_iteration, spectral.conv2d_forward,
            spectral.conv2d_transpose_forward, convolution.conv2d_forward,
            convolution.conv2d_weight_grad, supernet.stable_rank,
            supernet.Supernet.adjust_all, train.collect_rank_table,
            train.save_checkpoint, train.sgd_momentum_step,
            autodiff.Tensor.backward, layers.Module.__call__)


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
    assert counts["spectral.stable_rank"] == len(net.fin_tags)
    # The rank table needs no power iteration.
    assert counts["spectral.power_iteration"] == len(net.handle_groups)


def test_traced_conv_spans_do_not_nest(spans_module, monkeypatch):
    """Each conv kernel call is one span: the adjoint must not reach the
    forward through a traced name, or the per-layer metrics count it twice."""
    adjoint_calls = []
    for owner in (convolution, spectral):
        adjoint = owner.conv2d_transpose_forward

        def counted(*args, _adjoint=adjoint, **kwargs):
            adjoint_calls.append(1)
            return _adjoint(*args, **kwargs)

        monkeypatch.setattr(owner, "conv2d_transpose_forward", counted)
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    images = np.random.default_rng(0).standard_normal((2, 3, 10, 10))
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        net.begin_step()
        net.adjust_all()
        loss = layers.cross_entropy(net(Tensor(images.astype(np.float32))),
                                    np.array([0, 1]))
        loss.backward()
    finally:
        tracer.uninstall()
    names = [tracer.names[nid] for nid, *_ in tracer.spans]
    nested = [(name, names[parent]) for (_, _, _, parent), name
              in zip(tracer.spans, names)
              if name.startswith("convolution.") and parent >= 0
              and names[parent].startswith("convolution.")]
    assert not nested
    adjoint_spans = sum(name.startswith("convolution.tr.") for name in names)
    assert adjoint_spans == len(adjoint_calls) > len(net.handle_groups)


def test_checks_converge_and_accept_an_adjusted_supernet():
    checks = load_perfbench("checks")
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    net.begin_step()
    net.adjust_all()
    checks.converge_sampled(net)
    name, ok, detail = checks.check_sigma(net)
    assert name == "sigma_oracle"
    assert ok, detail


TINY = """
data.classes = 3
data.samples_per_class = 10
data.test_samples_per_class = 5
data.height = 10
data.width = 10
net.cells = 3
net.nodes = 5
net.channels = 4
train.epochs = 1
train.batch_size = 8
spectral.rank_iterations = 10
data.augment = true
"""


def test_training_loop_keeps_the_recorder_contract(monkeypatch, tmp_path):
    """The recorder wraps ``train.batches`` and ``train.sgd_momentum_step``:
    a step runs from a training batch request (``shuffle_seed=`` given as a
    keyword, not None) to the SGD return, and held-out passes, which pass
    ``shuffle_seed=None``, are not steps. Search's spectral adjust must fall
    inside the step."""
    events = []
    batches, sgd = train.batches, train.sgd_momentum_step
    adjust_all = supernet.Supernet.adjust_all

    def recording_batches(*args, **kwargs):
        assert "shuffle_seed" in kwargs
        training = kwargs["shuffle_seed"] is not None
        events.append("epoch" if training else "held_out")
        for item in batches(*args, **kwargs):
            if training:
                events.append("batch")
            yield item

    def recording_sgd(*args, **kwargs):
        out = sgd(*args, **kwargs)
        events.append("sgd")
        return out

    def recording_adjust(net, *args, **kwargs):
        events.append("adjust")
        return adjust_all(net, *args, **kwargs)

    monkeypatch.setattr(train, "batches", recording_batches)
    monkeypatch.setattr(train, "sgd_momentum_step", recording_sgd)
    monkeypatch.setattr(supernet.Supernet, "adjust_all", recording_adjust)

    cfg = config_from_text(TINY)
    result = train.run_search(cfg, str(tmp_path / "search"))
    # 24 training samples in batches of 8; one validation pass.
    assert events == ["adjust"] + ["epoch"] + ["batch", "adjust", "sgd"] * 3 + ["held_out"]

    events.clear()
    train.run_eval(cfg, derive_genotype(result.final_table), str(tmp_path / "eval"))
    # 30 training samples; one test pass per epoch, which also gives the
    # final test loss and error.
    assert events == ["epoch"] + ["batch", "sgd"] * 4 + ["held_out"]
