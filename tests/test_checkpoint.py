"""Binary container format and network checkpoint round-trips."""

import hashlib

import numpy as np
import pytest

from msrnas.autodiff import Tensor
from msrnas.checkpoint import (
    MAGIC,
    _state_records,
    atomic_open,
    load_checkpoint,
    load_tensors,
    save_checkpoint,
    save_tensors,
)
from msrnas.derive import rank_table_to_text
from msrnas.errors import FormatError
from msrnas.layers import cross_entropy
from msrnas.optim import TrainHyper, sgd_momentum_step
from msrnas.spectral import SpectralConfig
from msrnas.supernet import SupernetConfig, build_supernet, collect_rank_table

from conftest import materialize_conv_matrix


def test_tensor_container_roundtrip(tmp_path, rng):
    tensors = {
        "a/scalar": np.asarray(3.5, dtype=np.float64),
        "b/matrix": rng.standard_normal((3, 4)).astype(np.float32),
        "c/cube": rng.standard_normal((2, 2, 2)),
    }
    path = tmp_path / "t.msrn"
    save_tensors(path, tensors)
    assert path.read_bytes()[:4] == MAGIC
    back = load_tensors(path)
    assert list(back.keys()) == list(tensors.keys())
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])
        assert back[name].dtype == tensors[name].dtype


def test_container_rejects_non_float(tmp_path):
    with pytest.raises(FormatError, match="dtype"):
        save_tensors(tmp_path / "x.msrn", {"ints": np.arange(4)})


def test_write_that_raises_midway_keeps_the_earlier_file(tmp_path, rng):
    path = tmp_path / "t.msrn"
    save_tensors(path, {"w": rng.standard_normal((3, 3))})
    before = path.read_bytes()
    # The first record is written before the second one's dtype is refused.
    with pytest.raises(FormatError, match="dtype"):
        save_tensors(path, {"v": rng.standard_normal(5), "ints": np.arange(4)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.msrn"]

    text = tmp_path / "metrics.csv"
    with atomic_open(text) as fh:
        fh.write("epoch\n1\n")
    with pytest.raises(RuntimeError):
        with atomic_open(text) as fh:
            fh.write("epoch\n")
            raise RuntimeError("killed")
    assert text.read_text(encoding="utf-8") == "epoch\n1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "t.msrn"]


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.msrn"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError, match="magic"):
        load_tensors(path)


def test_container_rejects_truncation(tmp_path, rng):
    path = tmp_path / "t.msrn"
    save_tensors(path, {"w": rng.standard_normal((8, 8))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(FormatError):
        load_tensors(path)


def test_checkpoint_restores_network_state(tmp_path, rng):
    # Every field differs from its default, so a dropped metadata record shows.
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 12))
    scfg = SpectralConfig(target_norm=1.5, iterations=2, rank_iterations=7, seed=11)
    net = build_supernet(cfg, scfg, dtype=np.float64, seed=3)
    net.begin_step()
    net.adjust_all()
    for p in net.parameters():
        p.momentum += 0.5
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=7)

    restored, epoch = load_checkpoint(path)
    assert epoch == 7
    assert restored.cfg == cfg
    assert restored.spectral_cfg == scfg
    assert restored.dtype == np.float64
    originals = dict(net.named_parameters())
    for name, param in restored.named_parameters():
        np.testing.assert_array_equal(param.data, originals[name].data)
        np.testing.assert_array_equal(param.momentum, originals[name].momentum)
    orig_buffers = dict(net.named_buffers())
    for name, buf in restored.named_buffers():
        np.testing.assert_array_equal(buf, orig_buffers[name])
    # Only iterated handles carry state: a 1x1 conv's vector is rebuilt
    # from its weight at the next adjustment.
    orig_handles = {h.name: h for h in net.handles}
    iterated = [h for h in restored.handles if not h.spec.is_pointwise]
    assert iterated
    for handle in iterated:
        np.testing.assert_array_equal(handle.vector, orig_handles[handle.name].vector)


def test_checkpoint_file_stable_bytes(tmp_path):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    a = tmp_path / "a.msrn"
    b = tmp_path / "b.msrn"
    save_checkpoint(a, net, epoch=0)
    save_checkpoint(b, net, epoch=0)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_record_names_are_pinned():
    # Module paths are the checkpoint format: renaming a module, or
    # registering one conv under two names, changes this list.
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    names = [name for name, _ in _state_records(net)]
    assert len(names) == 1053
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
        "c3def98ed0da3101bd3fa407584b7bf6dcc9e7d91d8e21b6ff00511b846de628")


def test_checkpoint_stores_no_derived_vector(tmp_path):
    # A padding-0 1x1 conv's vector is rebuilt from its weight at every
    # adjustment, so storing it only grows the file (by 122246 bytes here).
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=0)
    assert path.stat().st_size == 441710
    stored = {k.removeprefix("pivec/") for k in load_tensors(path) if k.startswith("pivec/")}
    pointwise = {h.name for h in net.handles if h.spec.is_pointwise}
    assert len(pointwise) == 97
    assert stored == {h.name for h in net.handles} - pointwise


@pytest.mark.parametrize("prefix", ["param", "momentum", "buffer", "pivec"])
def test_checkpoint_missing_param_detected(tmp_path, prefix):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=0)
    tensors = load_tensors(path)
    victim = next(k for k in tensors if k.startswith(f"{prefix}/"))
    del tensors[victim]
    save_tensors(path, tensors)
    with pytest.raises(FormatError, match=f"missing record '{victim}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("prefix", ["param", "momentum", "buffer", "pivec"])
def test_checkpoint_wrong_record_shape_detected(tmp_path, prefix):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=0)
    tensors = load_tensors(path)
    victim = next(k for k in tensors if k.startswith(f"{prefix}/"))
    tensors[victim] = np.concatenate([tensors[victim].ravel(), [0.0]]).astype(np.float32)
    save_tensors(path, tensors)
    with pytest.raises(FormatError, match=f"record '{victim}' shape"):
        load_checkpoint(path)


def test_checkpoint_with_pointwise_vectors_loads(tmp_path):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    net.begin_step()
    net.adjust_all()
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=1)
    tensors = load_tensors(path)
    # Files written while 1x1 vectors were stored list every handle's
    # vector, in handle order, after the buffers.
    state = {k: v for k, v in tensors.items() if not k.startswith("pivec/")}
    for handle in net.handles:
        state[f"pivec/{handle.name}"] = handle.vector
    save_tensors(path, state)
    restored, epoch = load_checkpoint(path)
    assert epoch == 1
    stored = dict(_state_records(restored))
    for key, array in _state_records(net):
        np.testing.assert_array_equal(stored[key], array)
    for handle in restored.handles:
        if handle.spec.is_pointwise:
            assert not np.any(handle.vector), handle.name


def descend(net, images: np.ndarray, labels: np.ndarray) -> None:
    """The rest of a training step: forward, backward, momentum SGD."""
    params = net.parameters()
    for p in params:
        p.zero_grad()
    cross_entropy(net(Tensor(images)), labels).backward()
    sgd_momentum_step(params, 0.05, TrainHyper())


def test_restored_network_steps_like_the_one_that_saved_it(tmp_path, rng):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=2)
    images = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    net.begin_step()
    net.adjust_all(iterations=net.spectral_cfg.rank_iterations)
    descend(net, images, labels)
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=1)
    restored, _ = load_checkpoint(path)

    images, labels = images[::-1].copy(), labels[::-1].copy()
    for each in (net, restored):
        each.begin_step()
        each.adjust_all()
    # Each rebuilt 1x1 vector attains its conv's exact norm (oracle: SVD of
    # the dense matrix view).
    pointwise = [h for h in restored.handles if h.spec.is_pointwise]
    assert len(pointwise) == 97
    for handle in pointwise:
        matrix = materialize_conv_matrix(handle.spec, handle.in_hw)
        sigma = np.linalg.svd(matrix, compute_uv=False)[0]
        a = handle.vector.reshape(-1).astype(np.float64)
        assert np.linalg.norm(matrix @ a) == pytest.approx(sigma, rel=1e-6), handle.name
    descend(net, images, labels)
    descend(restored, images, labels)

    originals = dict(net.named_parameters())
    for name, param in restored.named_parameters():
        np.testing.assert_array_equal(param.data, originals[name].data)
        np.testing.assert_array_equal(param.momentum, originals[name].momentum)
    orig_buffers = dict(net.named_buffers())
    for name, buf in restored.named_buffers():
        np.testing.assert_array_equal(buf, orig_buffers[name])
    orig_handles = {h.name: h for h in net.handles}
    for handle in restored.handles:
        np.testing.assert_array_equal(handle.vector, orig_handles[handle.name].vector)


def test_checkpoint_with_frobenius_kernel_key_loads(tmp_path):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=2)
    tensors = load_tensors(path)
    assert "meta/spectral/frobenius_kernel" not in tensors
    # Files written before the Frobenius mode was dropped carry this scalar.
    tensors["meta/spectral/frobenius_kernel"] = np.asarray(0.0)
    save_tensors(path, tensors)
    restored, epoch = load_checkpoint(path)
    assert epoch == 2
    assert restored.spectral_cfg == net.spectral_cfg
    originals = dict(net.named_parameters())
    for name, param in restored.named_parameters():
        np.testing.assert_array_equal(param.data, originals[name].data)


def test_checkpoint_with_input_channels_key_loads(tmp_path):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=3)
    tensors = load_tensors(path)
    assert "meta/net/input_channels" not in tensors
    # Files written while the input channel count was a setting carry it
    # after the class count.
    names = list(tensors)
    at = names.index("meta/net/num_classes") + 1
    names.insert(at, "meta/net/input_channels")
    tensors["meta/net/input_channels"] = np.asarray(3.0)
    save_tensors(path, {name: tensors[name] for name in names})
    restored, epoch = load_checkpoint(path)
    assert epoch == 3
    assert restored.cfg == cfg
    assert (rank_table_to_text(collect_rank_table(restored, epoch=epoch))
            == rank_table_to_text(collect_rank_table(net, epoch=epoch)))


def test_checkpoint_omits_gradients_and_ignores_stored_ones(tmp_path):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(8, 8))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=5)
    for p in net.parameters():
        p.ensure_grad()
    path = tmp_path / "ck.msrn"
    save_checkpoint(path, net, epoch=0)
    tensors = load_tensors(path)
    assert not any(k.startswith("grad/") for k in tensors)
    # Files written before gradients were dropped carry grad/* records.
    for name, param in net.named_parameters():
        tensors[f"grad/{name}"] = np.ones_like(param.data)
    save_tensors(path, tensors)
    restored, _ = load_checkpoint(path)
    originals = dict(net.named_parameters())
    for name, param in restored.named_parameters():
        np.testing.assert_array_equal(param.data, originals[name].data)
        assert param.grad is None
