"""CIFAR binary format, splitting, synthetic corpus, and batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnas.cli import main
from msrnas.data import (
    CIFAR_RECORD_BYTES,
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    Dataset,
    SplitSpec,
    batches,
    flip_horizontal,
    load_cifar10,
    pad_crop,
    read_cifar_batch,
    split_train_val,
    synth_dataset,
)
from msrnas.errors import ArgumentError, ConfigError, FormatError

from conftest import write_cifar_batch


def fake_batch_bytes(rng, n=10):
    labels = rng.integers(0, 10, n, dtype=np.uint8)
    pixels = rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)
    records = np.concatenate([labels[:, None], pixels.reshape(n, -1)], axis=1)
    return labels, pixels, records.tobytes()


def test_read_batch_counts_records(tmp_path, rng):
    labels, pixels, raw = fake_batch_bytes(rng, n=10)
    path = tmp_path / "batch.bin"
    path.write_bytes(raw)
    got_labels, got_pixels = read_cifar_batch(path)
    assert len(got_labels) == 10
    np.testing.assert_array_equal(got_labels, labels)
    np.testing.assert_array_equal(got_pixels, pixels)


def test_label_byte_seven(tmp_path):
    record = bytes([7]) + bytes(3072)
    path = tmp_path / "one.bin"
    path.write_bytes(record)
    labels, _ = read_cifar_batch(path)
    assert labels[0] == 7


def test_label_out_of_range_rejected(tmp_path, rng, capsys):
    labels = np.array([3, 200, 9], dtype=np.uint8)
    pixels = rng.integers(0, 256, (3, 3, 32, 32), dtype=np.uint8)
    write_cifar_batch(tmp_path / "data_batch_1.bin", labels, pixels)
    with pytest.raises(FormatError, match="record 1 .*label 200"):
        read_cifar_batch(tmp_path / "data_batch_1.bin")
    # Through the CLI: every batch is valid except record 2 of the last one.
    labels[1] = 4
    for name in (*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE):
        write_cifar_batch(tmp_path / name, labels, pixels)
    labels[2] = 10
    write_cifar_batch(tmp_path / CIFAR_TRAIN_FILES[-1], labels, pixels)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"data.kind = cifar10\ndata.cifar_dir = {tmp_path}\n"
                   f"run.output_dir = {tmp_path / 'run'}\n")
    assert main(["search", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[format]: ") and "record 2 " in err
    assert "has label 10," in err
    assert err.count("\n") == 1


def test_truncated_file_reports_offset(tmp_path, rng):
    _, _, raw = fake_batch_bytes(rng, n=3)
    path = tmp_path / "bad.bin"
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError, match="byte offset"):
        read_cifar_batch(path)


def test_roundtrip_byte_identical(tmp_path, rng):
    _, _, raw = fake_batch_bytes(rng, n=7)
    src = tmp_path / "src.bin"
    src.write_bytes(raw)
    labels, pixels = read_cifar_batch(src)
    dst = tmp_path / "dst.bin"
    write_cifar_batch(dst, labels, pixels)
    assert dst.read_bytes() == raw


def test_load_cifar10_directory(tmp_path, rng):
    for i in range(1, 6):
        _, _, raw = fake_batch_bytes(rng, n=4)
        (tmp_path / f"data_batch_{i}.bin").write_bytes(raw)
    _, _, raw = fake_batch_bytes(rng, n=6)
    (tmp_path / "test_batch.bin").write_bytes(raw)
    train, test = load_cifar10(tmp_path)
    assert len(train) == 20 and len(test) == 6
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0
    np.testing.assert_array_equal(test.mean, train.mean)


def test_load_cifar10_missing_file(tmp_path):
    with pytest.raises(FormatError, match="missing"):
        load_cifar10(tmp_path)


def make_dataset(rng, m=50, h=8, w=8):
    return Dataset(
        images=rng.random((m, 3, h, w)).astype(np.float64),
        labels=rng.integers(0, 4, m).astype(np.int64),
    )


def test_split_sizes_paper_ratio(rng):
    ds = make_dataset(rng, m=50)
    train, val = split_train_val(ds, SplitSpec(train_fraction=0.8, seed=0))
    assert len(train) == 40 and len(val) == 10


def test_split_tiny(rng):
    ds = make_dataset(rng, m=5)
    train, val = split_train_val(ds, SplitSpec(train_fraction=0.8, seed=3))
    assert len(train) == 4 and len(val) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.floats(0.05, 0.95), st.integers(0, 2**31 - 1))
def test_split_disjoint_exhaustive_deterministic(m, fraction, seed):
    rng = np.random.Generator(np.random.PCG64(99))
    ds = make_dataset(rng, m=m)
    spec = SplitSpec(train_fraction=fraction, seed=seed)
    if int(fraction * m) == 0:
        with pytest.raises(ArgumentError, match="non-empty"):
            split_train_val(ds, spec)
        return
    a_train, a_val = split_train_val(ds, spec)
    b_train, b_val = split_train_val(ds, spec)
    np.testing.assert_array_equal(a_train.images, b_train.images)
    np.testing.assert_array_equal(a_val.labels, b_val.labels)
    assert len(a_train) == int(fraction * m)
    assert len(a_train) + len(a_val) == m
    seen = np.concatenate([a_train.images, a_val.images])
    assert seen.shape[0] == m
    combined = {arr.tobytes() for arr in seen}
    original = {arr.tobytes() for arr in ds.images}
    assert combined == original


def test_split_rejects_empty_train_side(rng):
    ds = make_dataset(rng, m=2)
    with pytest.raises(ArgumentError, match="0 train and 2 validation"):
        split_train_val(ds, SplitSpec(train_fraction=0.4))


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(train_fraction=1.0)


def test_synth_counts_and_range():
    ds = synth_dataset(classes=4, samples_per_class=250, height=8, width=8, seed=0)
    assert len(ds) == 1000
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(np.unique(ds.labels)) == {0, 1, 2, 3}


def test_synth_zero_noise_identical_within_class():
    ds = synth_dataset(classes=3, samples_per_class=4, height=8, width=8,
                       seed=1, noise=0.0)
    for k in range(3):
        imgs = ds.images[ds.labels == k]
        for other in imgs[1:]:
            np.testing.assert_array_equal(imgs[0], other)


def test_synth_linear_probe_beats_chance():
    ds = synth_dataset(classes=4, samples_per_class=50, height=8, width=8, seed=2)
    flat = ds.images.reshape(len(ds), -1)
    flat = (flat - flat.mean(axis=0)) / (flat.std(axis=0) + 1e-8)
    onehot = np.eye(4)[ds.labels]
    w, *_ = np.linalg.lstsq(flat, onehot, rcond=None)
    acc = float((flat @ w).argmax(axis=1).__eq__(ds.labels).mean())
    assert acc > 0.5  # chance is 0.25


def test_synth_validation():
    with pytest.raises(ArgumentError):
        synth_dataset(classes=1, samples_per_class=5)
    with pytest.raises(ArgumentError):
        synth_dataset(classes=2, samples_per_class=5, height=4)


def test_batches_cover_once_with_ragged_tail(rng):
    ds = make_dataset(rng, m=100)
    sizes = [len(labels) for _, labels in batches(ds, 32, shuffle_seed=5)]
    assert sizes == [32, 32, 32, 4]


def test_batches_deterministic_same_seed(rng):
    ds = make_dataset(rng, m=40)
    a = [(x.copy(), y.copy()) for x, y in batches(ds, 16, shuffle_seed=9)]
    b = [(x.copy(), y.copy()) for x, y in batches(ds, 16, shuffle_seed=9)]
    for (xa, ya), (xb, yb) in zip(a, b):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)


def test_batches_augmented_deterministic_and_normalized(rng):
    ds = make_dataset(rng, m=30)
    a = [x.copy() for x, _ in batches(ds, 10, shuffle_seed=4, augment=True)]
    b = [x.copy() for x, _ in batches(ds, 10, shuffle_seed=4, augment=True)]
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa, xb)


def test_batches_cover_all_labels(rng):
    ds = make_dataset(rng, m=33)
    seen = np.concatenate([y for _, y in batches(ds, 8, shuffle_seed=1)])
    np.testing.assert_array_equal(np.sort(seen), np.sort(ds.labels))


def test_flip_is_involution(rng):
    imgs = rng.random((4, 3, 6, 6))
    np.testing.assert_array_equal(flip_horizontal(flip_horizontal(imgs)), imgs)


def test_pad_crop_zero_offset_recovers_with_pad(rng):
    imgs = rng.random((2, 3, 6, 6))
    out = pad_crop(imgs, np.full((2, 2), 4), pad=4)
    np.testing.assert_array_equal(out, imgs)


def test_augmentation_preserves_range_and_labels(rng):
    ds = make_dataset(rng, m=20)
    for x, y in batches(ds, 10, shuffle_seed=3, augment=True):
        assert x.shape[2:] == ds.images.shape[2:]
        assert np.isfinite(x).all()
        assert ((0 <= y) & (y < 4)).all()
