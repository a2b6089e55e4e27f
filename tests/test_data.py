import os
from pathlib import Path

import numpy as np
import pytest

from style_recal.data import (
    CIFAR_MEAN,
    CIFAR_STD,
    DataError,
    Dataset,
    SynthStyleSpec,
    augment,
    load_cifar10,
    load_dataset,
    save_dataset,
    synth_class_targets,
    synth_style,
)


def write_fake_batch(path, records):
    """records: list of (label, pixels[3072] uint8)."""
    blob = bytearray()
    for label, pixels in records:
        blob.append(label)
        blob.extend(pixels.tobytes())
    path.write_bytes(bytes(blob))


def make_fake_cifar_dir(tmp_path, n_per_batch=2):
    rng = np.random.default_rng(0)
    d = tmp_path / "cifar-10-batches-bin"
    d.mkdir()
    stored = []
    for i in range(1, 6):
        records = [
            (int(rng.integers(0, 10)), rng.integers(0, 256, size=3072).astype(np.uint8))
            for _ in range(n_per_batch)
        ]
        stored.extend(records)
        write_fake_batch(d / f"data_batch_{i}.bin", records)
    test_records = [(3, rng.integers(0, 256, size=3072).astype(np.uint8))]
    write_fake_batch(d / "test_batch.bin", test_records)
    return tmp_path, stored, test_records


class TestCifarLoader:
    def test_roundtrip_first_record(self, tmp_path):
        root, stored, _ = make_fake_cifar_dir(tmp_path)
        ds = load_cifar10(root, split="train", normalize=False)
        label, pixels = stored[0]
        assert ds.labels[0] == label
        np.testing.assert_allclose(
            ds.images[0], pixels.reshape(3, 32, 32).astype(np.float32) / 255.0, rtol=1e-6
        )

    def test_counts(self, tmp_path):
        root, stored, test_records = make_fake_cifar_dir(tmp_path, n_per_batch=4)
        assert len(load_cifar10(root, split="train")) == 20
        assert len(load_cifar10(root, split="test")) == len(test_records)

    def test_normalization_constants_applied(self, tmp_path):
        root, stored, _ = make_fake_cifar_dir(tmp_path)
        raw = load_cifar10(root, split="train", normalize=False).images
        norm = load_cifar10(root, split="train").images
        mean = np.asarray(CIFAR_MEAN, dtype=np.float32).reshape(1, 3, 1, 1)
        std = np.asarray(CIFAR_STD, dtype=np.float32).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(norm, (raw - mean) / std, rtol=1e-5)

    def test_truncated_file_rejected(self, tmp_path):
        d = tmp_path / "cifar-10-batches-bin"
        d.mkdir()
        for i in range(1, 6):
            (d / f"data_batch_{i}.bin").write_bytes(b"\x00" * 3073)
        (d / "data_batch_1.bin").write_bytes(b"\x00" * 3000)  # not a record multiple
        with pytest.raises(DataError, match="3073"):
            load_cifar10(tmp_path, split="train")

    def test_bad_label_reports_offset(self, tmp_path):
        d = tmp_path / "cifar-10-batches-bin"
        d.mkdir()
        rng = np.random.default_rng(1)
        good = (2, rng.integers(0, 256, size=3072).astype(np.uint8))
        bad = (11, rng.integers(0, 256, size=3072).astype(np.uint8))
        for i in range(1, 6):
            write_fake_batch(d / f"data_batch_{i}.bin", [good, bad])
        with pytest.raises(DataError, match="record 1"):
            load_cifar10(tmp_path, split="train")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no binary batch files"):
            load_cifar10(tmp_path / "nowhere")

    @pytest.mark.skipif(
        not os.environ.get("STYLE_RECAL_DATA")
        or not any(
            (Path(os.environ.get("STYLE_RECAL_DATA", "")) / sub / "data_batch_1.bin").exists()
            for sub in ("", "cifar-10-batches-bin")
        ),
        reason="real 32x32 batch data not available",
    )
    def test_real_data_split_sizes(self):
        root = os.environ["STYLE_RECAL_DATA"]
        assert len(load_cifar10(root, "train")) == 50000
        assert len(load_cifar10(root, "test")) == 10000


class TestSynthStyle:
    def test_byte_identical_per_seed(self):
        spec = SynthStyleSpec(seed=42)
        a = synth_style(spec)
        b = synth_style(spec)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_disjoint_pixels_same_labels(self):
        a = synth_style(SynthStyleSpec(seed=1))
        b = synth_style(SynthStyleSpec(seed=2))
        assert a.images.tobytes() != b.images.tobytes()
        np.testing.assert_array_equal(np.bincount(a.labels), np.bincount(b.labels))

    def test_two_class_mean_sign_recovers_labels(self):
        spec = SynthStyleSpec(
            num_classes=2, per_class=32, class_means=(-1.0, 1.0), class_stds=(0.8, 0.8), jitter=0.05
        )
        ds = synth_style(spec)
        pooled_mean = ds.images.mean(axis=(1, 2, 3))
        assert np.array_equal((pooled_mean > 0).astype(np.int64), ds.labels)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_style_pool_nearest_neighbor_oracle_is_perfect(self, seed):
        spec = SynthStyleSpec(seed=seed)
        ds = synth_style(spec)
        targets = synth_class_targets(spec)  # (K, 2)
        mu = ds.images.mean(axis=(2, 3)).mean(axis=1)
        sd = ds.images.std(axis=(2, 3)).mean(axis=1)
        feats = np.stack([mu, sd], axis=1)
        dists = np.linalg.norm(feats[:, None, :] - targets[None, :, :], axis=2)
        pred = dists.argmin(axis=1)
        assert (pred == ds.labels).all()

    def test_inseparable_spec_rejected(self):
        with pytest.raises(DataError, match="separated"):
            SynthStyleSpec(
                num_classes=2, class_means=(0.0, 0.1), class_stds=(1.0, 1.0), jitter=0.1
            )

    def test_nonpositive_std_target_rejected(self):
        with pytest.raises(DataError, match="positive"):
            SynthStyleSpec(num_classes=2, class_means=(-1, 1), class_stds=(0.05, 1.0), jitter=0.1)

    @pytest.mark.parametrize("field,value", [
        ("num_classes", 0), ("per_class", 0), ("size", 1), ("channels", 0), ("jitter", -0.01),
    ])
    def test_unusable_extent_or_jitter_rejected(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be >= .*, got {value}"):
            SynthStyleSpec(**{field: value})

    def test_smallest_accepted_spec_is_finite(self):
        ds = synth_style(SynthStyleSpec(num_classes=1, per_class=1, size=2, channels=1, jitter=0.0))
        assert ds.images.shape == (1, 1, 2, 2)
        assert np.isfinite(ds.images).all()

    def test_label_is_function_of_channel_stats(self):
        spec = SynthStyleSpec(seed=9)
        ds = synth_style(spec)
        # per-image per-channel stats hit the jittered target, identical across channels
        mu_c = ds.images.mean(axis=(2, 3))
        assert np.abs(mu_c - mu_c.mean(axis=1, keepdims=True)).max() < 1e-5

    def test_splits_differ(self):
        spec = SynthStyleSpec(seed=3)
        tr = synth_style(spec, "train")
        te = synth_style(spec, "test")
        assert tr.images.tobytes() != te.images.tobytes()


class TestAugment:
    def test_none_policy_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
        assert augment(x, "none", np.random.default_rng(1)) is x

    def test_center_crop_recovers_original(self):
        x = np.random.default_rng(2).normal(size=(1, 3, 8, 8)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (4, 4), (4, 4)))
        crop = padded[0, :, 4:12, 4:12]
        np.testing.assert_array_equal(crop, x[0])

    def test_double_flip_identity(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8)).astype(np.float32)
        flipped = x[:, :, :, ::-1]
        np.testing.assert_array_equal(flipped[:, :, :, ::-1], x)

    def test_shape_and_labels_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
        out = augment(x, "pad-crop-flip", rng)
        assert out.shape == x.shape

    def test_unknown_policy_rejected(self):
        with pytest.raises(DataError):
            augment(np.zeros((1, 3, 4, 4), dtype=np.float32), "mixup", np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        x = np.random.default_rng(5).normal(size=(4, 3, 8, 8)).astype(np.float32)
        a = augment(x, "pad-crop-flip", np.random.default_rng(7))
        b = augment(x, "pad-crop-flip", np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


def test_batches_are_views_in_dataset_order():
    from style_recal.data import iterate_batches

    ds = synth_style(SynthStyleSpec(seed=0, per_class=5, size=8))
    batches = list(iterate_batches(ds, 8))
    assert [len(labels) for _, labels in batches] == [8, 8, 4]
    assert all(np.shares_memory(images, ds.images) for images, _ in batches)
    np.testing.assert_array_equal(np.concatenate([images for images, _ in batches]), ds.images)
    np.testing.assert_array_equal(np.concatenate([labels for _, labels in batches]), ds.labels)


@pytest.mark.parametrize("batch_size", [0, -4])
def test_batch_size_below_one_rejected(batch_size):
    from style_recal.data import iterate_batches

    ds = synth_style(SynthStyleSpec(seed=0, per_class=5, size=8))
    with pytest.raises(ValueError, match=f"batch size must be >= 1, got {batch_size}"):
        iterate_batches(ds, batch_size)


class TestDatasetContainer:
    def test_save_load_roundtrip(self, tmp_path):
        ds = synth_style(SynthStyleSpec(seed=0, per_class=4))
        path = tmp_path / "ds.bin"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.images, ds.images)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes and loaded.split == ds.split

    def test_empty_set_keeps_its_recorded_classes(self, tmp_path):
        empty = Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), "test", 4)
        save_dataset(tmp_path / "empty.bin", empty)
        loaded = load_dataset(tmp_path / "empty.bin")
        assert (len(loaded), loaded.num_classes, loaded.split) == (0, 4, "test")

    def test_wrong_kind_rejected(self, tmp_path):
        from style_recal.container import write_container

        path = tmp_path / "x.bin"
        write_container(path, {"images": np.zeros((1, 1, 2, 2), dtype=np.float32)}, {"kind": "other"})
        with pytest.raises(DataError):
            load_dataset(path)

    def test_labels_must_be_one_class_id_per_image(self):
        with pytest.raises(DataError, match=r"labels have shape \(2, 1\)"):
            Dataset(np.zeros((2, 3, 4, 4), np.float32), np.zeros((2, 1), np.int64), "train", 4)

    def test_label_range_validated(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(
                images=np.zeros((2, 3, 4, 4), dtype=np.float32),
                labels=np.array([0, 7], dtype=np.int64),
                split="train",
                num_classes=4,
            )
