import functools

import numpy as np
import pytest

from style_recal.analysis import (
    AnalysisRecord,
    capture_record,
    correlation_matrix,
    load_record,
    prune_eval,
    prune_gate_transform,
    save_record,
    sum_squared_corr,
    top_activated,
    top_overlap,
)
from style_recal.data import Dataset, SynthStyleSpec, synth_style
from style_recal.models import ArchitectureConfig, StageSpec, build_resnet, parse_recalib
from style_recal.tensor import Tensor, relu
from style_recal.train import evaluate


def small_model(seed=0, recalib="srm"):
    cfg = ArchitectureConfig(
        stages=[StageSpec(2, 8, 1), StageSpec(1, 16, 2)],
        recalib=parse_recalib(recalib),
        num_classes=4,
    )
    return build_resnet(cfg, seed=seed)


def shuffled_subset(dataset, n, seed=0):
    idx = np.random.default_rng(seed).permutation(len(dataset))[:n]
    return Dataset(dataset.images[idx], dataset.labels[idx], dataset.split, dataset.num_classes)


def two_pass_pearson(a, b):
    """Direct scalar two-pass correlation oracle."""
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / len(a)
    va = sum((x - ma) ** 2 for x in a) / len(a)
    vb = sum((y - mb) ** 2 for y in b) / len(b)
    if va == 0 or vb == 0:
        return 0.0
    return cov / (va**0.5 * vb**0.5)


@pytest.fixture(scope="module")
def record():
    rng = np.random.default_rng(0)
    gates = {
        (0, 0): rng.uniform(0.01, 0.99, size=(20, 6)),
        (0, 1): rng.uniform(0.01, 0.99, size=(20, 6)),
        (1, 0): rng.uniform(0.01, 0.99, size=(20, 12)),
    }
    return AnalysisRecord(gates=gates, image_ids=np.arange(20, dtype=np.int64))


class TestRecordValidation:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            AnalysisRecord(
                gates={(0, 0): np.zeros((3, 2)), (0, 1): np.zeros((4, 2))},
                image_ids=np.arange(3, dtype=np.int64),
            )

    def test_image_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="image id"):
            AnalysisRecord(gates={(0, 0): np.zeros((3, 2))}, image_ids=np.arange(5, dtype=np.int64))

    def test_save_load_roundtrip(self, record, tmp_path):
        save_record(tmp_path / "r.bin", record)
        loaded = load_record(tmp_path / "r.bin")
        assert loaded.layers == record.layers
        for layer in record.layers:
            np.testing.assert_array_equal(loaded.gates[layer], record.gates[layer])


class TestCorrelation:
    def test_matches_two_pass_oracle(self, record):
        corr = correlation_matrix(record, (0, 0))
        g = record.gates[(0, 0)]
        for i in range(g.shape[1]):
            for j in range(g.shape[1]):
                want = two_pass_pearson(list(g[:, i]), list(g[:, j]))
                assert abs(corr[i, j] - want) < 1e-10

    def test_diagonal_symmetry_range(self, record):
        corr = correlation_matrix(record, (1, 0))
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        np.testing.assert_allclose(corr, corr.T, atol=1e-15)
        assert corr.max() <= 1.0 and corr.min() >= -1.0

    def test_duplicated_channel_perfectly_correlated(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(0.1, 0.9, size=(15, 3))
        g = np.hstack([g, g[:, :1]])  # channel 3 duplicates channel 0
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(15, dtype=np.int64))
        corr = correlation_matrix(rec, (0, 0))
        assert abs(corr[0, 3] - 1.0) < 1e-12

    def test_positive_semidefinite(self, record):
        corr = correlation_matrix(record, (0, 1))
        eigs = np.linalg.eigvalsh(corr)
        assert eigs.min() > -1e-8

    def test_constant_channel_zero_with_warning(self):
        g = np.random.default_rng(2).uniform(0.1, 0.9, size=(10, 3))
        g[:, 1] = 0.5
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(10, dtype=np.int64))
        with pytest.warns(UserWarning, match="constant"):
            corr = correlation_matrix(rec, (0, 0))
        assert (corr[1, :] == 0).all() and (corr[:, 1] == 0).all()
        assert np.isfinite(corr).all()

    def test_single_image_rejected(self):
        rec = AnalysisRecord(gates={(0, 0): np.full((1, 4), 0.5)}, image_ids=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match=">= 2"):
            correlation_matrix(rec, (0, 0))


class TestSumSquaredCorr:
    def test_decorrelated_contributes_channel_count(self):
        # Orthogonal (independent) columns: only the diagonal survives.
        n = 4000
        rng = np.random.default_rng(3)
        g = rng.uniform(0, 1, size=(n, 5))
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(n, dtype=np.int64))
        total = sum_squared_corr(rec)
        assert abs(total - 5.0) < 0.2  # diagonal 5 + O(1/n) off-diagonal noise

    def test_identical_channels_contribute_c_squared(self):
        base = np.random.default_rng(4).uniform(0.1, 0.9, size=(30, 1))
        g = np.repeat(base, 6, axis=1)
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(30, dtype=np.int64))
        assert abs(sum_squared_corr(rec) - 36.0) < 1e-8

    def test_sums_over_layers(self):
        base = np.random.default_rng(5).uniform(0.1, 0.9, size=(30, 2))
        rec = AnalysisRecord(
            gates={(0, 0): base, (0, 1): base.copy()}, image_ids=np.arange(30, dtype=np.int64)
        )
        one = sum_squared_corr(AnalysisRecord(gates={(0, 0): base}, image_ids=np.arange(30, dtype=np.int64)))
        assert abs(sum_squared_corr(rec) - 2 * one) < 1e-12


class TestTopActivated:
    def test_full_k_is_permutation(self, record):
        ids = top_activated(record, (0, 0), channel=2, k=20)
        assert sorted(ids.tolist()) == list(range(20))

    def test_monotone_gates_return_reversed_tail(self):
        n = 10
        g = (np.arange(n, dtype=np.float64) / n).reshape(n, 1)
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(n, dtype=np.int64))
        ids = top_activated(rec, (0, 0), channel=0, k=3)
        np.testing.assert_array_equal(ids, [9, 8, 7])

    def test_ties_break_by_image_index(self):
        g = np.array([[0.5], [0.9], [0.9], [0.1]])
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(4, dtype=np.int64))
        ids = top_activated(rec, (0, 0), channel=0, k=3)
        np.testing.assert_array_equal(ids, [1, 2, 0])

    def test_k_too_large_rejected(self, record):
        with pytest.raises(ValueError, match="exceeds"):
            top_activated(record, (0, 0), channel=0, k=21)

    def test_overlap_bounds(self, record):
        j = top_overlap(record, (0, 0), k=1)
        assert 0.0 <= j <= 1.0
        # identical channels -> full overlap
        base = np.random.default_rng(6).uniform(size=(12, 1))
        g = np.repeat(base, 4, axis=1)
        rec = AnalysisRecord(gates={(0, 0): g}, image_ids=np.arange(12, dtype=np.int64))
        assert top_overlap(rec, (0, 0), k=1) == 1.0


@pytest.fixture(scope="module")
def pruning_setup():
    model = small_model(seed=1)
    data = shuffled_subset(synth_style(SynthStyleSpec(seed=5, per_class=16, size=8)), 32)
    model.eval()
    return model, data


class TestPruning:
    def test_ratio_zero_reproduces_plain_eval(self, pruning_setup):
        model, data = pruning_setup
        assert prune_eval(model, data, stage=0, ratio=0.0) == evaluate(model, data)

    def test_floor_counting(self):
        transform = prune_gate_transform(stage=0, ratio=0.5)
        g = np.random.default_rng(7).uniform(0.1, 0.9, size=(3, 64))
        out = transform(0, 0, g)
        assert ((out == 0).sum(axis=1) == 32).all()  # floor(0.5 * 64)
        out9 = prune_gate_transform(0, 0.9)(0, 0, np.random.default_rng(8).uniform(size=(2, 10)))
        assert ((out9 == 0).sum(axis=1) == 9).all()

    def test_lowest_gates_pruned_per_image(self):
        g = np.array([[0.9, 0.1, 0.5, 0.3]])
        out = prune_gate_transform(0, 0.5)(0, 0, g)
        np.testing.assert_array_equal(out, [[0.9, 0.0, 0.5, 0.0]])

    def test_other_stages_untouched(self):
        g = np.full((2, 4), 0.25)
        out = prune_gate_transform(0, 1.0)(1, 0, g)
        np.testing.assert_array_equal(out, g)

    def test_stage_without_recalib_rejected(self, pruning_setup):
        _, data = pruning_setup
        bare = small_model(recalib=None)
        bare.eval()
        with pytest.raises(ValueError, match="no recalibration"):
            prune_eval(bare, data, stage=0, ratio=0.5)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            prune_gate_transform(0, 1.5)

    def test_ratio_one_identity_stage_tensor_equality(self, pruning_setup):
        model, data = pruning_setup
        # Stage 0 blocks all have identity shortcuts; with every gate zeroed the
        # residual branch vanishes and relu(input) == input for post-relu maps.
        x = Tensor(data.images[:8])
        h = relu(model.stem(x))  # stem already ends in relu; idempotent
        transform = prune_gate_transform(stage=0, ratio=1.0)
        out = h
        for block_idx, block in enumerate(model.stages[0]):
            out = block(out, functools.partial(transform, 0, block_idx))
        assert np.abs(out.data - h.data).max() == 0.0


class TestCaptureRecord:
    def test_capture_over_dataset(self):
        model = small_model(seed=2)
        data = shuffled_subset(synth_style(SynthStyleSpec(seed=6, per_class=8, size=8)), 24)
        rec = capture_record(model, data, batch_size=8)
        assert len(rec) == 24
        assert rec.layers == [(0, 0), (0, 1), (1, 0)]
        for layer in rec.layers:
            g = rec.gates[layer]
            assert (g > 0).all() and (g < 1).all()

    def test_empty_set_rejected(self):
        empty = Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), "test", 4)
        with pytest.raises(ValueError, match="the test set is empty"):
            capture_record(small_model(), empty)
        with pytest.raises(ValueError, match="the test set is empty"):
            prune_eval(small_model(), empty, stage=0, ratio=0.5)

    def test_capture_deterministic(self):
        model = small_model(seed=3)
        data = shuffled_subset(synth_style(SynthStyleSpec(seed=7, per_class=8, size=8)), 16)
        a = capture_record(model, data, batch_size=8)
        b = capture_record(model, data, batch_size=8)
        for layer in a.layers:
            np.testing.assert_array_equal(a.gates[layer], b.gates[layer])
