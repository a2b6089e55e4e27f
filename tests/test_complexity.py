import numpy as np
import pytest

from style_recal.complexity import (
    analyze,
    cfc_variant_extra_params,
    count_flops,
    count_params,
    format_table,
    mlp_variant_extra_params,
    se_extra_params,
    srm_extra_params,
)
from style_recal.models import (
    ArchitectureConfig,
    StageSpec,
    build_resnet,
    cifar_resnet_config,
    imagenet_resnet50_config,
)
from style_recal.recalib import RecalibVariant

R50_STAGES = imagenet_resnet50_config().stages


class TestClosedForms:
    def test_srm_resnet50_stage_arithmetic(self):
        # sum N_s * C_s = 3*256 + 4*512 + 6*1024 + 3*2048 = 15104
        assert sum(s.blocks * s.channels for s in R50_STAGES) == 15104
        assert srm_extra_params(R50_STAGES) == 60416
        assert srm_extra_params(R50_STAGES, include_running_stats=True) == 90624

    def test_se_resnet50_arithmetic(self):
        # 2/16 * sum N_s C_s^2 + sum N_s (C_s/16 + C_s) = 2514944 + 16048
        weights_only = sum(s.blocks * 2 * s.channels * (s.channels // 16) for s in R50_STAGES)
        assert weights_only == 2514944
        assert se_extra_params(R50_STAGES, 16) == 2530992

    def test_empty_model_counts_zero(self):
        cfg = ArchitectureConfig(stages=[StageSpec(1, 4, 1)], num_classes=2)
        base = count_params(build_resnet(cfg))
        assert base.added_by_recalib == 0


class TestEnumeration:
    @pytest.mark.parametrize("include_rs", [False, True])
    def test_formula_matches_enumeration_srm_resnet50(self, include_rs):
        model = build_resnet(imagenet_resnet50_config(recalib="srm"))
        report = count_params(model, include_running_stats=include_rs)
        assert report.added_by_recalib == srm_extra_params(R50_STAGES, include_rs)

    def test_formula_matches_enumeration_se_resnet50(self):
        model = build_resnet(imagenet_resnet50_config(recalib="se"))
        report = count_params(model)
        assert report.added_by_recalib == se_extra_params(R50_STAGES, 16)

    def test_resnet50_baseline_total(self):
        report = count_params(build_resnet(imagenet_resnet50_config()))
        assert report.trainable_params == 25557032  # the 25.56M reference total

    @pytest.mark.parametrize(
        "variant,formula",
        [
            (RecalibVariant.srm(), lambda st: cfc_variant_extra_params(st, d=2, use_bn=True)),
            (RecalibVariant(pooling=("avg",), integration="cfc"), lambda st: cfc_variant_extra_params(st, d=1)),
            (
                RecalibVariant(pooling=("avg", "std", "max"), integration="cfc", use_bn=False),
                lambda st: cfc_variant_extra_params(st, d=3, use_bn=False),
            ),
            (
                RecalibVariant(pooling=("avg", "std"), integration="mlp", use_bn=False, se_reduction=4),
                lambda st: mlp_variant_extra_params(st, d=2, reduction=4),
            ),
        ],
    )
    def test_formula_matches_enumeration_small_configs(self, variant, formula):
        stages = [StageSpec(2, 16, 1), StageSpec(3, 32, 2)]
        cfg = ArchitectureConfig(stages=stages, recalib=variant)
        report = count_params(build_resnet(cfg))
        assert report.added_by_recalib == formula(stages)

    @pytest.mark.parametrize("recalib", ["srm", "se:4"])
    @pytest.mark.parametrize("include_rs", [False, True])
    def test_recalib_share_equals_difference_to_bare_twin(self, recalib, include_rs):
        report = count_params(build_resnet(cifar_resnet_config(8, recalib=recalib)), include_rs)
        bare = count_params(build_resnet(cifar_resnet_config(8)), include_rs)
        assert report.added_by_recalib == report.total_params - bare.total_params > 0

    def test_monotonic_in_width(self):
        narrow = [StageSpec(2, 16, 1), StageSpec(2, 32, 2)]
        wide = [StageSpec(2, 16, 1), StageSpec(2, 48, 2)]
        n = count_params(build_resnet(ArchitectureConfig(stages=narrow, recalib=RecalibVariant.srm())))
        w = count_params(build_resnet(ArchitectureConfig(stages=wide, recalib=RecalibVariant.srm())))
        assert w.total_params > n.total_params
        assert w.added_by_recalib > n.added_by_recalib

    def test_running_stats_counted_only_on_request(self):
        model = build_resnet(cifar_resnet_config(20))
        plain = count_params(model)
        with_rs = count_params(model, include_running_stats=True)
        bn_channels = sum(
            buf.size for name, buf in model.named_buffers() if name.endswith(("running_mean", "running_var"))
        )
        assert with_rs.total_params - plain.total_params == bn_channels
        assert with_rs.trainable_params == plain.trainable_params


class TestFlops:
    def test_single_1x1_conv_at_224(self):
        cfg = ArchitectureConfig(
            stages=[StageSpec(1, 4, 1)], num_classes=2, in_channels=1, stem_channels=1
        )
        model = build_resnet(cfg)
        report = count_flops(model, (1, 224, 224))
        stem_row = next(r for r in report.per_layer if r["name"] == "stem_conv")
        # 3x3 stem here; the 1x1 trivial case is checked directly on the formula:
        from style_recal.complexity import _conv_flops

        assert _conv_flops(1, 1, 1, 224, 224) == 50176
        assert stem_row["flops"] == 9 * 1 * 1 * 224 * 224

    def test_resnet50_within_5pct_of_reference(self):
        model = build_resnet(imagenet_resnet50_config())
        report = count_flops(model, (3, 224, 224))
        assert abs(report.flops - 3.86e9) / 3.86e9 < 0.05

    def test_srm_overhead_small_and_positive(self):
        base = count_flops(build_resnet(imagenet_resnet50_config()), (3, 224, 224)).flops
        srm = count_flops(build_resnet(imagenet_resnet50_config(recalib="srm")), (3, 224, 224)).flops
        overhead = srm - base
        assert 0 < overhead <= 0.03e9

    def test_flops_monotonic_in_width(self):
        a = ArchitectureConfig(stages=[StageSpec(2, 16, 1)], num_classes=4)
        b = ArchitectureConfig(stages=[StageSpec(2, 24, 1)], num_classes=4)
        fa = count_flops(build_resnet(a), (3, 32, 32)).flops
        fb = count_flops(build_resnet(b), (3, 32, 32)).flops
        assert fb > fa

    def test_input_channel_mismatch_rejected(self):
        model = build_resnet(cifar_resnet_config(20))
        with pytest.raises(ValueError):
            count_flops(model, (1, 32, 32))

    @pytest.mark.parametrize("shape", [(3, 0, 0), (3, -8, -8), (3, 32, 0)])
    def test_non_positive_extent_rejected(self, shape):
        with pytest.raises(ValueError, match="non-positive spatial extent"):
            count_flops(build_resnet(cifar_resnet_config(20)), shape)


class TestFoldedModel:
    """A folded resnet20+SRM counts as the {avg, std; cfc; no BN} variant it became."""

    @pytest.fixture(scope="class")
    def models(self):
        folded = build_resnet(cifar_resnet_config(20, recalib="srm"))
        for _, _, layer in folded.recalib_layers():
            layer.integrate.bn.num_batches[...] = 1  # running statistics count as populated
        assert folded.fold_bn() == 9
        fresh = build_resnet(cifar_resnet_config(20, recalib=RecalibVariant(pooling=("avg", "std"), use_bn=False)))
        return folded, fresh

    @pytest.mark.parametrize("include_rs", [False, True])
    def test_params_equal_the_fresh_variant(self, models, include_rs):
        folded, fresh = models
        report = count_params(folded, include_rs)
        assert report.to_dict() == count_params(fresh, include_rs).to_dict()
        assert report.added_by_recalib == cfc_variant_extra_params(cifar_resnet_config(20).stages, d=2, use_bn=False)

    def test_flops_equal_the_fresh_variant(self, models):
        folded, fresh = models
        assert count_flops(folded, (3, 32, 32)).to_dict() == count_flops(fresh, (3, 32, 32)).to_dict()


class TestReport:
    def test_analyze_merges_params_and_flops(self):
        model = build_resnet(cifar_resnet_config(20, recalib="srm"))
        report = analyze(model, input_shape=(3, 32, 32))
        assert report.flops is not None and report.total_params > 0
        d = report.to_dict()
        assert d["gflops"] == report.flops / 1e9
        assert "conventions" in d

    def test_table_renders(self):
        model = build_resnet(cifar_resnet_config(20, recalib="srm"))
        table = format_table(analyze(model, input_shape=(3, 32, 32)))
        assert "total" in table and "added by recalibration" in table
