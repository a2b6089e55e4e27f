import pytest

from style_recal import gradcheck
from style_recal.gradcheck import default_checks, run_suite
from style_recal.tensor import GradCheckError


def test_suite_covers_all_ops_and_blocks():
    names = set(default_checks())
    required = {
        "add", "mul", "matmul", "relu", "sigmoid", "sum",
        "reshape", "residual_relu", "conv2d", "conv2d_lowered_grad", "maxpool2d",
        "cross_entropy", "global_pool_avg", "global_pool_std", "global_pool_max",
        "style_pool_avg_std", "style_pool_avg_std_max", "style_pool_max_ties",
        "linear_layer", "conv_layer", "batchnorm_2d", "batchnorm_4d",
        "srm_block", "se_block", "mlp_bn_variant", "cfc_nobn_variant",
    }
    assert required <= names


def test_nan_error_fails_the_suite(monkeypatch):
    monkeypatch.setattr(gradcheck, "default_checks", lambda: {"finite": lambda rng: 0.5,
                                                              "nan": lambda rng: float("nan")})
    with pytest.raises(GradCheckError, match="nan: non-finite relative error nan at seed 1"):
        run_suite(seeds=[1])
