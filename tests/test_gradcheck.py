from style_recal.gradcheck import SUITE_TOLERANCE, default_checks, run_suite


def test_suite_covers_all_ops_and_blocks():
    names = set(default_checks())
    required = {
        "add", "mul", "matmul", "relu", "sigmoid", "sum",
        "reshape", "scale_channels", "conv2d", "maxpool2d",
        "cross_entropy", "global_pool_avg", "global_pool_std", "global_pool_max",
        "style_pool_avg_std", "style_pool_avg_std_max", "style_pool_max_ties",
        "linear_layer", "conv_layer", "batchnorm_2d", "batchnorm_4d",
        "srm_block", "se_block", "mlp_bn_variant", "cfc_nobn_variant",
    }
    assert required <= names


def test_single_seed_suite_passes():
    results = run_suite(seeds=[0])
    assert max(results.values()) < SUITE_TOLERANCE
