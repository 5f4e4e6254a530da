import numpy as np
import pytest

from ehrseq import planner as P
from ehrseq.analyzer import CostModel, analysis_report, validate_plan


def test_trace_matches_paper_plan():
    plan = P.cnn_plan(8192, 256, 64, 8)
    shapes = [tuple(row["shape"]) for row in analysis_report(plan)["trace"]]
    assert shapes == [(4096, 128), (2048, 64), (1024, 32), (512, 16),
                      (256, 16), (128, 8), (64, 8)]


def test_trace_empty_plan():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [], (64, 8), (64, 8))
    assert analysis_report(plan)["trace"] == []
    assert validate_plan(plan) == []


def test_trace_rejects_odd_temporal_dim():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LN)], (3, 4), (1, 4))
    with pytest.raises(P.PlanError, match="layer 0"):
        analysis_report(plan)


def test_params_single_cnn_layer():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    assert analysis_report(plan)["params"] == 5 * 256 * 128 + 128


def test_params_empty_plan():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [], (64, 8), (64, 8))
    assert analysis_report(plan)["params"] == 0
    assert analysis_report(plan)["flops"] == 0


def test_params_additive():
    single1 = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    single2 = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (4096, 128), (2048, 64))
    double = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND), P.LayerOp(P.LND)],
                         (8192, 256), (2048, 64))
    assert analysis_report(double)["params"] == (analysis_report(single1)["params"]
                                                 + analysis_report(single2)["params"])


def test_flops_single_cnn_layer():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    assert analysis_report(plan)["flops"] == 2 * 5 * 256 * 128 * 4096


def test_flops_linear_in_output_length():
    big = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    small = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (4096, 256), (2048, 128))
    assert analysis_report(big)["flops"] == 2 * analysis_report(small)["flops"]


def test_flops_decrease_when_input_halves():
    for latent in ((64, 8), (256, 16)):
        wide = P.cnn_plan(8192, 256, *latent)
        narrow = P.cnn_plan(4096, 256, *latent)
        assert analysis_report(narrow)["flops"] < analysis_report(wide)["flops"]


def test_params_independent_of_length():
    a = P.cnn_plan(8192, 256, 64, 8)
    shapes_only = P.LayerPlan(a.backbone, a.direction, a.ops, (8192, 256), (64, 8))
    assert analysis_report(a)["params"] == analysis_report(shapes_only)["params"]


def test_validate_paper_plan_ok():
    assert validate_plan(P.cnn_plan(8192, 256, 64, 8)) == []


def test_validate_flags_terminal_mismatch():
    plan = P.cnn_plan(8192, 256, 64, 8)
    broken = P.LayerPlan(plan.backbone, plan.direction, plan.ops, (8192, 256), (64, 16))
    defects = validate_plan(broken)
    assert defects and "terminal shape" in defects[0]


def test_grid_plans_all_validate():
    for _, specs in P.search_grid(256, 4096):
        for spec in specs:
            cnn = P.cnn_plan(8192, 256, spec.t, spec.c)
            trf = P.transformer_plan(8192, 256, spec.t, spec.c, n_l=4)
            assert validate_plan(cnn) == []
            assert validate_plan(trf) == []


def test_cost_model_validation():
    with pytest.raises(P.PlanError):
        CostModel(kernel=4)
    with pytest.raises(P.PlanError):
        CostModel(attention_variant="sparse")


def test_one_by_one_kernel_variant():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    assert analysis_report(plan, CostModel(kernel=1))["params"] == 256 * 128 + 128


def test_linear_attention_cheaper_than_full():
    plan = P.transformer_plan(8192, 256, 64, 8, n_l=4)
    full = analysis_report(plan, CostModel(attention_variant="full"))["flops"]
    linear = analysis_report(plan, CostModel(attention_variant="linear"))["flops"]
    assert linear < full


def test_analysis_report_fields():
    report = analysis_report(P.cnn_plan(8192, 256, 64, 8))
    assert report["params"] > 0 and report["flops"] > 0
    assert [tuple(s["shape"]) for s in report["trace"]][-1] == (64, 8)


def test_analysis_report_per_layer_golden_cnn():
    report = analysis_report(P.cnn_plan(8192, 256, 64, 8))
    rows = [(r["op"], tuple(r["shape"]), r["params"], r["flops"]) for r in report["trace"]]
    # conv layer: params k*d*c_out + c_out, FLOPs 2*k*d*c_out*n_out with k = 5
    assert rows == [
        ("Lnd", (4096, 128), 163968, 1342177280),
        ("Lnd", (2048, 64), 41024, 167772160),
        ("Lnd", (1024, 32), 10272, 20971520),
        ("Lnd", (512, 16), 2576, 2621440),
        ("Ln", (256, 16), 1296, 655360),
        ("Lnd", (128, 8), 648, 163840),
        ("Ln", (64, 8), 328, 40960),
    ]
    assert report["params"] == sum(r[2] for r in rows) == 220112
    assert report["flops"] == sum(r[3] for r in rows) == 1534402560


@pytest.mark.parametrize("plan", [
    P.transformer_plan(8192, 256, 64, 8, n_l=4),
    P.mirror_decoder(P.transformer_plan(8192, 256, 64, 8, n_l=3)),
    P.mirror_decoder(P.cnn_plan(4096, 128, 32, 16)),
])
def test_totals_are_sums_of_layer_rows(plan):
    report = analysis_report(plan, CostModel(attention_variant="linear"))
    assert report["params"] == sum(r["params"] for r in report["trace"])
    assert report["flops"] == sum(r["flops"] for r in report["trace"])
    for row in report["trace"]:
        if row["op"] == P.POOL:
            assert (row["params"], row["flops"]) == (0, 0)


def test_report_rejects_plan_whose_shapes_do_not_propagate():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LD)], (4, 3), (4, 1))
    with pytest.raises(P.PlanError, match=r"^layer 0: layer Ld produces non-integral shape "
                                          r"from \(4, 3\)$"):
        analysis_report(plan)
    assert validate_plan(plan) == ["layer 0: layer Ld produces non-integral shape from (4, 3)"]


def _run_conv(x, op, k, rng):
    """Execute one encoder conv layer on an (n, d) input: kernel k along n,
    zero padding k // 2, stride 2 along n for Ln and Lnd, d_out channels as
    `OP_KINDS` says.  Returns the output, the weight and bias arrays, and the
    multiply-adds executed."""
    n, d = x.shape
    d_out = P.OP_KINDS[op.kind].shape(n, d, op)[1]
    stride = 2 if op.kind in (P.LN, P.LND) else 1
    weight, bias = rng.standard_normal((k, d, d_out)), rng.standard_normal(d_out)
    padded = np.pad(x, ((k // 2, k // 2), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)[::stride]
    out = np.einsum("ndk,kde->ne", windows, weight) + bias
    return out, (weight, bias), windows.shape[0] * weight.size


def _small_cnn_plans():
    sizes = [2 ** i for i in range(7)]  # 1 to 64
    return [P.cnn_plan(n, d, n_out, d_out) for n in sizes for d in sizes[:5]
            for n_out in sizes if n_out <= n for d_out in sizes if d_out <= d]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_executed_conv_layers_match_their_trace_rows(k):
    rng = np.random.default_rng(k)
    plans = _small_cnn_plans()
    assert len(plans) == 28 * 15
    for plan in plans:
        x = rng.standard_normal(plan.input_shape)
        for op, row in zip(plan.ops, analysis_report(plan, CostModel(kernel=k))["trace"],
                           strict=True):
            out, arrays, multiply_adds = _run_conv(x, op, k, rng)
            assert out.shape == P.OP_KINDS[op.kind].shape(*x.shape, op) == tuple(row["shape"])
            assert sum(a.size for a in arrays) == row["params"]
            assert 2 * multiply_adds == row["flops"]
            x = out
        assert x.shape == plan.output_shape
