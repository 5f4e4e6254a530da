import pytest

from ehrseq import planner as P
from ehrseq.analyzer import (
    CostModel,
    analysis_report,
    count_flops,
    count_params,
    layer_costs,
    propagate_shapes,
    validate_plan,
)


def test_trace_matches_paper_plan():
    plan = P.cnn_plan(8192, 256, 64, 8)
    shapes = [shape for _, _, shape in propagate_shapes(plan).steps]
    assert shapes == [(4096, 128), (2048, 64), (1024, 32), (512, 16),
                      (256, 16), (128, 8), (64, 8)]


def test_trace_empty_plan():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [], (64, 8), (64, 8))
    trace = propagate_shapes(plan)
    assert trace.steps == []
    assert trace.output_shape == (64, 8)


def test_trace_rejects_odd_temporal_dim():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LN)], (3, 4), (1, 4))
    with pytest.raises(P.PlanError, match="layer 0"):
        propagate_shapes(plan)


def test_params_single_cnn_layer():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    assert count_params(plan) == 5 * 256 * 128 + 128


def test_params_empty_plan():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [], (64, 8), (64, 8))
    assert count_params(plan) == 0
    assert count_flops(plan) == 0


def test_params_additive():
    single1 = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    single2 = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (4096, 128), (2048, 64))
    double = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND), P.LayerOp(P.LND)],
                         (8192, 256), (2048, 64))
    assert count_params(double) == count_params(single1) + count_params(single2)


def test_flops_single_cnn_layer():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    assert count_flops(plan) == 2 * 5 * 256 * 128 * 4096


def test_flops_linear_in_output_length():
    big = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (8192, 256), (4096, 128))
    small = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LND)], (4096, 256), (2048, 128))
    assert count_flops(big) == 2 * count_flops(small)


def test_flops_decrease_when_input_halves():
    for latent in ((64, 8), (256, 16)):
        wide = P.cnn_plan(8192, 256, *latent)
        narrow = P.cnn_plan(4096, 256, *latent)
        assert count_flops(narrow) < count_flops(wide)


def test_params_independent_of_length():
    a = P.cnn_plan(8192, 256, 64, 8)
    shapes_only = P.LayerPlan(a.backbone, a.direction, a.ops, (8192, 256), (64, 8))
    assert count_params(a) == count_params(shapes_only)


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
    assert count_params(plan, CostModel(kernel=1)) == 256 * 128 + 128


def test_linear_attention_cheaper_than_full():
    plan = P.transformer_plan(8192, 256, 64, 8, n_l=4)
    full = count_flops(plan, cost_model=CostModel(attention_variant="full"))
    linear = count_flops(plan, cost_model=CostModel(attention_variant="linear"))
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
    cost = CostModel(attention_variant="linear")
    report = analysis_report(plan, cost)
    costs = layer_costs(plan, cost)
    assert [(r["params"], r["flops"]) for r in report["trace"]] == costs
    assert report["params"] == count_params(plan, cost) == sum(p for p, _ in costs)
    assert report["flops"] == count_flops(plan, cost) == sum(f for _, f in costs)
    for row in report["trace"]:
        if row["op"] == P.POOL:
            assert (row["params"], row["flops"]) == (0, 0)


def test_count_params_rejects_plan_whose_shapes_do_not_propagate():
    plan = P.LayerPlan(P.CNN, P.ENCODE, [P.LayerOp(P.LD)], (4, 3), (4, 1))
    with pytest.raises(P.PlanError, match="layer 0"):
        count_params(plan)
