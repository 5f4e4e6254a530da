import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ehrseq import planner as P
from ehrseq.analyzer import analysis_report, validate_plan


def test_counts_golden_table():
    counts = P.cnn_layer_counts(8192, 256, 64, 8)
    assert counts == {P.LND: 5, P.LN: 2, P.LD: 0}


def test_counts_identity_compression():
    assert P.cnn_layer_counts(64, 32, 64, 32) == {P.LND: 0, P.LN: 0, P.LD: 0}


def test_counts_channel_heavy():
    assert P.cnn_layer_counts(256, 256, 16, 4) == {P.LND: 4, P.LN: 0, P.LD: 2}


def test_counts_reject_expansion():
    with pytest.raises(P.PlanError):
        P.cnn_layer_counts(64, 8, 128, 8)
    with pytest.raises(P.PlanError):
        P.cnn_layer_counts(100, 8, 10, 8)


def test_order_golden_table():
    counts = {P.LND: 5, P.LN: 2, P.LD: 0}
    assert P.cnn_layer_order(counts, 7, 5) == [
        P.LND, P.LND, P.LND, P.LND, P.LN, P.LND, P.LN
    ]


def test_order_all_lnd():
    assert P.cnn_layer_order({P.LND: 3, P.LN: 0, P.LD: 0}, 3, 3) == [P.LND] * 3


def test_order_channel_heavy():
    counts = {P.LND: 4, P.LN: 0, P.LD: 2}
    assert P.cnn_layer_order(counts, 4, 6) == [P.LND, P.LND, P.LND, P.LD, P.LND, P.LD]


def test_order_counts_identity_exhaustive():
    for r_n in range(14):
        for r_d in range(14):
            n = 2 ** (r_n + 0)
            counts = P.cnn_layer_counts(2 ** r_n, 2 ** r_d, 1, 1)
            order = P.cnn_layer_order(counts, r_n, r_d)
            assert Counter(order) == Counter(
                {k: v for k, v in counts.items() if v}
            ), (r_n, r_d)
            assert len(order) == max(r_n, r_d)


def test_transformer_golden_table():
    plan = P.transformer_plan(8192, 256, 64, 8, n_l=4)
    kinds = [(op.kind, op.factor) for op in plan.ops[:-1]]
    assert kinds == [(P.LD1, 4), (P.LD2, 2), (P.LD2, 2), (P.LD2, 2)]
    assert plan.ops[-1].kind == P.POOL and plan.ops[-1].target == 64
    shapes = [tuple(row["shape"]) for row in analysis_report(plan)["trace"]]
    assert shapes == [(8192, 64), (8192, 32), (8192, 16), (8192, 8), (64, 8)]


def test_transformer_no_channel_reduction():
    plan = P.transformer_plan(512, 64, 16, 64, n_l=3)
    assert [op.factor for op in plan.ops[:-1]] == [1, 1, 1]


def test_transformer_factor_arithmetic():
    plan = P.transformer_plan(1024, 128, 32, 1, n_l=4)  # r_d = 7
    assert [op.factor for op in plan.ops[:-1]] == [4, 4, 4, 2]


def test_transformer_factor_product():
    for r_d in range(10):
        for n_l in range(1, 6):
            d = 2 ** r_d
            plan = P.transformer_plan(256, d, 16, 1, n_l=n_l)
            product = 1
            for op in plan.ops[:-1]:
                product *= op.factor
            assert product == d


def test_mirror_cnn_golden():
    enc = P.cnn_plan(8192, 256, 64, 8)
    dec = P.mirror_decoder(enc)
    assert [op.kind for op in dec.ops] == [P.UN, P.UND, P.UN, P.UND, P.UND, P.UND, P.UND]
    assert analysis_report(dec)["trace"][-1]["shape"] == [8192, 256]


def test_mirror_empty_plan():
    enc = P.cnn_plan(64, 8, 64, 8)
    dec = P.mirror_decoder(enc)
    assert dec.ops == []
    assert dec.input_shape == dec.output_shape == (64, 8)


def test_mirror_transformer_channel_doubling():
    enc = P.transformer_plan(8192, 256, 64, 8, n_l=4)
    dec = P.mirror_decoder(enc)
    xattn = [op for op in dec.ops if op.kind == P.XATTN]
    assert len(xattn) == 5
    assert analysis_report(dec)["trace"][-1]["shape"] == [8192, 256]


def test_mirror_rejects_decoder_input():
    dec = P.mirror_decoder(P.cnn_plan(64, 8, 8, 8))
    with pytest.raises(P.PlanError):
        P.mirror_decoder(dec)


def test_hierarchical_defaults():
    plan = P.hierarchical_plan(256, 128, 256, P.LatentSpec(256, 8), P.CNN)
    assert plan.text_plan.input_shape == (128, 256)
    assert plan.text_plan.output_shape == (1, 128)
    assert plan.intermediate_width == 128
    assert plan.event_plan.input_shape == (256, 128)
    assert plan.event_plan.output_shape == (256, 8)


def test_hierarchical_identity_second_stage():
    plan = P.hierarchical_plan(256, 128, 256, P.LatentSpec(256, 128), P.CNN)
    assert plan.event_plan.ops == []


def test_encoder_plan_dispatches_on_backbone():
    assert P.encoder_plan(P.CNN, 8192, 256, 64, 8, 4) == P.cnn_plan(8192, 256, 64, 8)
    assert (P.encoder_plan(P.TRANSFORMER, 8192, 256, 64, 8, 4)
            == P.transformer_plan(8192, 256, 64, 8, n_l=4))
    with pytest.raises(P.PlanError, match="^unknown backbone 'banana'$"):
        P.encoder_plan("banana", 8192, 256, 64, 8, 4)
    with pytest.raises(P.PlanError, match="^unknown backbone 'banana'$"):
        P.hierarchical_plan(256, 128, 256, P.LatentSpec(256, 8), "banana")


def test_flattened_one_stage_plan():
    plan = P.cnn_plan(8192, 256, 64, 8)
    assert plan.input_shape == (8192, 256)
    assert analysis_report(plan)["trace"][-1]["shape"] == [64, 8]


def test_compression_rate_hier_golden():
    assert P.compression_rate_hier(256, 128, 256, 2048) == 4096


def test_compression_rate_full_volume():
    assert P.compression_rate_hier(256, 128, 256, 256 * 128 * 256) == 1


def test_compression_rate_flat():
    assert P.compression_rate_flat(8192, 256, 4096) == 512


def test_compression_rate_rejects_non_divisor():
    with pytest.raises(P.PlanError):
        P.compression_rate_flat(8192, 256, 3)


def test_search_grid_2048():
    grid = dict(P.search_grid(2048, 2048))
    assert [spec.t for spec in grid[2048]] == [16, 32, 64, 128, 256]
    assert all(spec.t * spec.c == 2048 for spec in grid[2048])


def test_search_grid_five_specs_per_l():
    for _, specs in P.search_grid(256, 4096):
        assert len(specs) == 5


def test_search_grid_256():
    grid = dict(P.search_grid(256, 256))
    assert [spec.t for spec in grid[256]] == [4, 8, 16, 32, 64]


@pytest.mark.parametrize("make, reason", [
    (lambda: P.LatentSpec(3, 8), "latent dims (3,8) must be powers of two"),
    (lambda: P.hierarchical_plan(256, 128, 256, P.LatentSpec(256, 8), P.CNN, (3, 128)),
     "intermediate width 384 must be a power of two"),
    (lambda: P.search_grid(1, 4), "grid point t=0.25 infeasible for l=1"),
], ids=["latent-dims", "intermediate-width", "grid-point-below-one"])
def test_shapes_off_the_powers_of_two_are_refused(make, reason):
    with pytest.raises(P.PlanError) as info:
        make()
    assert str(info.value) == reason


def test_plan_save_load(tmp_path):
    plan = P.transformer_plan(8192, 256, 64, 8, n_l=4)
    path = tmp_path / "plan.json"
    P.save_plan(plan, path)
    text = path.read_text()  # one compact line of JSON
    assert text.count("\n") == 1 and text.endswith("\n")
    loaded = P.load_plan(path)
    assert loaded == plan


def test_layer_op_rejects_unknown_kind():
    with pytest.raises(P.PlanError, match="unknown layer kind 'conv'"):
        P.LayerOp("conv")


@pytest.mark.parametrize("doc, reason", [
    ({}, "missing field 'backbone'"),
    ([1, 2], r"expected a JSON object, got \[1, 2\]"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": [], "extra": 1}, "unknown key 'extra'"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": [{"kind": "Ln"}, {"kind": "Ln", "stride": 2}]},
     r"ops\[1\]: unknown key 'stride'"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": [{"kind": "Ln", "stride": 2}]}, "stride"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": [{"kind": "Lx"}]}, "unknown layer kind"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, "4"],
      "output_shape": [4, 4], "ops": []}, "two positive integers"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [0, 4], "ops": []}, r"shape \[0, 4\] is not two positive integers"),
    ({"backbone": "cnn", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": [{"kind": "pool", "target": "4"}]},
     r"ops\[0\]: target must be a JSON integer"),
    ({"backbone": "banana", "direction": "encode", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": []}, "unknown backbone 'banana'"),
    ({"backbone": "cnn", "direction": "sideways", "input_shape": [8, 4],
      "output_shape": [4, 4], "ops": []}, "unknown direction 'sideways'"),
])
def test_load_plan_names_file_on_bad_input(tmp_path, doc, reason):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(P.PlanError, match=reason) as info:
        P.load_plan(path)
    assert str(info.value).startswith(f"{path}: ")


_ADMITTED = {
    (P.CNN, P.ENCODE): {P.LN, P.LD, P.LND},
    (P.CNN, P.DECODE): {P.UN, P.UD, P.UND},
    (P.TRANSFORMER, P.ENCODE): {P.LD1, P.LD2, P.POOL},
    (P.TRANSFORMER, P.DECODE): {P.XATTN, P.POOL},
}


def test_each_op_kind_names_the_plans_that_may_hold_it():
    for (backbone, direction), kinds in _ADMITTED.items():
        assert {k for k, kind in P.OP_KINDS.items()
                if kind.backbone == backbone and direction in kind.directions} == kinds


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 15), st.integers(3, 10), st.integers(1, 4), st.integers(0, 3))
def test_planners_emit_only_the_kinds_their_plans_admit(log_n, log_d, n_l, log_width):
    n, d, width = 2 ** log_n, 2 ** log_d, 2 ** log_width  # width <= d
    plans = []
    for _, specs in P.search_grid(16, 65536):
        for spec in specs:
            if spec.c <= d:
                plans.append(P.transformer_plan(n, d, spec.t, spec.c, n_l))
            if spec.t <= n and spec.c <= d:
                plans.append(P.cnn_plan(n, d, spec.t, spec.c))
            if spec.t <= 16 and spec.c <= width:
                for backbone in (P.CNN, P.TRANSFORMER):
                    hier = P.hierarchical_plan(16, n // 16, d, spec, backbone,
                                               intermediate=(1, width), n_l=n_l)
                    plans += [hier.text_plan, hier.event_plan]
    plans += [P.mirror_decoder(plan) for plan in plans]
    assert plans
    for plan in plans:
        assert {op.kind for op in plan.ops} <= _ADMITTED[plan.backbone, plan.direction]
        assert validate_plan(plan) == []


def test_validate_plan_names_each_layer_its_plan_cannot_hold():
    ops = [P.LayerOp(P.LD1, factor=2), P.LayerOp(P.LN), P.LayerOp(P.POOL, target=4)]
    plan = P.LayerPlan(P.CNN, P.ENCODE, ops, (8, 8), (4, 4))
    assert validate_plan(plan) == ["layer 0: a cnn encode plan cannot hold Ld1",
                                   "layer 2: a cnn encode plan cannot hold pool"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([P.CNN, P.TRANSFORMER]), st.data())
def test_encoder_plans_are_valid_as_built(backbone, data):
    """`plan` writes the plan `encoder_plan` builds without re-validating it:
    every plan over n <= 2^13, d <= 2^10, n_out <= n, d_out <= d and
    1 <= n_l <= 12 passes `validate_plan`."""
    log_n, log_d = data.draw(st.integers(0, 13)), data.draw(st.integers(0, 10))
    n_out, d_out = 2 ** data.draw(st.integers(0, log_n)), 2 ** data.draw(st.integers(0, log_d))
    n_l = data.draw(st.integers(1, 12))
    assert validate_plan(P.encoder_plan(backbone, 2 ** log_n, 2 ** log_d, n_out, d_out, n_l)) == []
