"""Symbolic execution of layer plans: shapes, parameter counts, FLOPs."""

from __future__ import annotations

from dataclasses import dataclass

from .planner import ATTENTION, CONV, OP_KINDS, LayerPlan, PlanError

FULL_ATTENTION = "full"
LINEAR_ATTENTION = "linear"

FFN_MULTIPLIER = 4  # transformer feed-forward width, in multiples of d


@dataclass(frozen=True)
class CostModel:
    """Cost settings; their defaults are those of `plan` and `analyze` too."""
    kernel: int = 5
    attention_variant: str = LINEAR_ATTENTION

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise PlanError("kernel size must be odd and >= 1")
        if self.attention_variant not in (FULL_ATTENTION, LINEAR_ATTENTION):
            raise PlanError(f"unknown attention variant {self.attention_variant!r}")


def _layer_rows(plan: LayerPlan, cost_model: CostModel) -> list[dict]:
    """Each layer's row: its op, the shape after it, its params and FLOPs.
    FLOPs count the dominant matrix products; params do not depend on the
    temporal length.

    An attention layer's FLOPs leave out its channel projection, 2·n·d·d_out,
    though its params count that projection's d·d_out + d_out.  The omission
    is part of the model and the golden values pin it: the omitted FLOPs come
    to 1.9 % of the counted total of `plan`'s default transformer encoder
    (8192x256 -> 64x8, 4 layers, linear attention) and 14.3 % of its
    mirrored decoder's."""
    k, m = cost_model.kernel, FFN_MULTIPLIER
    rows = []
    n, d = plan.input_shape
    for i, op in enumerate(plan.ops):
        kind = OP_KINDS[op.kind]
        n_out, d_out = kind.shape(n, d, op)
        if n_out <= 0 or d_out <= 0:
            raise PlanError(f"layer {i}: layer {op.kind} produces non-integral shape from {(n, d)}")
        if kind.family == CONV:
            params = k * d * d_out + d_out
            flops = 2 * k * d * d_out * n_out
        elif kind.family == ATTENTION:
            # attention qkv + out projection, channel projection, ffn, biases
            params = 4 * d * d + d * d_out + 2 * d * (m * d) + 5 * d + d_out + m * d
            mixing = n * d if cost_model.attention_variant == FULL_ATTENTION else d * d
            flops = 8 * n * d * d + 4 * n * mixing + 4 * n * d * (m * d)
        else:  # pooling has no parameters and no matrix products
            params = flops = 0
        rows.append({"layer": i, "op": op.kind, "factor": op.factor, "target": op.target,
                     "shape": [n_out, d_out], "params": params, "flops": flops})
        n, d = n_out, d_out
    return rows


def validate_plan(plan: LayerPlan) -> list[str]:
    """The plan's defect messages: empty iff each op is one its backbone and
    direction admit, and shapes propagate and land on the declared output."""
    stray = [f"layer {i}: a {plan.backbone} {plan.direction} plan cannot hold {op.kind}"
             for i, op in enumerate(plan.ops)
             if OP_KINDS[op.kind].backbone != plan.backbone
             or plan.direction not in OP_KINDS[op.kind].directions]
    if stray:
        return stray
    try:
        rows = _layer_rows(plan, CostModel())
    except PlanError as exc:
        return [str(exc)]
    terminal = tuple(rows[-1]["shape"]) if rows else tuple(plan.input_shape)
    if terminal != tuple(plan.output_shape):
        return [f"terminal shape {terminal} != declared {tuple(plan.output_shape)}"]
    return []


def analysis_report(plan: LayerPlan, cost_model: CostModel = CostModel()) -> dict:
    """Shape trace with each layer's params and FLOPs, and their totals, as a
    plain dict for serialization."""
    rows = _layer_rows(plan, cost_model)
    return {
        "backbone": plan.backbone,
        "direction": plan.direction,
        "input_shape": list(plan.input_shape),
        "output_shape": list(plan.output_shape),
        "trace": rows,
        "params": sum(row["params"] for row in rows),
        "flops": sum(row["flops"] for row in rows),
    }
