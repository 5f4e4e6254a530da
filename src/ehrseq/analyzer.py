"""Symbolic execution of layer plans: shapes, parameter counts, FLOPs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .planner import ATTENTION, CONV, OP_KINDS, LayerOp, LayerPlan, PlanError

FULL_ATTENTION = "full"
LINEAR_ATTENTION = "linear"

FFN_MULTIPLIER = 4  # transformer feed-forward width, in multiples of d


@dataclass(frozen=True)
class CostModel:
    kernel: int = 5
    attention_variant: str = FULL_ATTENTION

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise PlanError("kernel size must be odd and >= 1")
        if self.attention_variant not in (FULL_ATTENTION, LINEAR_ATTENTION):
            raise PlanError(f"unknown attention variant {self.attention_variant!r}")


@dataclass
class ShapeTrace:
    input_shape: tuple[int, int]
    steps: list[tuple[int, LayerOp, tuple[int, int]]] = field(default_factory=list)

    @property
    def output_shape(self) -> tuple[int, int]:
        return self.steps[-1][2] if self.steps else self.input_shape


def _step_shape(op: LayerOp, shape: tuple[int, int]) -> tuple[int, int]:
    n, d = OP_KINDS[op.kind].shape(*shape, op)
    if n <= 0 or d <= 0:
        raise PlanError(f"layer {op.kind} produces non-integral shape from {shape}")
    return n, d


def propagate_shapes(plan: LayerPlan) -> ShapeTrace:
    """Walk the plan layer by layer, recording the shape after each op."""
    shape = tuple(plan.input_shape)
    trace = ShapeTrace(shape)
    for i, op in enumerate(plan.ops):
        try:
            shape = _step_shape(op, shape)
        except PlanError as exc:
            raise PlanError(f"layer {i}: {exc}") from exc
        trace.steps.append((i, op, shape))
    return trace


def _trace_costs(trace: ShapeTrace, cost_model: CostModel) -> list[tuple[int, int]]:
    """(params, flops) of each traced layer; FLOPs count the dominant
    matrix products, params do not depend on the temporal length.

    An attention layer's FLOPs leave out its channel projection, 2·n·d·d_out,
    though its params count that projection's d·d_out + d_out.  The omission
    is part of the model and the golden values pin it: the omitted FLOPs come
    to 1.9 % of the counted total of `plan`'s default transformer encoder
    (8192x256 -> 64x8, 4 layers, linear attention) and 14.3 % of its
    mirrored decoder's."""
    k, m = cost_model.kernel, FFN_MULTIPLIER
    costs = []
    n, d = trace.input_shape
    for _, op, (n_out, d_out) in trace.steps:
        family = OP_KINDS[op.kind].family
        if family == CONV:
            params = k * d * d_out + d_out
            flops = 2 * k * d * d_out * n_out
        elif family == ATTENTION:
            # attention qkv + out projection, channel projection, ffn, biases
            params = 4 * d * d + d * d_out + 2 * d * (m * d) + 5 * d + d_out + m * d
            mixing = n * d if cost_model.attention_variant == FULL_ATTENTION else d * d
            flops = 8 * n * d * d + 4 * n * mixing + 4 * n * d * (m * d)
        else:  # pooling has no parameters and no matrix products
            params = flops = 0
        costs.append((params, flops))
        n, d = n_out, d_out
    return costs


def layer_costs(plan: LayerPlan, cost_model: CostModel = CostModel()) -> list[tuple[int, int]]:
    """(params, flops) of each layer of the plan, in order."""
    return _trace_costs(propagate_shapes(plan), cost_model)


def count_params(plan: LayerPlan, cost_model: CostModel = CostModel()) -> int:
    """Parameter count: the sum over the plan's layers."""
    return sum(params for params, _ in layer_costs(plan, cost_model))


def count_flops(plan: LayerPlan, cost_model: CostModel = CostModel()) -> int:
    """FLOP estimate: the sum over the plan's layers."""
    return sum(flops for _, flops in layer_costs(plan, cost_model))


def validate_plan(plan: LayerPlan) -> list[str]:
    """The plan's defect messages: empty iff shapes propagate and land on the
    declared output."""
    try:
        trace = propagate_shapes(plan)
    except PlanError as exc:
        return [str(exc)]
    if trace.output_shape != tuple(plan.output_shape):
        return [f"terminal shape {trace.output_shape} != declared {tuple(plan.output_shape)}"]
    return []


def analysis_report(plan: LayerPlan, cost_model: CostModel = CostModel()) -> dict:
    """Shape trace with each layer's params and FLOPs, and their totals, as a
    plain dict for serialization."""
    trace = propagate_shapes(plan)
    rows = [
        {"layer": i, "op": op.kind, "factor": op.factor, "target": op.target,
         "shape": list(shape), "params": params, "flops": flops}
        for (i, op, shape), (params, flops) in zip(trace.steps, _trace_costs(trace, cost_model))
    ]
    return {
        "backbone": plan.backbone,
        "direction": plan.direction,
        "input_shape": list(plan.input_shape),
        "output_shape": list(plan.output_shape),
        "trace": rows,
        "params": sum(row["params"] for row in rows),
        "flops": sum(row["flops"] for row in rows),
    }
