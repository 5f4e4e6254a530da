"""Encoder/decoder layer scheduling.

Builds CNN halving schedules (layer counts, then an alternating order),
transformer channel-reduction schedules with a terminal adaptive pool,
mirrored decoders, two-stage hierarchical compositions, compression rates,
and the latent search grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .manifest import (INTEGER, STRING, json_doc, json_entries, json_fields, json_list,
                       json_text, reading)

# layer op kinds
LN = "Ln"
LD = "Ld"
LND = "Lnd"
LD1 = "Ld1"
LD2 = "Ld2"
POOL = "pool"
UN = "Un"
UD = "Ud"
UND = "Und"
XATTN = "xattn"

CNN = "cnn"
TRANSFORMER = "transformer"
ENCODE = "encode"
DECODE = "decode"

# cost families: how a layer's params and FLOPs are counted
CONV = "conv"
ATTENTION = "attention"
POOLING = "pool"


def _div(x: int, k: int) -> int:
    return x // k if x % k == 0 else -1


class OpKind(NamedTuple):
    shape: Callable  # (n, d, op) -> (n', d'); -1 marks a non-integral size
    family: str
    backbone: str  # the one backbone whose plans may hold it,
    directions: tuple[str, ...]  # in these directions


# What each op kind does to a (temporal n, channel d) shape, how it is
# costed, and which plans may hold it.  The single table the analyzer reads.
OP_KINDS = {
    LN: OpKind(lambda n, d, op: (_div(n, 2), d), CONV, CNN, (ENCODE,)),
    LD: OpKind(lambda n, d, op: (n, _div(d, 2)), CONV, CNN, (ENCODE,)),
    LND: OpKind(lambda n, d, op: (_div(n, 2), _div(d, 2)), CONV, CNN, (ENCODE,)),
    LD1: OpKind(lambda n, d, op: (n, _div(d, op.factor)), ATTENTION, TRANSFORMER, (ENCODE,)),
    LD2: OpKind(lambda n, d, op: (n, _div(d, op.factor)), ATTENTION, TRANSFORMER, (ENCODE,)),
    POOL: OpKind(lambda n, d, op: (op.target, d), POOLING, TRANSFORMER, (ENCODE, DECODE)),
    UN: OpKind(lambda n, d, op: (2 * n, d), CONV, CNN, (DECODE,)),
    UD: OpKind(lambda n, d, op: (n, 2 * d), CONV, CNN, (DECODE,)),
    UND: OpKind(lambda n, d, op: (2 * n, 2 * d), CONV, CNN, (DECODE,)),
    XATTN: OpKind(lambda n, d, op: (n, d * op.factor), ATTENTION, TRANSFORMER, (DECODE,)),
}


class PlanError(ValueError):
    pass


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _log2(x: int) -> int:
    return x.bit_length() - 1


@dataclass(frozen=True)
class LayerOp:
    kind: str
    factor: int = 1   # power-of-two channel factor for Ld1/Ld2/xattn
    target: int = 0   # target temporal length for pool

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise PlanError(f"unknown layer kind {self.kind!r}")
        if self.factor < 1 or not _is_pow2(self.factor):
            raise PlanError(f"layer factor {self.factor} must be a power of two >= 1")


@dataclass
class LayerPlan:
    backbone: str
    direction: str
    ops: list[LayerOp]
    input_shape: tuple[int, int]
    output_shape: tuple[int, int]

    def __post_init__(self):
        if self.backbone not in (CNN, TRANSFORMER):
            raise PlanError(f"unknown backbone {self.backbone!r}")
        if self.direction not in (ENCODE, DECODE):
            raise PlanError(f"unknown direction {self.direction!r}")
        for shape in (self.input_shape, self.output_shape):
            if min(shape) < 1:
                raise PlanError(f"shape {list(shape)} is not two positive integers")


@dataclass(frozen=True)
class LatentSpec:
    t: int
    c: int

    def __post_init__(self):
        if not (_is_pow2(self.t) and _is_pow2(self.c)):
            raise PlanError(f"latent dims ({self.t},{self.c}) must be powers of two")


@dataclass
class HierarchicalPlan:
    text_plan: LayerPlan    # per-event stage
    event_plan: LayerPlan   # cross-event stage

    @property
    def intermediate_width(self) -> int:
        """Flattened per-event width d': the text stage's output volume."""
        return math.prod(self.text_plan.output_shape)


def _require_pow2(**dims: int) -> None:
    for name, v in dims.items():
        if not _is_pow2(v):
            raise PlanError(f"{name}={v} must be a power of two")


def cnn_layer_counts(n: int, d: int, n_out: int, d_out: int) -> dict[str, int]:
    """Number of CNN layers by kind for compressing (n,d) -> (n_out,d_out)."""
    _require_pow2(n=n, d=d, n_out=n_out, d_out=d_out)
    if n_out > n or d_out > d:
        raise PlanError("CNN schedule cannot expand dimensions")
    r_n = _log2(n // n_out)
    r_d = _log2(d // d_out)
    n_l = max(r_n, r_d)
    if r_n > r_d:
        return {LND: r_d, LN: n_l - r_d, LD: 0}
    if r_n < r_d:
        return {LND: r_n, LN: 0, LD: n_l - r_n}
    return {LND: n_l, LN: 0, LD: 0}


def cnn_layer_order(counts: dict[str, int], r_n: int, r_d: int) -> list[str]:
    """Alternating order of CNN layer kinds.

    The surplus temporal layers in the r_n > r_d branch are distributed over
    the r_d + 1 slots around the Lnd layers; the r_n < r_d branch follows the
    published alternation cases verbatim.
    """
    n_l = max(r_n, r_d)
    if counts.get(LN, 0) > 0:
        num_block = (r_n - r_d) // (r_d + 1)
        num_rem = (r_n - r_d) % (r_d + 1)
        block_n = [LN] * max(num_block, 0)
        block_alt = [LND] + block_n
        block_alt2 = block_alt + [LN]
        return block_alt * (r_d - num_rem) + block_alt2 * num_rem + block_n
    if counts.get(LD, 0) > 0:
        block_alt = [LND, LD]
        if n_l - 2 * (r_d - r_n) + 1 < 0:
            n_odd = n_l % 2
            return [LD] * n_odd + block_alt * r_n + [LD] * (n_l - 2 * r_n - n_odd)
        if 2 * r_n - r_d >= 0:
            num_alt = r_d - r_n
        else:
            num_alt = min(r_n, r_d // 2)
        if r_n - num_alt == r_d - 2 * num_alt:
            block_non_alt = [LND] * (r_n - num_alt)
        else:
            block_non_alt = [LD] * (r_d - 2 * num_alt)
        return block_non_alt + block_alt * num_alt
    return [LND] * n_l


def cnn_plan(n: int, d: int, n_out: int, d_out: int) -> LayerPlan:
    counts = cnn_layer_counts(n, d, n_out, d_out)
    r_n = _log2(n // n_out)
    r_d = _log2(d // d_out)
    order = cnn_layer_order(counts, r_n, r_d)
    ops = [LayerOp(kind) for kind in order]
    return LayerPlan(CNN, ENCODE, ops, (n, d), (n_out, d_out))


def transformer_plan(n: int, d: int, n_out: int, d_out: int, n_l: int) -> LayerPlan:
    """Channel-reduction schedule over n_l layers plus a terminal pool."""
    _require_pow2(n=n, d=d, n_out=n_out, d_out=d_out)
    if d_out > d:
        raise PlanError("transformer schedule cannot expand channels")
    if n_l < 1:
        raise PlanError("n_l must be >= 1")
    r_d = _log2(d // d_out)
    q, r = divmod(r_d, n_l)
    ops = [LayerOp(LD1, factor=2 ** (q + 1)) for _ in range(r)]
    ops += [LayerOp(LD2, factor=2 ** q) for _ in range(n_l - r)]
    ops.append(LayerOp(POOL, target=n_out))
    return LayerPlan(TRANSFORMER, ENCODE, ops, (n, d), (n_out, d_out))


def encoder_plan(backbone: str, n: int, d: int, n_out: int, d_out: int, n_l: int) -> LayerPlan:
    """The backbone's encoder plan for (n, d) -> (n_out, d_out); the CNN ignores `n_l`."""
    if backbone == CNN:
        return cnn_plan(n, d, n_out, d_out)
    if backbone == TRANSFORMER:
        return transformer_plan(n, d, n_out, d_out, n_l)
    raise PlanError(f"unknown backbone {backbone!r}")


_CNN_MIRROR = {LN: UN, LD: UD, LND: UND}


def mirror_decoder(enc: LayerPlan) -> LayerPlan:
    """Decoder structure inverting an encoder plan.

    CNN: ops reversed with each compression replaced by the matching
    expansion.  Transformer: a placeholder expansion back to the input
    length, then one cross-attention block per channel-halving step.
    """
    if enc.direction != ENCODE:
        raise PlanError("plan is already decode-direction")
    if enc.backbone == CNN:
        ops = [LayerOp(_CNN_MIRROR[op.kind]) for op in reversed(enc.ops)]
    else:
        n_in, d_in = enc.input_shape
        _, d_out = enc.output_shape
        r_d = _log2(d_in // d_out)
        ops = [LayerOp(POOL, target=n_in)]
        ops += [LayerOp(XATTN, factor=2) for _ in range(r_d)]
    return LayerPlan(enc.backbone, DECODE, ops, enc.output_shape, enc.input_shape)


def hierarchical_plan(n_e: int, n_tpe: int, d: int, latent: LatentSpec,
                      backbone: str,
                      intermediate: tuple[int, int] = (1, 128),
                      n_l: int = 2) -> HierarchicalPlan:
    """Two-stage composition: per-event text stage, then cross-event stage.

    The text stage compresses (n_tpe, d) to `intermediate`, whose flattened
    width feeds the event stage compressing (n_e, width) to (t, c).
    """
    _require_pow2(n_e=n_e, n_tpe=n_tpe, d=d)
    width = intermediate[0] * intermediate[1]
    if not _is_pow2(width):
        raise PlanError(f"intermediate width {width} must be a power of two")
    return HierarchicalPlan(encoder_plan(backbone, n_tpe, d, *intermediate, n_l),
                            encoder_plan(backbone, n_e, width, latent.t, latent.c, n_l))


def compression_rate_hier(n_e: int, n_tpe: int, d: int, l: int) -> int:
    return compression_rate_flat(n_e * n_tpe, d, l)


def compression_rate_flat(n_t: int, d: int, l: int) -> int:
    volume = n_t * d
    if l <= 0 or volume % l:
        raise PlanError(f"latent size {l} does not divide input volume {volume}")
    return volume // l


def search_grid(l_min: int, l_max: int) -> list[tuple[int, list[LatentSpec]]]:
    """Latent sweep: l doubles from l_min to l_max; per l = 2^(2i-1) or 2^(2i),
    five specs with t from 2^(i-2) to 2^(i+2)."""
    _require_pow2(l_min=l_min, l_max=l_max)
    if l_min > l_max:
        raise PlanError("l_min must be <= l_max")
    grid = []
    l = l_min
    while l <= l_max:
        exp = _log2(l)
        i = (exp + 1) // 2
        specs = []
        for t_exp in range(i - 2, i + 3):
            t = 2 ** t_exp
            if t < 1 or l % t:
                raise PlanError(f"grid point t={t} infeasible for l={l}")
            specs.append(LatentSpec(t, l // t))
        grid.append((l, specs))
        l *= 2
    return grid


# --- plan document exchange format -----------------------------------------

def save_plan(plan: LayerPlan, path: Path | str) -> None:
    Path(path).write_text(json_text(plan_to_dict(plan)))


def plan_to_dict(plan: LayerPlan) -> dict:
    return {
        "backbone": plan.backbone,
        "direction": plan.direction,
        "input_shape": list(plan.input_shape),
        "output_shape": list(plan.output_shape),
        "ops": [asdict(op) for op in plan.ops],
    }


# A plan document's JSON keys, each with its converter (`manifest.json_fields`).
_OPS = json_entries(LayerOp, {"kind": STRING, "factor": INTEGER, "target": INTEGER})
_SHAPE = json_list("two positive integers", int, 2)
_PLAN_KEYS = {"backbone": STRING, "direction": STRING, "input_shape": _SHAPE,
              "output_shape": _SHAPE, "ops": lambda key, ops: list(_OPS(key, ops))}


def load_plan(path: Path | str) -> LayerPlan:
    """Read a plan document; malformed content fails naming the file."""
    with reading(path, PlanError):
        return LayerPlan(**json_fields(LayerPlan, json_doc(Path(path).read_text()), _PLAN_KEYS))
