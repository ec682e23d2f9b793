"""Transformer-block workloads lowered to the paper's GEMM stream.

The paper's evaluation (§6.2) spans CNNs and DLRM MLPs; transformer
blocks extend the same methodology to attention.  A block decomposes
into exactly the linear layers intensity-guided ABFT reasons about:

* ``qkv`` — the fused query/key/value projection,
  ``(batch*seq) x d_model x 3*d_model``;
* per head ``h``: ``attn.h{h}.scores`` (``Q_h @ K_h^T / sqrt(d_h)``,
  a skinny ``k = d_h`` GEMM) and ``attn.h{h}.ctx`` (attention
  probabilities times ``V_h``, ``k = kv``);
* ``attn.out`` — the output projection;
* ``ffn.fc1`` / ``ffn.fc2`` — the two feed-forward GEMMs, the
  compute-heavy ``k = d_model`` / ``k = d_ff`` layers.

The attention-score GEMMs have small reduction dimensions (``d_h`` is
typically 32-128), putting them on the bandwidth-bound side of the
roofline where global ABFT's extra output traffic hurts, while the FFN
GEMMs are squarely compute-bound — the intensity split that makes the
guided scheme choose differently *within one block*.

Two views are produced, mirroring the CNN zoo:

* :func:`build_transformer_graph` — shape-only
  :class:`~repro.nn.ModelGraph` for selection and deployment planning;
* :func:`build_transformer_runnable` — a seeded numeric
  :class:`~repro.nn.SequentialModel` whose linear names match the
  graph layer for layer, so propagation campaigns and protected
  sessions run unchanged.

The runnable model executes decode-style attention against a frozen,
seeded key/value cache (length ``kv_len``), shared across the batch:
every per-head GEMM then has a fixed weight-side operand, which is what
lets the engine reuse prepared weight checksums across forward passes
exactly as it does for convolution kernels.  Softmax, GELU and the
concatenation plumbing run as nonlinear ops outside ABFT protection,
matching how the paper treats activations (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ..errors import ModelZooError, ShapeError
from ..gemm.problem import GemmProblem
from .graph import LinearLayer, ModelGraph
from .inference import Linear, SequentialModel, _Op
from .layers import LinearSpec

__all__ = [
    "TransformerBlockSpec",
    "TRANSFORMER_PRESETS",
    "transformer_models",
    "build_transformer_graph",
    "build_transformer_runnable",
]


@dataclass(frozen=True)
class TransformerBlockSpec:
    """Shape of one transformer block's linear layers.

    ``seq_len`` is the *query* length (rows fed through the block);
    ``kv_len`` is the key/value cache length attended over, defaulting
    to ``seq_len`` (encoder-style self-attention).  A GPT-style decode
    step uses a short ``seq_len`` against a long ``kv_len``.

    >>> spec = TransformerBlockSpec(d_model=64, n_heads=2, d_ff=128, seq_len=4)
    >>> spec.head_dim, spec.kv, spec.rows
    (32, 4, 4)
    >>> TransformerBlockSpec(d_model=65, n_heads=2, d_ff=128, seq_len=4)
    Traceback (most recent call last):
        ...
    repro.errors.ShapeError: d_model (65) must divide evenly into 2 heads
    """

    d_model: int
    n_heads: int
    d_ff: int
    seq_len: int
    batch: int = 1
    kv_len: int | None = None

    def __post_init__(self) -> None:
        for field_name in ("d_model", "n_heads", "d_ff", "seq_len", "batch"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 1:
                raise ShapeError(
                    f"{field_name} must be a positive int, got {value!r}"
                )
        if self.kv_len is not None and (
            not isinstance(self.kv_len, int) or self.kv_len < 1
        ):
            raise ShapeError(f"kv_len must be a positive int, got {self.kv_len!r}")
        if self.d_model % self.n_heads:
            raise ShapeError(
                f"d_model ({self.d_model}) must divide evenly into "
                f"{self.n_heads} heads"
            )

    @property
    def head_dim(self) -> int:
        """Per-head feature width ``d_model / n_heads``."""
        return self.d_model // self.n_heads

    @property
    def kv(self) -> int:
        """Key/value cache length (``kv_len``, defaulting to ``seq_len``)."""
        return self.seq_len if self.kv_len is None else self.kv_len

    @property
    def rows(self) -> int:
        """GEMM row count ``batch * seq_len`` shared by every layer."""
        return self.batch * self.seq_len


#: The two shipped block presets.  ``transformer_encoder`` is a small
#: encoder block with square self-attention; ``transformer_decoder`` is
#: a GPT-style decode step — few query rows against a long KV cache,
#: which drives the attention GEMMs deep into bandwidth-bound territory
#: while the FFN stays compute-bound.
TRANSFORMER_PRESETS: Mapping[str, TransformerBlockSpec] = {
    "transformer_encoder": TransformerBlockSpec(
        d_model=128, n_heads=4, d_ff=512, seq_len=32
    ),
    "transformer_decoder": TransformerBlockSpec(
        d_model=128, n_heads=4, d_ff=512, seq_len=8, kv_len=128
    ),
}


def transformer_models() -> list[str]:
    """Names of the transformer presets, in zoo order.

    >>> transformer_models()
    ['transformer_encoder', 'transformer_decoder']
    """
    return list(TRANSFORMER_PRESETS)


def _spec_for(name: str, batch: int | None) -> TransformerBlockSpec:
    spec = TRANSFORMER_PRESETS.get(name.lower())
    if spec is None:
        raise ModelZooError(
            f"unknown transformer preset {name!r}; presets are "
            f"{transformer_models()}"
        )
    if batch is not None:
        spec = replace(spec, batch=batch)
    return spec


def _layer_names(spec: TransformerBlockSpec) -> list[str]:
    names = ["qkv"]
    for h in range(spec.n_heads):
        names += [f"attn.h{h}.scores", f"attn.h{h}.ctx"]
    return names + ["attn.out", "ffn.fc1", "ffn.fc2"]


def build_transformer_graph(
    name: str, *, batch: int | None = None, spec: TransformerBlockSpec | None = None
) -> ModelGraph:
    """Shape-only graph of one transformer block's GEMM stream.

    ``name`` selects a preset from :data:`TRANSFORMER_PRESETS` unless an
    explicit ``spec`` is given (the graph is then labeled ``name``).

    >>> graph = build_transformer_graph("transformer_encoder")
    >>> [layer.name for layer in graph][:4]
    ['qkv', 'attn.h0.scores', 'attn.h0.ctx', 'attn.h1.scores']
    >>> graph.layers[1].kind, graph.layers[1].problem.k
    ('attention', 32)
    """
    if spec is None:
        spec = _spec_for(name, batch)
    elif batch is not None:
        spec = replace(spec, batch=batch)
    m, dh, kv = spec.rows, spec.head_dim, spec.kv

    def _layer(layer_name: str, kind: str, n: int, k: int) -> LinearLayer:
        problem = GemmProblem(m, n, k, label=f"{name}/{layer_name}")
        return LinearLayer(name=layer_name, kind=kind, problem=problem)

    layers = [_layer("qkv", "linear", 3 * spec.d_model, spec.d_model)]
    for h in range(spec.n_heads):
        layers.append(_layer(f"attn.h{h}.scores", "attention", kv, dh))
        layers.append(_layer(f"attn.h{h}.ctx", "attention", dh, kv))
    layers.append(_layer("attn.out", "linear", spec.d_model, spec.d_model))
    layers.append(_layer("ffn.fc1", "linear", spec.d_ff, spec.d_model))
    layers.append(_layer("ffn.fc2", "linear", spec.d_model, spec.d_ff))
    return ModelGraph(
        name=name,
        batch=spec.batch,
        input_desc=f"{spec.seq_len}x{spec.d_model} (kv={kv})",
        layers=tuple(layers),
    )


# ----------------------------------------------------------------------
# Runnable ops.  The sequential engine threads ONE activation tensor
# through the op list, so multi-head attention is expressed by carrying
# intermediate results as extra columns: each head's scores op appends
# its score block, softmax renormalizes those trailing columns, and the
# context op swaps them for the head's output columns.  By the time
# ``attn.out`` runs, the activation's trailing d_model columns are the
# concatenated head contexts.
# ----------------------------------------------------------------------


class _HeadScores(_Op):
    """Per-head attention scores ``Q_h @ (K_h^T / sqrt(d_h))``.

    The scaled, transposed key cache is the fixed weight-side operand;
    the query slice is carved out of the activation's leading ``qkv``
    columns.  The score block is appended to the activation.
    """

    is_linear = True

    def __init__(self, head: int, head_dim: int, b: np.ndarray, *, name: str) -> None:
        self.head = head
        self.head_dim = head_dim
        self.name = name
        self.weights = b.astype(np.float16)  # (head_dim, kv)

    def lower(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo = self.head * self.head_dim
        q = x[:, lo : lo + self.head_dim]
        return np.ascontiguousarray(q, dtype=np.float16), self.weights, x

    def reshape_output(self, c: np.ndarray, ctx: np.ndarray) -> np.ndarray:
        return np.concatenate([ctx, c], axis=1)


class _SoftmaxTail(_Op):
    """Row softmax over the activation's trailing ``n`` columns (FP32)."""

    def __init__(self, n: int) -> None:
        self.n = n

    def forward(self, x: np.ndarray) -> np.ndarray:
        tail = x[:, -self.n :].astype(np.float32)
        tail -= tail.max(axis=1, keepdims=True)
        np.exp(tail, out=tail)
        tail /= tail.sum(axis=1, keepdims=True)
        return np.concatenate([x[:, : -self.n], tail.astype(np.float16)], axis=1)


class _HeadContext(_Op):
    """Per-head context ``softmax(scores) @ V_h``.

    Consumes the activation's trailing ``kv`` columns (the attention
    probabilities) and replaces them with the head's ``d_h`` output
    columns; everything before them is carried through untouched.
    """

    is_linear = True

    def __init__(self, kv: int, v: np.ndarray, *, name: str) -> None:
        self.kv = kv
        self.name = name
        self.weights = v.astype(np.float16)  # (kv, head_dim)

    def lower(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        probs = x[:, -self.kv :]
        carried = x[:, : -self.kv]
        return np.ascontiguousarray(probs, dtype=np.float16), self.weights, carried

    def reshape_output(self, c: np.ndarray, ctx: np.ndarray) -> np.ndarray:
        return np.concatenate([ctx, c], axis=1)


class _TailLinear(_Op):
    """Linear layer over the activation's trailing ``in_features`` columns.

    Used for the attention output projection: its input is the
    concatenated head contexts at the activation's tail, and its output
    *replaces* the whole activation (dropping the carried ``qkv``
    columns), returning the stream to a plain ``(rows, d_model)`` shape.
    """

    is_linear = True

    def __init__(self, spec: LinearSpec, weights: np.ndarray, *, name: str) -> None:
        if weights.shape != (spec.in_features, spec.out_features):
            raise ShapeError(
                f"{name}: weights must be "
                f"{(spec.in_features, spec.out_features)}, got {weights.shape}"
            )
        self.spec = spec
        self.name = name
        self.weights = weights.astype(np.float16)

    def lower(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        tail = x[:, -self.spec.in_features :]
        return np.ascontiguousarray(tail, dtype=np.float16), self.weights, None

    def reshape_output(self, c: np.ndarray, ctx: None) -> np.ndarray:
        return c


def _gelu_reference(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU, computed in FP32, emitted in FP16."""
    x32 = x.astype(np.float32)
    inner = np.sqrt(2.0 / np.pi) * (x32 + 0.044715 * x32**3)
    return (0.5 * x32 * (1.0 + np.tanh(inner))).astype(np.float16)


def _gelu_table() -> np.ndarray:
    """:func:`_gelu_reference` at every FP16 bit pattern, read-only.

    Index ``i`` holds GELU of the FP16 value whose bits are ``i``.
    ``-inf`` maps to NaN (``-inf * 0``), as the formula does.
    """
    every_fp16 = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    with np.errstate(invalid="ignore"):
        table = _gelu_reference(every_fp16.view(np.float16))
    table.flags.writeable = False
    return table


_GELU_TABLE = _gelu_table()


class _GELU(_Op):
    """Tanh-approximation GELU as a gather from a 2^16-entry FP16 table.

    Bit-identical to :func:`_gelu_reference` wherever the formula's
    result is not NaN; where it is NaN (NaN and ``-inf`` inputs) the
    table's result is NaN too, though its payload may differ.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        bits = x.astype(np.float16, copy=False).view(np.uint16)
        return _GELU_TABLE[bits]


def build_transformer_runnable(
    name: str,
    *,
    batch: int | None = None,
    seed: int = 0,
    spec: TransformerBlockSpec | None = None,
) -> SequentialModel:
    """A runnable numeric realization of a transformer-block preset.

    Linear-layer names match :func:`build_transformer_graph` exactly
    (same ``name``/``batch``), so the model drops straight into
    ``repro.deploy(name, runnable=...)``.  Weights and the frozen
    key/value cache are drawn from ``seed``.

    >>> model = build_transformer_runnable("transformer_decoder")
    >>> graph = build_transformer_graph("transformer_decoder")
    >>> model.linear_names == [layer.name for layer in graph]
    True
    """
    if spec is None:
        spec = _spec_for(name, batch)
    elif batch is not None:
        spec = replace(spec, batch=batch)
    key = name.lower()
    rng = np.random.default_rng([seed, *key.encode()])
    d, dh, kv = spec.d_model, spec.head_dim, spec.kv
    scale = 1.0 / np.sqrt(d)

    qkv_spec = LinearSpec(in_features=d, out_features=3 * d)
    ops: list[_Op] = [
        Linear(
            qkv_spec,
            SequentialModel.random_weights_linear(qkv_spec, rng),
            name="qkv",
        )
    ]
    # Frozen decode-style KV cache, shared across the batch: the fixed
    # weight-side operands of every per-head GEMM.
    k_cache = (rng.standard_normal((kv, d)) * scale).astype(np.float16)
    v_cache = (rng.standard_normal((kv, d)) * scale).astype(np.float16)
    for h in range(spec.n_heads):
        k_h = k_cache[:, h * dh : (h + 1) * dh].astype(np.float32)
        b_scores = (k_h.T / np.sqrt(dh)).astype(np.float16)
        ops.append(
            _HeadScores(h, dh, b_scores, name=f"attn.h{h}.scores")
        )
        ops.append(_SoftmaxTail(kv))
        ops.append(
            _HeadContext(
                kv, v_cache[:, h * dh : (h + 1) * dh], name=f"attn.h{h}.ctx"
            )
        )
    out_spec = LinearSpec(in_features=d, out_features=d)
    ops.append(
        _TailLinear(
            out_spec,
            SequentialModel.random_weights_linear(out_spec, rng),
            name="attn.out",
        )
    )
    fc1_spec = LinearSpec(in_features=d, out_features=spec.d_ff)
    ops.append(
        Linear(
            fc1_spec,
            SequentialModel.random_weights_linear(fc1_spec, rng),
            name="ffn.fc1",
        )
    )
    ops.append(_GELU())
    fc2_spec = LinearSpec(in_features=spec.d_ff, out_features=d)
    ops.append(
        Linear(
            fc2_spec,
            SequentialModel.random_weights_linear(fc2_spec, rng),
            name="ffn.fc2",
        )
    )
    return SequentialModel(ops, name=key)


def transformer_input_shape(
    name: str, *, batch: int | None = None, spec: TransformerBlockSpec | None = None
) -> tuple[int, int]:
    """The ``(rows, d_model)`` input the runnable block expects.

    >>> transformer_input_shape("transformer_decoder")
    (8, 128)
    """
    if spec is None:
        spec = _spec_for(name, batch)
    elif batch is not None:
        spec = replace(spec, batch=batch)
    return (spec.rows, spec.d_model)
