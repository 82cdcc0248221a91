"""A small-but-real GPT-style transformer on numpy.

Pre-LayerNorm decoder blocks with causal attention, GELU MLPs, learned
positional embeddings, and an untied LM head.  Forward and backward are
explicit (no autograd); parameters and gradients are flat ``dict[str,
ndarray]`` so the Adam implementations, ZeRO sharding, and the STV engine
operate on them directly.

The model step can run allocation-free: pass an
:class:`~repro.tensors.workspace.ActivationWorkspace` and every
activation, backward temporary, and attention cache is served from
reused shape-keyed buffers (zero workspace allocations after the first
step), and ``attn_backend="streaming"`` routes attention through the
blocked online-softmax kernel (:mod:`repro.numeric.flash`) that never
materializes the ``S x S`` score matrix.  Parameter *gradients* are
always freshly allocated — they outlive the step.

Workspace lifetime contract: each ``forward`` recycles the previous
step's buffers, so a workspace-backed model must pair every ``forward``
with its ``backward`` (as :meth:`loss_and_grads` does) before the next
forward begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.numeric.attention import MultiHeadAttention
from repro.numeric.layers import (
    Dense,
    Embedding,
    LayerNorm,
    cross_entropy,
    gelu,
    gelu_grad,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.tensors.workspace import ActivationWorkspace

Params = Dict[str, np.ndarray]


@dataclass(frozen=True)
class TransformerParams:
    """Structural hyperparameters of the tiny transformer.

    Attributes:
        vocab: vocabulary size.
        max_seq: positional table length.
        hidden: model width.
        n_layers: block count.
        n_heads: attention heads.
        ffn_mult: MLP expansion factor.
    """

    vocab: int = 128
    max_seq: int = 64
    hidden: int = 32
    n_layers: int = 2
    n_heads: int = 4
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        if self.hidden % self.n_heads:
            raise ValueError("hidden must be divisible by n_heads")


class TinyTransformer:
    """The numeric-substrate model.

    Args:
        spec: structural hyperparameters.
        seed: parameter-initialization seed (fully deterministic).
        workspace: optional activation workspace; when given, the whole
            model step reuses its buffers across layers and steps.
        attn_backend: ``"dense"`` (bitwise reference) or ``"streaming"``
            (blocked, never materializes ``S x S``).
        block_q, block_k: streaming attention tile sides.
        pool: kernel pool for the streaming tile fan-out.
        telemetry: metric sink for the attention cache-byte counters.
    """

    def __init__(
        self,
        spec: TransformerParams,
        seed: int = 0,
        workspace: Optional[ActivationWorkspace] = None,
        attn_backend: str = "dense",
        block_q: Optional[int] = None,
        block_k: Optional[int] = None,
        pool=None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        self.spec = spec
        self.workspace = workspace
        self.telemetry = telemetry
        self.attn = MultiHeadAttention(
            spec.n_heads,
            backend=attn_backend,
            block_q=block_q,
            block_k=block_k,
            pool=pool,
            workspace=workspace,
            telemetry=telemetry,
        )
        rng = np.random.default_rng(seed)
        h, f = spec.hidden, spec.hidden * spec.ffn_mult
        scale = 0.02

        def init(*shape: int) -> np.ndarray:
            return (scale * rng.standard_normal(shape)).astype(np.float32)

        params: Params = {
            "tok_emb": init(spec.vocab, h),
            "pos_emb": init(spec.max_seq, h),
            "ln_f.g": np.ones(h, dtype=np.float32),
            "ln_f.b": np.zeros(h, dtype=np.float32),
            "head.w": init(h, spec.vocab),
            "head.b": np.zeros(spec.vocab, dtype=np.float32),
        }
        for i in range(spec.n_layers):
            params[f"h{i}.ln1.g"] = np.ones(h, dtype=np.float32)
            params[f"h{i}.ln1.b"] = np.zeros(h, dtype=np.float32)
            params[f"h{i}.qkv.w"] = init(h, 3 * h)
            params[f"h{i}.qkv.b"] = np.zeros(3 * h, dtype=np.float32)
            params[f"h{i}.proj.w"] = init(h, h)
            params[f"h{i}.proj.b"] = np.zeros(h, dtype=np.float32)
            params[f"h{i}.ln2.g"] = np.ones(h, dtype=np.float32)
            params[f"h{i}.ln2.b"] = np.zeros(h, dtype=np.float32)
            params[f"h{i}.fc1.w"] = init(h, f)
            params[f"h{i}.fc1.b"] = np.zeros(f, dtype=np.float32)
            params[f"h{i}.fc2.w"] = init(f, h)
            params[f"h{i}.fc2.b"] = np.zeros(h, dtype=np.float32)
        self.params = params

    # -- forward --------------------------------------------------------------

    def forward(
        self, ids: np.ndarray, params: Params | None = None
    ) -> Tuple[np.ndarray, List]:
        """Compute logits for ``(batch, seq)`` token ids.

        Args:
            ids: integer token ids.
            params: parameter set to use; defaults to the model's own (the
                mixed-precision engine passes the fp16 copy widened to fp32).

        Returns:
            (logits, caches) — caches feed :meth:`backward`.  With a
            workspace, logits and caches are workspace buffers that stay
            valid until the *next* ``forward`` call.
        """
        p = params if params is not None else self.params
        b, s = ids.shape
        if s > self.spec.max_seq:
            raise ValueError(f"sequence {s} exceeds max_seq {self.spec.max_seq}")
        ws = self.workspace
        if ws is not None:
            ws.new_step()
        caches: List = []
        x, tok_cache = Embedding.forward(ids, p["tok_emb"], ws)
        x += p["pos_emb"][:s][None, :, :]
        caches.append(("embed", tok_cache, s))
        streaming_ws = ws is not None and self.attn.backend == "streaming"
        for i in range(self.spec.n_layers):
            ln1, ln1_cache = LayerNorm.forward(
                x, p[f"h{i}.ln1.g"], p[f"h{i}.ln1.b"], ws
            )
            qkv, qkv_cache = Dense.forward(
                ln1, p[f"h{i}.qkv.w"], p[f"h{i}.qkv.b"], ws
            )
            attn_out, attn_cache = self.attn.forward(qkv)
            if streaming_ws:
                # The streaming cache holds contiguous per-head copies,
                # not views into qkv, so the fused projection buffer can
                # be recycled immediately (the dense cache aliases it).
                ws.give(qkv)
            proj, proj_cache = Dense.forward(
                attn_out, p[f"h{i}.proj.w"], p[f"h{i}.proj.b"], ws
            )
            if ws is None:
                x = x + proj
            else:
                res = ws.take(x.shape, x.dtype)
                np.add(x, proj, out=res)
                ws.give(x)
                ws.give(proj)
                x = res
            ln2, ln2_cache = LayerNorm.forward(
                x, p[f"h{i}.ln2.g"], p[f"h{i}.ln2.b"], ws
            )
            fc1, fc1_cache = Dense.forward(
                ln2, p[f"h{i}.fc1.w"], p[f"h{i}.fc1.b"], ws
            )
            act = gelu(fc1, ws)
            fc2, fc2_cache = Dense.forward(
                act, p[f"h{i}.fc2.w"], p[f"h{i}.fc2.b"], ws
            )
            if ws is None:
                x = x + fc2
            else:
                res = ws.take(x.shape, x.dtype)
                np.add(x, fc2, out=res)
                ws.give(x)
                ws.give(fc2)
                x = res
            caches.append(
                (
                    "block",
                    i,
                    ln1_cache,
                    qkv_cache,
                    attn_cache,
                    proj_cache,
                    ln2_cache,
                    fc1_cache,
                    fc1,
                    fc2_cache,
                )
            )
        lnf, lnf_cache = LayerNorm.forward(x, p["ln_f.g"], p["ln_f.b"], ws)
        if ws is not None:
            ws.give(x)
        logits, head_cache = Dense.forward(lnf, p["head.w"], p["head.b"], ws)
        caches.append(("final", lnf_cache, head_cache))
        return logits, caches

    # -- loss + backward --------------------------------------------------------

    def loss_and_grads(
        self,
        ids: np.ndarray,
        targets: np.ndarray,
        params: Params | None = None,
        loss_scale: float = 1.0,
    ) -> Tuple[float, Params]:
        """Full forward + backward.

        Args:
            ids: input token ids ``(batch, seq)``.
            targets: next-token targets, same shape.
            params: parameter set (defaults to the master copy).
            loss_scale: multiplier applied to the loss before backward —
                the mixed-precision loss-scaling hook.

        Returns:
            (unscaled loss, gradients keyed like the parameters; gradients
            are of the *scaled* loss).
        """
        tracer = self.telemetry.tracer
        with tracer.span("forward", category="compute"):
            logits, caches = self.forward(ids, params)
            loss, dlogits = cross_entropy(logits, targets, self.workspace)
        if loss_scale != 1.0:
            dlogits *= np.float32(loss_scale)
        with tracer.span("backward", category="compute"):
            grads = self.backward(dlogits, caches)
        return loss, grads

    def backward(self, dlogits: np.ndarray, caches: List) -> Params:
        """Backpropagate from logits gradient to parameter gradients.

        Parameter gradients are freshly allocated (they outlive the
        step); the activation-gradient chain runs through the workspace
        when one is attached, ping-ponging a handful of buffers across
        layers.
        """
        ws = self.workspace
        grads: Params = {}
        kind, lnf_cache, head_cache = caches[-1]
        if kind != "final":
            raise RuntimeError("corrupt cache stack")
        dlnf, grads["head.w"], grads["head.b"] = Dense.backward(
            dlogits, head_cache, ws
        )
        dx, grads["ln_f.g"], grads["ln_f.b"] = LayerNorm.backward(
            dlnf, lnf_cache, ws
        )
        if ws is not None:
            ws.give(dlogits)
            ws.give(dlnf)
        for cache in reversed(caches[1:-1]):
            (
                _kind,
                i,
                ln1_cache,
                qkv_cache,
                attn_cache,
                proj_cache,
                ln2_cache,
                fc1_cache,
                fc1,
                fc2_cache,
            ) = cache
            dfc2, grads[f"h{i}.fc2.w"], grads[f"h{i}.fc2.b"] = Dense.backward(
                dx, fc2_cache, ws
            )
            dact = gelu_grad(fc1, ws)
            dact *= dfc2
            dln2, grads[f"h{i}.fc1.w"], grads[f"h{i}.fc1.b"] = Dense.backward(
                dact, fc1_cache, ws
            )
            dres, grads[f"h{i}.ln2.g"], grads[f"h{i}.ln2.b"] = LayerNorm.backward(
                dln2, ln2_cache, ws
            )
            dx += dres
            dproj, grads[f"h{i}.proj.w"], grads[f"h{i}.proj.b"] = Dense.backward(
                dx, proj_cache, ws
            )
            dqkv = self.attn.backward(dproj, attn_cache)
            dln1, grads[f"h{i}.qkv.w"], grads[f"h{i}.qkv.b"] = Dense.backward(
                dqkv, qkv_cache, ws
            )
            dres1, grads[f"h{i}.ln1.g"], grads[f"h{i}.ln1.b"] = LayerNorm.backward(
                dln1, ln1_cache, ws
            )
            dx += dres1
            if ws is not None:
                for buf in (dfc2, dact, dln2, dres, dproj, dqkv, dln1,
                            dres1):
                    ws.give(buf)
        _kind, tok_cache, s = caches[0]
        grads["pos_emb"] = np.zeros_like(self.params["pos_emb"])
        grads["pos_emb"][:s] = dx.sum(axis=0)
        grads["tok_emb"] = Embedding.backward(dx, tok_cache)
        if ws is not None:
            ws.give(dx)
        for name, g in grads.items():
            grads[name] = np.ascontiguousarray(g, dtype=np.float32)
        return grads

    def loss(self, ids: np.ndarray, targets: np.ndarray, params: Params | None = None) -> float:
        """Forward-only loss (used by finite-difference tests)."""
        logits, _ = self.forward(ids, params)
        value, _ = cross_entropy(logits, targets, self.workspace)
        return value

    def param_count(self) -> int:
        """Total scalar parameters."""
        return sum(p.size for p in self.params.values())
