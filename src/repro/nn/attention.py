"""Multi-head dot-product self-attention (paper Eq. 12).

The paper's autoencoders use vanilla Transformer attention: queries, keys
and values are linear projections of the input, attention weights are a
softmax over scaled dot products, and heads are concatenated and projected
back to the model dimension.
"""

from __future__ import annotations

import numpy as np

from . import fused
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Self-attention over sequences shaped ``(batch, time, dim)``.

    Parameters
    ----------
    dim:
        Model (embedding) dimension ``D``.
    num_heads:
        Number of attention heads; must divide ``dim``.
    dropout:
        Dropout probability applied to attention weights during training.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0, keep_attention_graph: bool = False):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.attn_dropout = Dropout(dropout, rng)
        #: when True, :attr:`last_attention_tensor` keeps the weights
        #: attached to the autograd graph (needed by the Anomaly
        #: Transformer's association-discrepancy loss).
        self.keep_attention_graph = keep_attention_graph
        self._last_attention: np.ndarray | None = None
        self._last_attention_tensor: Tensor | None = None

    def forward(self, x: Tensor, rows: int | None = None) -> Tensor:
        """Attend from the trailing ``rows`` query positions (all when
        ``None``) over every key/value position of ``x``."""
        batch, time, dim = x.shape
        query = x if rows is None else x[:, -rows:]
        q = self._split_heads(self.q_proj(query), batch, query.shape[1])
        k = self._split_heads(self.k_proj(x), batch, time)
        v = self._split_heads(self.v_proj(x), batch, time)

        if fused.fused_enabled() and not self.keep_attention_graph:
            # Fast path: QKᵀ → softmax → (dropout) → ·V in one graph node
            # with a hand-written backward (see repro.nn.fused).
            context, weights_data = fused.scaled_dot_product_attention(
                q, k, v,
                scale=self.scale,
                dropout_p=self.attn_dropout.p,
                training=self.attn_dropout.training,
                rng=self.attn_dropout.rng,
            )
            self._last_attention = weights_data  # exposed for analysis/tests
            self._last_attention_tensor = None
        else:
            # Reference composition; required when the attention weights
            # must stay on the graph (Anomaly Transformer's association
            # discrepancy differentiates through them).
            scores = (q @ k.swapaxes(-1, -2)) * self.scale
            weights = scores.softmax(axis=-1)
            self._last_attention = weights.data  # exposed for analysis/tests
            self._last_attention_tensor = weights if self.keep_attention_graph else None
            weights = self.attn_dropout(weights)
            context = weights @ v  # (batch, heads, rows, head_dim)

        merged = context.swapaxes(1, 2).reshape(batch, query.shape[1], dim)
        return self.out_proj(merged)

    def _split_heads(self, x: Tensor, batch: int, time: int) -> Tensor:
        return x.reshape(batch, time, self.num_heads, self.head_dim).swapaxes(1, 2)

    @property
    def last_attention(self) -> np.ndarray | None:
        """Attention weights of the most recent forward pass.

        Shape ``(batch, heads, time, time)``; used by the AnoTran baseline
        (association discrepancy) and by diagnostics.
        """
        return self._last_attention

    @property
    def last_attention_tensor(self) -> Tensor | None:
        """Graph-connected attention weights of the latest forward pass.

        Only populated when ``keep_attention_graph`` is set; shape
        ``(batch, heads, time, time)``.
        """
        return self._last_attention_tensor
