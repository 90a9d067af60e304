"""Transformer building blocks: sinusoidal positional encoding and
post-norm encoder layers (paper Eq. 11-13).

TFMAE uses the same layer type for both its "encoder" and "decoder" —
self-attention plus a feed-forward network with residual connections and
layer normalisation; the distinction is which tokens are fed in (unmasked
only vs. the full sequence), not the layer structure.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .attention import MultiHeadSelfAttention
from .layers import Dropout, GELU, LayerNorm, Linear, Sequential
from .module import Module
from .tensor import Tensor

__all__ = ["sinusoidal_positional_encoding", "TransformerLayer", "TransformerStack"]


def sinusoidal_positional_encoding(length: int, dim: int, positions: np.ndarray | None = None) -> np.ndarray:
    """Sinusoidal absolute positional encoding (Eq. 11).

    Parameters
    ----------
    length:
        Number of positions when ``positions`` is not given.
    dim:
        Embedding dimension ``D``.
    positions:
        Optional explicit integer positions, used by the temporal-masking
        autoencoder to place mask tokens at their *original* locations in
        the series rather than at contiguous indices.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(positions), dim)``.
    """
    if positions is None:
        positions = np.arange(length)
    # The encoding table is computed once in float64 so it is bit-identical
    # across compute_dtype policies; it is cast at the Tensor boundary.
    positions = np.asarray(positions, dtype=np.float64)[:, None]  # repro: noqa[F64001]
    dims = np.arange(dim)[None, :]
    # Even dimensions use sin(t / 10000^(i/D)); odd use cos with (i-1)/D.
    angle_rates = np.power(10000.0, -np.where(dims % 2 == 0, dims, dims - 1) / dim)
    angles = positions * angle_rates
    encoding = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return encoding


class TransformerLayer(Module):
    """Post-norm Transformer layer: attention + FFN with residuals (Eq. 13)."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: np.random.Generator,
        ffn_dim: int | None = None,
        dropout: float = 0.0,
    ):
        super().__init__()
        ffn_dim = ffn_dim if ffn_dim is not None else 4 * dim
        self.attention = MultiHeadSelfAttention(dim, num_heads, rng, dropout=dropout)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn = Sequential(
            Linear(dim, ffn_dim, rng),
            GELU(),
            Dropout(dropout, rng),
            Linear(ffn_dim, dim, rng),
        )
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor, rows: int | None = None) -> Tensor:
        """Output rows for the trailing ``rows`` positions (all when
        ``None``); keys and values still see every position of ``x``."""
        # Residual adds go through the fused dropout+residual kernel (one
        # graph node instead of mask-multiply + add); `self.dropout` keeps
        # owning the probability/RNG/mode state.
        drop = self.dropout
        residual = x if rows is None else x[:, -rows:]
        attended = self.norm1(
            F.dropout_residual(self.attention(x, rows), residual, drop.p, drop.training,
                               rng=drop.rng)
        )
        return self.norm2(
            F.dropout_residual(self.ffn(attended), attended, drop.p, drop.training, rng=drop.rng)
        )


class TransformerStack(Module):
    """``L`` stacked :class:`TransformerLayer` blocks."""

    def __init__(
        self,
        dim: int,
        num_layers: int,
        num_heads: int,
        rng: np.random.Generator,
        ffn_dim: int | None = None,
        dropout: float = 0.0,
    ):
        super().__init__()
        self.num_layers = num_layers
        self._names: list[str] = []
        for index in range(num_layers):
            name = f"layer{index}"
            setattr(self, name, TransformerLayer(dim, num_heads, rng, ffn_dim=ffn_dim, dropout=dropout))
            self._names.append(name)

    def forward(self, x: Tensor, rows: int | None = None) -> Tensor:
        """Run every layer; with ``rows``, the final layer computes only
        the trailing ``rows`` query rows, the only ones a later
        consumer of the last position reads."""
        final = len(self._names) - 1
        for index, name in enumerate(self._names):
            x = getattr(self, name)(x, rows if index == final else None)
        return x

    def __len__(self) -> int:
        return self.num_layers

    def __getitem__(self, index: int) -> TransformerLayer:
        return getattr(self, self._names[index])
