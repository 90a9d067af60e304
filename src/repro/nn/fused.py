"""Fused autograd kernels: one graph node per mathematical operation.

The generic autograd engine composes every softmax, LayerNorm or GELU out
of 5-10 primitive nodes, each holding a full-size intermediate array and a
Python closure.  For the Transformer hot loop that dominates TFMAE
training and scoring this is the main source of both allocation traffic
and Python overhead.  Each kernel here computes the same mathematical
function in a **single** graph node with a hand-written backward that
saves only what the gradient formula actually needs:

================  =============================  ===========================
kernel            reference graph saves           fused backward saves
================  =============================  ===========================
softmax           shifted, exp, sum, out         softmax output only
log_softmax       shifted, exp, sum, log, out    log-softmax output only
layer_norm        mu, centred, var, std, x-hat   x-hat and 1/std
gelu              x³-poly, tanh, 3 products      input and tanh(u)
dropout_residual  mask product, sum              dropout mask only
attention (SDPA)  QKᵀ, shifted, exp, sum,        softmax weights (+ dropout
                  weights, context               mask); reuses q/k/v data
================  =============================  ===========================

Forward numerics are performed with the *same operation sequence* as the
unfused reference composition, so in float64 the fused forward is
bit-identical; every backward is verified against the reference by
finite-difference :func:`repro.nn.gradcheck` in the test-suite.

:func:`use_fused` / :func:`fused_enabled` provide the switch so the
equivalence tests and micro-benchmarks can flip between the fused and
reference paths; the public :mod:`repro.nn.functional` entry points
dispatch on it.

Threading contract
------------------
The switch is a :class:`repro.nn.policy.Switch`, like
:mod:`repro.nn.dtype`'s:

* :func:`set_fused` sets the **process-wide default** (True at import).
* :func:`use_fused` is a **thread-local override**: it scopes the toggle
  to the current thread only, so a test or benchmark flipping to the
  reference path can never make the serve scheduler's worker pool — or a
  training thread — silently take the slow (or fast) path mid-run.
  Overrides nest; the innermost active one wins on its own thread.
"""

from __future__ import annotations

import numpy as np

from .policy import Switch
from .tensor import Tensor, _unbroadcast

__all__ = [
    "fused_enabled",
    "set_fused",
    "use_fused",
    "softmax",
    "log_softmax",
    "layer_norm",
    "gelu",
    "dropout_residual",
    "scaled_dot_product_attention",
    "reference_softmax",
    "reference_log_softmax",
    "reference_layer_norm",
    "reference_gelu",
    "reference_dropout_residual",
    "reference_scaled_dot_product_attention",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_COEFF = 0.044715

_FUSED = Switch(True, bool)

#: Whether the fused kernels are active on this thread (default True).
fused_enabled = _FUSED.get
#: Set the process-wide default for the fused kernels.
set_fused = _FUSED.set
#: Thread-local fused-kernel override, usable as a context manager.
use_fused = _FUSED.override


# ----------------------------------------------------------------------
# fused kernels
# ----------------------------------------------------------------------
def _softmax_data(data: np.ndarray, axis: int) -> np.ndarray:
    """Numerically-stable softmax, matching the reference op sequence."""
    shifted = data - data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Single-node softmax; backward saves only the softmax output."""
    out_data = _softmax_data(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (x,), backward, op="fused_softmax",
                        meta={"axis": axis})


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Single-node log-softmax; backward saves only the output."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - np.exp(out_data) * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward, op="fused_log_softmax",
                        meta={"axis": axis})


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Single-node layer normalisation over the trailing dimension.

    Backward saves the normalised activations and the inverse std; the
    reference composition keeps five full-size intermediates.
    """
    data = x.data
    # Mirror the reference op sequence (sum · 1/count, not np.mean) so the
    # float64 forward stays bit-identical to the composition.
    inv_count = 1.0 / data.shape[-1]
    mu = data.sum(axis=-1, keepdims=True) * inv_count
    centred = data - mu
    var = (centred * centred).sum(axis=-1, keepdims=True) * inv_count
    std = np.sqrt(var + eps)
    x_hat = centred / std
    out_data = x_hat * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        g = grad * weight.data
        g_mean = g.mean(axis=-1, keepdims=True)
        g_hat_mean = np.mean(g * x_hat, axis=-1, keepdims=True)
        x._accumulate((g - g_mean - x_hat * g_hat_mean) / std)
        weight._accumulate(_unbroadcast(grad * x_hat, weight.shape))
        bias._accumulate(_unbroadcast(grad, bias.shape))

    return Tensor._make(out_data, (x, weight, bias), backward, op="fused_layer_norm",
                        meta={"eps": eps})


def gelu(x: Tensor) -> Tensor:
    """Single-node GELU (tanh approximation) with an analytic backward."""
    data = x.data
    # Same association order as the reference composition so the float64
    # forward stays bit-identical.
    u = (data + data * data * data * _GELU_COEFF) * _SQRT_2_OVER_PI
    t = np.tanh(u)
    out_data = data * 0.5 * (t + 1.0)

    def backward(grad: np.ndarray) -> None:
        du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_COEFF * data * data)
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * data * (1.0 - t * t) * du))

    return Tensor._make(out_data, (x,), backward, op="fused_gelu")


def dropout_residual(
    x: Tensor,
    residual: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Fused ``residual + dropout(x)`` in one node (Transformer residual add).

    Draws the dropout mask with the same RNG call the reference
    :func:`repro.nn.functional.dropout` uses, so the two paths consume
    identical random streams.
    """
    if training and p > 0.0:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        # Interactive fallback; repro callers thread a seeded generator.
        generator = rng if rng is not None else np.random.default_rng()  # repro: noqa[RNG001]
        mask = ((generator.random(x.shape) >= p) / (1.0 - p)).astype(
            x.data.dtype, copy=False
        )
        out_data = residual.data + x.data * mask
    else:
        mask = None
        out_data = residual.data + x.data

    def backward(grad: np.ndarray) -> None:
        residual._accumulate(_unbroadcast(grad, residual.shape))
        x._accumulate(_unbroadcast(grad if mask is None else grad * mask, x.shape))

    return Tensor._make(out_data, (x, residual), backward, op="fused_dropout_residual",
                        meta={"mask": mask})


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Fused attention: ``softmax(q kᵀ · scale) v`` in a single graph node.

    Returns ``(context, weights)`` where ``weights`` is the plain-numpy
    softmax output (pre-dropout), exposed for the ``last_attention``
    diagnostics.  The hand-written backward saves only the softmax
    weights (plus the dropout mask when active) and reuses the q/k/v data
    arrays already owned by the inputs — the reference composition
    retains six full ``(B, H, T, T)`` intermediates across its nodes.
    """
    q_data, k_data, v_data = q.data, k.data, v.data
    scores = q_data @ np.swapaxes(k_data, -1, -2)
    scores *= scale
    weights = _softmax_data(scores, -1)
    if training and dropout_p > 0.0:
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {dropout_p}")
        # Interactive fallback; repro callers thread a seeded generator.
        generator = rng if rng is not None else np.random.default_rng()  # repro: noqa[RNG001]
        mask = ((generator.random(weights.shape) >= dropout_p) / (1.0 - dropout_p)).astype(
            weights.dtype, copy=False
        )
        dropped = weights * mask
    else:
        mask = None
        dropped = weights
    out_data = dropped @ v_data

    def backward(grad: np.ndarray) -> None:
        grad_dropped = grad @ np.swapaxes(v_data, -1, -2)
        v._accumulate(np.swapaxes(dropped, -1, -2) @ grad)
        grad_weights = grad_dropped if mask is None else grad_dropped * mask
        inner = (grad_weights * weights).sum(axis=-1, keepdims=True)
        grad_scores = weights * (grad_weights - inner)
        grad_scores *= scale
        q._accumulate(grad_scores @ k_data)
        k._accumulate(np.swapaxes(grad_scores, -1, -2) @ q_data)

    return Tensor._make(out_data, (q, k, v), backward, op="fused_attention",
                        meta={"scale": scale, "mask": mask}), weights


# ----------------------------------------------------------------------
# unfused reference compositions (equivalence targets for the tests)
# ----------------------------------------------------------------------
def reference_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax as the multi-node primitive composition."""
    return x.softmax(axis=axis)


def reference_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax as the multi-node primitive composition."""
    return x.log_softmax(axis=axis)


def reference_layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation as the multi-node primitive composition."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mu) / (var + eps).sqrt()
    return normalised * weight + bias


def reference_gelu(x: Tensor) -> Tensor:
    """GELU (tanh approximation) as the multi-node primitive composition."""
    inner = (x + x * x * x * _GELU_COEFF) * _SQRT_2_OVER_PI
    return x * 0.5 * (inner.tanh() + 1.0)


def reference_dropout_residual(
    x: Tensor,
    residual: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """``residual + dropout(x)`` as separate dropout and add nodes."""
    if training and p > 0.0:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        # Interactive fallback; repro callers thread a seeded generator.
        generator = rng if rng is not None else np.random.default_rng()  # repro: noqa[RNG001]
        mask = (generator.random(x.shape) >= p) / (1.0 - p)
        return residual + x * Tensor(mask)
    return residual + x


def reference_scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Attention as the multi-node primitive composition."""
    scores = (q @ k.swapaxes(-1, -2)) * scale
    weights = scores.softmax(axis=-1)
    weights_data = weights.data
    if training and dropout_p > 0.0:
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {dropout_p}")
        # Interactive fallback; repro callers thread a seeded generator.
        generator = rng if rng is not None else np.random.default_rng()  # repro: noqa[RNG001]
        mask = (generator.random(weights.shape) >= dropout_p) / (1.0 - dropout_p)
        weights = weights * Tensor(mask)
    return weights @ v, weights_data
