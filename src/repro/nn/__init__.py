"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

This subpackage replaces PyTorch for the TFMAE reproduction: a reverse-mode
autograd engine (:mod:`~repro.nn.tensor`), module system, Transformer
layers, recurrent/convolutional layers for the baselines, and the Adam
optimiser the paper trains with.
"""

from . import functional, fused, jit
from .attention import MultiHeadSelfAttention
from .dtype import default_dtype, get_default_dtype, set_default_dtype
from .gradcheck import GradcheckError, gradcheck
from .jit import jit_enabled, set_jit, use_jit
from .layers import (
    GELU,
    GRU,
    Conv1d,
    Dropout,
    GRUCell,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer
from .serialization import (
    CheckpointError,
    load_metadata,
    load_model,
    load_training_state,
    save_model,
    save_training_state,
)
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .transformer import TransformerLayer, TransformerStack, sinusoidal_positional_encoding

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "functional",
    "fused",
    "jit",
    "jit_enabled",
    "set_jit",
    "use_jit",
    "gradcheck",
    "GradcheckError",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "Linear",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Conv1d",
    "GRUCell",
    "GRU",
    "MultiHeadSelfAttention",
    "TransformerLayer",
    "TransformerStack",
    "sinusoidal_positional_encoding",
    "Optimizer",
    "SGD",
    "Adam",
    "save_model",
    "load_model",
    "save_training_state",
    "load_training_state",
    "load_metadata",
    "CheckpointError",
]
