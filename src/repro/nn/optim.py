"""First-order optimisers for the numpy substrate.

The paper trains TFMAE with Adam (initial learning rate 1e-4); SGD is
provided for tests and simple baselines.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # state (de)serialisation — flat name -> ndarray, checkpoint-friendly
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of optimiser state; scalars become 0-d arrays."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict` in-place.

        Raises
        ------
        KeyError
            If an expected entry is missing.
        ValueError
            On any per-parameter shape mismatch.
        """

    def _restore_slots(
        self,
        state: dict[str, np.ndarray],
        prefix: str,
        slots: list[np.ndarray],
    ) -> None:
        """Copy ``{prefix}.{i}`` arrays from ``state`` into ``slots``."""
        for i, slot in enumerate(slots):
            key = f"{prefix}.{i}"
            if key not in state:
                raise KeyError(f"optimizer state missing entry: {key}")
            value = np.asarray(state[key])
            if value.shape != slot.shape:
                raise ValueError(
                    f"optimizer state shape mismatch for {key}: "
                    f"expected {slot.shape}, got {value.shape}"
                )
            slot[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float, momentum: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += param.grad
                update = velocity
            else:
                update = param.grad
            # In-place update (bitwise-identical values to the historical
            # rebinding form): no fresh parameter array per step.
            np.subtract(param.data, self.lr * update, out=param.data)

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {"lr": np.asarray(self.lr)}
        state.update({f"velocity.{i}": v.copy() for i, v in enumerate(self._velocity)})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "lr" in state:
            self.lr = float(state["lr"])
        self._restore_slots(state, "velocity", self._velocity)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2014), the paper's training algorithm."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float | None = None,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.grad_clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > self.grad_clip:
                    grad = grad * (self.grad_clip / (norm + 1e-12))
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            # In-place update (bitwise-identical values to the historical
            # rebinding form): no fresh parameter array per step.
            np.subtract(param.data, self.lr * m_hat / (np.sqrt(v_hat) + self.eps),
                        out=param.data)

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {
            "step": np.asarray(self._step),
            "lr": np.asarray(self.lr),
        }
        state.update({f"m.{i}": m.copy() for i, m in enumerate(self._m)})
        state.update({f"v.{i}": v.copy() for i, v in enumerate(self._v)})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "step" not in state:
            raise KeyError("optimizer state missing entry: step")
        self._step = int(state["step"])
        if "lr" in state:
            self.lr = float(state["lr"])
        self._restore_slots(state, "m", self._m)
        self._restore_slots(state, "v", self._v)
