"""Policy switches: a process-wide default plus thread-local overrides.

The substrate's execution policies (:mod:`repro.nn.fused` kernels,
:mod:`repro.nn.jit` tape replay, the :mod:`repro.nn.dtype` compute
dtype) share one shape, implemented once here by :class:`Switch`:

* ``switch.get()`` — the active value on the calling thread: the
  innermost entered override, else the process default;
* ``switch.set(value)`` — replace the process default.  Threads inside
  an override keep their own value; everyone else sees the new default
  immediately;
* ``with switch.override(value):`` — a nestable override scoped to the
  current thread only, so a test or benchmark pinning a reference path
  never disturbs concurrent serving or training threads.

Each module exports its switch under its historical names
(``fused_enabled``/``set_fused``/``use_fused`` and so on); lint rule
TLS001 checks that those names are used as designed.
"""

from __future__ import annotations

import threading

__all__ = ["Switch"]


class _Overrides(threading.local):
    # Class-level default: a thread that never entered an override reads
    # ``stack`` with one attribute load, no ``getattr`` default needed.
    stack = None


class _Override:
    """Context manager pushing one validated value onto a switch."""

    __slots__ = ("switch", "value")

    def __init__(self, switch: "Switch", value):
        self.switch = switch
        self.value = switch.validate(value)

    def __enter__(self) -> "_Override":
        tls = self.switch._tls
        if tls.stack is None:
            tls.stack = []
        tls.stack.append(self.value)
        return self

    def __exit__(self, *exc_info) -> None:
        self.switch._tls.stack.pop()


class Switch:
    """A process-wide default with a nestable thread-local override stack.

    ``validate`` normalises every value given to :meth:`set` and
    :meth:`override` (and may raise); the override validates on
    construction, before the ``with`` block is entered.
    """

    def __init__(self, default, validate=lambda value: value):
        self.validate = validate
        self.default = validate(default)
        self._tls = _Overrides()

    def get(self):
        """The active value on this thread (innermost override wins)."""
        stack = self._tls.stack
        if stack:
            return stack[-1]
        return self.default

    def set(self, value) -> None:
        """Set the process-wide default."""
        self.default = self.validate(value)

    def override(self, value) -> _Override:
        """Thread-local override of the default, as a context manager."""
        return _Override(self, value)
