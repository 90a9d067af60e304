"""Model registry: persist fitted detectors as named, versioned artifacts.

Layout — one self-contained ``.npz`` per version (weights *and* metadata
in a single atomically-written file, so a version can never be half
published)::

    <root>/
        <model-name>/
            v1.npz
            v2.npz
            LIVE            # optional JSON live pointer {"version", "prior"}
            ...
        quarantine/
            <model-name>__<version>.npz   # corrupt artifacts, moved aside

Each artifact is written with
:func:`repro.nn.serialization.save_training_state`: the module's weights
under ``model.*`` plus a JSON metadata record carrying everything needed
to rebuild the detector **without refitting** — the full config, the
feature count, the calibrated threshold, and a SHA-256 config
fingerprint.  :meth:`ModelRegistry.load` verifies the fingerprint before
trusting the metadata, rebuilds the detector from it, loads
the weights (shape-validated by ``load_model`` semantics), and caches
the result so repeated requests for the same version hit memory.

Lifecycle guardrails (see ``docs/serving.md``, "Model lifecycle & chaos
testing"):

* **Live pointer** — ``set_live``/``demote_live`` maintain an atomic
  per-model pointer recording the serving version *and the version it
  replaced*, so a bad publish rolls back with one ``os.replace``.
  ``load(name)`` resolves the pointer when present, latest otherwise.
* **Quarantine** — a corrupt/truncated artifact raises a typed error
  (never a raw zip traceback), is moved to ``<root>/quarantine/`` so it
  cannot poison future loads, and the load falls back to the previous
  version when one exists.
* **Retries + circuit breaker** — transient load faults retry with
  capped exponential backoff; repeated failures open a per-model
  :class:`~repro.serve.breaker.CircuitBreaker` that serves the
  last-good resident version, or raises
  :class:`~repro.serve.errors.CircuitOpen` (HTTP 503) when none is.

The registry persists TFMAE detectors: :func:`_tfmae_export` turns a
fitted one into ``(module, hyperparams)``, and :func:`_tfmae_build` turns
hyperparams back into a configured detector whose module the weights are
loaded into.  Publishing another detector type, or loading an artifact
that names one, raises :class:`~repro.serve.errors.RegistryError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from ..analysis.lockcheck import named_lock
from ..detector import BaseDetector
from ..nn.module import Module
from ..nn.serialization import (
    CheckpointError,
    load_metadata,
    load_training_state,
    save_training_state,
)
from .breaker import CircuitBreaker, RetryPolicy
from .errors import CircuitOpen, ModelNotFound, RegistryError, TransientFault

__all__ = ["ModelRegistry", "config_fingerprint"]

#: Registry schema version embedded in every artifact.
_SCHEMA = 1

#: Safe path components: no separators, no traversal, no hidden files.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Live-pointer file name inside a model directory (not ``.npz``, so the
#: version listing never mistakes it for an artifact).
_LIVE_FILE = "LIVE"

#: Directory (under the registry root) holding quarantined artifacts.
_QUARANTINE_DIR = "quarantine"


#: The detector type (class name) every artifact records and the only
#: one the registry and the process pool can take apart and rebuild.
_DETECTOR_TYPE = "TFMAE"


def _preflight_module(module: Module) -> None:
    """Shape/dtype/grad-flow check a model before it becomes an artifact.

    Duck-typed: runs only for modules following the detector-model
    contract (``config.window_size``, ``n_features``, ``loss``) whose
    config opts in via ``preflight=True`` — a broken graph is caught at
    publish time instead of on the first serving request.  Raises
    :class:`repro.analysis.ShapeCheckError`.
    """
    config = getattr(module, "config", None)
    if config is None or not getattr(config, "preflight", False):
        return
    if not (hasattr(module, "loss") and hasattr(module, "n_features")
            and hasattr(config, "window_size")):
        return
    from ..analysis.shapecheck import preflight_model

    preflight_model(module)


def config_fingerprint(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of a config/hyperparam dict."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _CorruptArtifact(RegistryError):
    """Internal: the archive itself is damaged/tampered — quarantine it.

    Subclasses :class:`RegistryError`, so an escape is still the public
    type; the distinct class is what separates "move this file aside and
    fall back" from "this artifact names a detector type the registry
    cannot rebuild" (not the file's fault).
    """


# ----------------------------------------------------------------------
# TFMAE export / build
# ----------------------------------------------------------------------
def _tfmae_export(detector: BaseDetector) -> tuple[Module, dict]:
    """The module whose ``state_dict`` is persisted, and a
    JSON-serialisable hyperparameter dict."""
    detector_type = type(detector).__name__
    if detector_type != _DETECTOR_TYPE:
        raise RegistryError(
            f"cannot export detector type {detector_type!r}: the registry "
            f"persists {_DETECTOR_TYPE} detectors only"
        )
    if detector.threshold_ is None:
        raise RegistryError(
            f"detector {detector_type!r} has no calibrated threshold; serving "
            "needs one — fit with a validation split or call calibrate_threshold()"
        )
    if detector.model is None:
        raise RegistryError("TFMAE detector has no trained model; fit it first")
    hyperparams = {
        "config": asdict(detector.config),
        "n_features": detector.model.n_features,
        "threshold": float(detector.threshold_),
        "anomaly_ratio": detector.anomaly_ratio,
    }
    return detector.model, hyperparams


def _tfmae_build(hyperparams: dict) -> tuple[BaseDetector, Module]:
    """A configured detector marked fitted and calibrated, and the module
    to load its weights into."""
    from ..core import TFMAE, TFMAEConfig
    from ..core.model import TFMAEModel

    stored = dict(hyperparams["config"])
    # Artifacts published while training had a compiled-step toggle
    # store that retired field; it never affected the weights.
    stored.pop("train_jit", None)
    config = TFMAEConfig(**stored)
    detector = TFMAE(config)
    # A fitted model scores in eval mode; a fresh module starts in
    # training mode, where dropout would perturb every served score.
    detector.model = TFMAEModel(
        n_features=int(hyperparams["n_features"]), config=config
    ).eval()
    detector._fitted = True
    detector.threshold_ = float(hyperparams["threshold"])
    return detector, detector.model


def _validate_component(value: str, what: str) -> str:
    if not _NAME_RE.match(value):
        raise RegistryError(
            f"invalid {what} {value!r}: use letters, digits, '.', '_', '-' "
            "(must not start with a separator)"
        )
    return value


class ModelRegistry:
    """Filesystem-backed store of fitted detectors with an in-memory cache.

    Parameters
    ----------
    root:
        Directory holding the registry (created on first publish).
    cache_size:
        Number of loaded detectors kept in memory (LRU). Serving hot
        models never re-reads the artifact; cold versions load on demand.
    load_retries / retry_backoff:
        Transient load failures (I/O hiccups, injected chaos faults)
        retry up to ``load_retries`` times with capped exponential
        backoff starting at ``retry_backoff`` seconds.
    breaker_threshold / breaker_reset:
        Consecutive (post-retry) load failures before a model's circuit
        breaker opens, and how long it stays open before a half-open
        probe is admitted.
    clock / sleep:
        Injectable time sources for the breaker and the backoff —
        deterministic tests and the chaos harness run at simulated time.
    """

    def __init__(
        self,
        root: str | Path,
        cache_size: int = 4,
        load_retries: int = 2,
        retry_backoff: float = 0.05,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.root = Path(root)
        self._cache_size = cache_size
        self._cache: OrderedDict[tuple[str, str], BaseDetector] = OrderedDict()
        #: Memory-only state lock: cache, name-lock table, breakers,
        #: last-good entries.  Never held across disk I/O — every
        #: filesystem touch (artifact read/write, live pointer, version
        #: glob) happens under the per-model lock instead.  Lock order:
        #: per-model lock -> state lock, never the reverse.
        self._lock = named_lock("serve.registry.state")
        #: Per-model locks serialising that model's disk traffic so a
        #: slow/faulty artifact read of one model never blocks loads (or
        #: cache hits) of another.  ``blocking_ok``: serialising blocking
        #: I/O is this lock's entire purpose.
        self._name_locks: dict[str, threading.Lock] = {}
        self._breaker_threshold = breaker_threshold
        self._breaker_reset = breaker_reset
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Most recent successfully-loaded (detector, version) per model —
        #: what an open breaker serves instead of touching the disk.
        self._last_good: dict[str, tuple[BaseDetector, str]] = {}
        self._retry = RetryPolicy(retries=load_retries, base_delay=retry_backoff,
                                  sleep=sleep)
        self._clock = clock
        #: Chaos seam: when set, called as ``hook(name, version)`` at the
        #: top of every artifact read attempt.  The hook may sleep (slow
        #: load) or raise :class:`TransientFault` / corrupt the file —
        #: see :mod:`repro.robustness.chaos`.
        self.load_fault_hook: Callable[[str, str], None] | None = None

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(self, name: str, detector: BaseDetector, version: str | None = None) -> str:
        """Persist a fitted, threshold-calibrated detector; returns the version.

        ``version`` defaults to the next ``v<n>``.  Publishing an existing
        version is refused — versions are immutable; publish a new one.
        Publishing does **not** move the live pointer when one exists;
        pair with :meth:`set_live` (or use
        :meth:`repro.serve.lifecycle.LifecycleManager.publish_guarded`)
        to promote the new version.
        """
        _validate_component(name, "model name")
        module, hyperparams = _tfmae_export(detector)
        _preflight_module(module)

        with self._name_lock(name):
            if version is None:
                version = f"v{len(self._versions_on_disk(name)) + 1}"
            _validate_component(version, "version")
            path = self._artifact_path(name, version)
            if path.exists():
                raise RegistryError(
                    f"{name}:{version} already exists; registry versions are immutable"
                )
            metadata = {
                "schema": _SCHEMA,
                "name": name,
                "version": version,
                "detector": _DETECTOR_TYPE,
                "hyperparams": hyperparams,
                "fingerprint": config_fingerprint(hyperparams),
            }
            save_training_state(path, module, metadata=metadata)
        return version

    # ------------------------------------------------------------------
    # live pointer
    # ------------------------------------------------------------------
    def set_live(self, name: str, version: str) -> str | None:
        """Atomically point the live pointer at ``version``.

        Records the previously-live version as ``prior`` (what
        :meth:`demote_live` rolls back to) and returns it (``None`` on
        the first promotion of a single-version model).
        """
        _validate_component(name, "model name")
        _validate_component(version, "version")
        with self._name_lock(name):
            versions = self._versions_on_disk(name)
            if version not in versions:
                raise ModelNotFound(f"model {name}:{version} not found in {self.root}")
            pointer = self._read_live_pointer(name)
            if pointer is not None:
                prior = pointer["version"]
            else:
                remaining = [v for v in versions if v != version]
                prior = remaining[-1] if remaining else None
            if prior == version:
                prior = pointer.get("prior") if pointer else None
            self._write_live_pointer(name, {"version": version, "prior": prior})
        return prior

    def demote_live(self, name: str) -> str:
        """Roll the live pointer back to the recorded prior version.

        One atomic pointer swap — the demoted version's artifact stays on
        disk (immutable, inspectable) but stops serving immediately.
        Returns the version now live.
        """
        _validate_component(name, "model name")
        with self._name_lock(name):
            pointer = self._read_live_pointer(name)
            if pointer is None or not pointer.get("prior"):
                raise RegistryError(
                    f"model {name!r} has no recorded prior version to roll back to"
                )
            prior = pointer["prior"]
            if prior not in self._versions_on_disk(name):
                raise RegistryError(
                    f"model {name!r} prior version {prior!r} is no longer in the "
                    "registry; cannot roll back"
                )
            self._write_live_pointer(
                name, {"version": prior, "prior": None, "demoted": pointer["version"]}
            )
        return prior

    def live_version(self, name: str) -> str:
        """The version ``load(name)`` resolves to: live pointer or latest."""
        _validate_component(name, "model name")
        with self._name_lock(name):
            versions = self._versions_on_disk(name)
            if not versions:
                raise ModelNotFound(f"no versions of model {name!r} in {self.root}")
            pointer = self._read_live_pointer(name)
            if pointer is not None and pointer["version"] in versions:
                return pointer["version"]
            return versions[-1]

    def _read_live_pointer(self, name: str) -> dict | None:
        """Parse the live pointer; call with the model's name lock held."""
        path = self.root / name / _LIVE_FILE
        try:
            pointer = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # A damaged pointer must not take the model down: fall back to
            # "no pointer" (latest serves).
            return None
        if not isinstance(pointer, dict) or "version" not in pointer:
            return None
        return pointer

    def _write_live_pointer(self, name: str, pointer: dict) -> None:
        """Atomically replace the pointer; call with the name lock held."""
        directory = self.root / name
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".live.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(pointer, handle)
            os.replace(tmp_name, directory / _LIVE_FILE)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, name: str, version: str | None = None) -> tuple[BaseDetector, str]:
        """Return ``(detector, version)``; ``version=None`` means live/latest.

        Cached: the same ``(name, version)`` returns the same instance, so
        concurrent scoring shares one model's memory.  Degradation ladder
        on failure: transient faults retry with backoff; a corrupt
        artifact is quarantined and the previous version served; repeated
        failures open the circuit breaker, which serves the last-good
        resident version or raises :class:`CircuitOpen`.
        """
        _validate_component(name, "model name")
        if version is not None:
            _validate_component(version, "version")
        candidates = self._candidate_versions(name, version)
        primary = candidates[0]
        cached = self._cache_get(name, primary)
        if cached is not None:
            return cached, primary

        breaker = self.breaker_for(name)
        if not breaker.allow():
            return self._degraded_serve(name, breaker)
        corrupt_error: RegistryError | None = None
        for resolved in candidates:
            cached = self._cache_get(name, resolved)
            if cached is not None:
                breaker.record_success()
                return cached, resolved
            with self._name_lock(name):
                cached = self._cache_get(name, resolved)
                if cached is not None:
                    breaker.record_success()
                    return cached, resolved
                try:
                    detector = self._read_with_retries(name, resolved)
                except _CorruptArtifact as error:
                    self._quarantine(name, resolved, error)
                    corrupt_error = error
                    continue
                except TransientFault:
                    breaker.record_failure()
                    with self._lock:
                        fallback = self._last_good.get(name)
                    if fallback is not None:
                        return fallback
                    raise
                self._cache_put(name, resolved, detector)
            breaker.record_success()
            return detector, resolved
        breaker.record_failure()
        raise RegistryError(
            f"model {name!r} has no loadable version left "
            f"(corrupt artifacts quarantined to {self.root / _QUARANTINE_DIR}): "
            f"{corrupt_error}"
        ) from corrupt_error

    def load_fresh(self, name: str, version: str | None = None) -> tuple[BaseDetector, str]:
        """Load a **new, uncached** detector instance.

        The serving cache hands every caller the *same* object; mutating
        it (e.g. an incremental refit) would swap weights under in-flight
        batches.  Lifecycle refresh therefore builds its candidate from a
        fresh instance — the live model is never touched in place.
        """
        _validate_component(name, "model name")
        if version is None:
            version = self.live_version(name)
        else:
            _validate_component(version, "version")
        return self._read_with_retries(name, version), version

    def _candidate_versions(self, name: str, version: str | None) -> list[str]:
        """The requested/live version first, then older fallbacks."""
        with self._name_lock(name):
            versions = self._versions_on_disk(name)
            if not versions:
                raise ModelNotFound(f"no versions of model {name!r} in {self.root}")
            if version is None:
                pointer = self._read_live_pointer(name)
                if pointer is not None and pointer["version"] in versions:
                    version = pointer["version"]
                else:
                    version = versions[-1]
            elif version not in versions:
                raise ModelNotFound(f"model {name}:{version} not found in {self.root}")
            index = versions.index(version)
        return [version] + list(reversed(versions[:index]))

    def _degraded_serve(
        self, name: str, breaker: CircuitBreaker
    ) -> tuple[BaseDetector, str]:
        with self._lock:
            entry = self._last_good.get(name)
        if entry is not None:
            return entry
        raise CircuitOpen(name, max(breaker.retry_after, 0.1))

    def _read_with_retries(self, name: str, version: str) -> BaseDetector:
        """One artifact read, retrying transient faults with backoff."""
        delays = list(self._retry.delays())
        attempt = 0
        while True:
            try:
                return self._load_artifact(name, version)
            except (TransientFault, OSError) as error:
                if attempt >= len(delays):
                    if isinstance(error, TransientFault):
                        raise
                    raise TransientFault(
                        f"artifact {name}:{version} read failed after "
                        f"{len(delays)} retries: {error}"
                    ) from error
                self._retry.sleep(delays[attempt])
                attempt += 1

    def _load_artifact(self, name: str, version: str) -> BaseDetector:
        if self.load_fault_hook is not None:
            self.load_fault_hook(name, version)
        path = self._artifact_path(name, version)
        if not path.exists():
            raise ModelNotFound(f"model {name}:{version} not found in {self.root}")
        try:
            metadata = load_metadata(path)
        except CheckpointError as error:
            raise _CorruptArtifact(f"artifact {path} is unreadable: {error}") from error
        for field in ("detector", "hyperparams", "fingerprint"):
            if field not in metadata:
                raise _CorruptArtifact(f"artifact {path} metadata is missing {field!r}")
        expected = config_fingerprint(metadata["hyperparams"])
        if metadata["fingerprint"] != expected:
            raise _CorruptArtifact(
                f"artifact {path} fingerprint mismatch (recorded "
                f"{metadata['fingerprint'][:12]}…, recomputed {expected[:12]}…); "
                "the metadata was altered after publishing"
            )
        if metadata["detector"] != _DETECTOR_TYPE:
            # Not the file's fault — quarantining would destroy a good
            # artifact this release cannot rebuild.
            raise RegistryError(
                f"artifact {path} holds detector type {metadata['detector']!r}; "
                f"the registry rebuilds {_DETECTOR_TYPE} detectors only"
            )
        try:
            detector, module = _tfmae_build(metadata["hyperparams"])
        except (TypeError, ValueError, KeyError) as error:
            raise RegistryError(f"artifact {path} failed to load: {error}") from error
        try:
            load_training_state(path, module)
        except CheckpointError as error:
            raise _CorruptArtifact(f"artifact {path} failed to load: {error}") from error
        return detector

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, name: str, version: str, error: RegistryError) -> None:
        """Move a corrupt artifact aside and heal the live pointer.

        Called with the model's name lock held (the disk side); the state
        lock is taken only for the in-memory evictions.
        """
        source = self._artifact_path(name, version)
        quarantine = self.root / _QUARANTINE_DIR
        quarantine.mkdir(parents=True, exist_ok=True)
        target = quarantine / f"{name}__{version}.npz"
        suffix = 1
        while target.exists():
            target = quarantine / f"{name}__{version}.{suffix}.npz"
            suffix += 1
        try:
            os.replace(source, target)
        except OSError:
            # Already moved by a racing loader, or the file vanished —
            # either way the artifact no longer serves, which is the point.
            pass
        with self._lock:
            self._cache.pop((name, version), None)
            entry = self._last_good.get(name)
            if entry is not None and entry[1] == version:
                del self._last_good[name]
        pointer = self._read_live_pointer(name)
        if pointer is not None and pointer["version"] == version:
            remaining = self._versions_on_disk(name)
            fallback = pointer.get("prior")
            if fallback not in remaining:
                fallback = remaining[-1] if remaining else None
            if fallback is not None:
                self._write_live_pointer(
                    name,
                    {"version": fallback, "prior": None, "quarantined": version},
                )
            else:
                try:
                    (self.root / name / _LIVE_FILE).unlink()
                except OSError:
                    pass

    def quarantined(self, name: str | None = None) -> list[str]:
        """Quarantined artifact file names (optionally for one model)."""
        quarantine = self.root / _QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        entries = sorted(entry.name for entry in quarantine.glob("*.npz"))
        if name is None:
            return entries
        return [entry for entry in entries if entry.startswith(f"{name}__")]

    # ------------------------------------------------------------------
    # breaker / health
    # ------------------------------------------------------------------
    def breaker_for(self, name: str) -> CircuitBreaker:
        """The per-model circuit breaker (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_timeout=self._breaker_reset,
                    clock=self._clock,
                )
                self._breakers[name] = breaker
            return breaker

    def status(self, name: str) -> dict:
        """Serving-health view of one model (consumed by ``/healthz``)."""
        _validate_component(name, "model name")
        with self._name_lock(name):
            versions = self._versions_on_disk(name)
            pointer = self._read_live_pointer(name)
        with self._lock:
            breaker = self._breakers.get(name)
            entry = self._last_good.get(name)
        live = None
        if versions:
            live = pointer["version"] if (
                pointer is not None and pointer["version"] in versions
            ) else versions[-1]
        quarantined = self.quarantined(name)
        breaker_state = breaker.state if breaker is not None else "closed"
        return {
            "live": live,
            "versions": versions,
            "prior": pointer.get("prior") if pointer else None,
            "breaker": breaker_state,
            "retry_after": breaker.retry_after if breaker is not None else 0.0,
            "last_good": entry[1] if entry is not None else None,
            "quarantined": quarantined,
            "degraded": breaker_state != "closed" or bool(quarantined),
        }

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _cache_get(self, name: str, version: str) -> BaseDetector | None:
        key = (name, version)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
            return cached

    def _cache_put(self, name: str, version: str, detector: BaseDetector) -> None:
        with self._lock:
            self._cache[(name, version)] = detector
            self._cache.move_to_end((name, version))
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            self._last_good[name] = (detector, version)

    def _name_lock(self, name: str) -> threading.Lock:
        with self._lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = named_lock("serve.registry.per-model", blocking_ok=True)
                self._name_locks[name] = lock
            return lock

    # ------------------------------------------------------------------
    # listing / inspection
    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        """Registered model names, sorted.

        A model whose every artifact has been quarantined still lists —
        hiding it from ``/healthz`` would hide exactly the sickest model.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and entry.name != _QUARANTINE_DIR
            and _NAME_RE.match(entry.name)
            and (any(entry.glob("*.npz")) or self.quarantined(entry.name))
        )

    def versions(self, name: str) -> list[str]:
        """Versions of a model, oldest first (numeric-aware for ``v<n>``)."""
        with self._name_lock(name):
            return self._versions_on_disk(name)

    def latest(self, name: str) -> str:
        versions = self.versions(name)
        if not versions:
            raise ModelNotFound(f"no versions of model {name!r} in {self.root}")
        return versions[-1]

    def describe(self, name: str, version: str | None = None) -> dict:
        """The stored metadata record for one version (latest by default)."""
        _validate_component(name, "model name")
        if version is None:
            version = self.latest(name)
        path = self._artifact_path(name, version)
        if not path.exists():
            raise ModelNotFound(f"model {name}:{version} not found in {self.root}")
        try:
            return load_metadata(path)
        except CheckpointError as error:
            raise RegistryError(f"artifact {path} is unreadable: {error}") from error

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _artifact_path(self, name: str, version: str) -> Path:
        return self.root / name / f"{version}.npz"

    def _versions_on_disk(self, name: str) -> list[str]:
        """Glob the version listing; call with the name lock held."""
        directory = self.root / name
        if not directory.is_dir():
            return []

        def sort_key(version: str) -> tuple:
            match = re.fullmatch(r"v(\d+)", version)
            return (0, int(match.group(1))) if match else (1, version)

        return sorted((p.stem for p in directory.glob("*.npz")), key=sort_key)
