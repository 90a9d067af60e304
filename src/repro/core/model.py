"""The TFMAE model: dual temporal/frequency masked autoencoders (Fig. 2/5).

Two Transformer-based autoencoders produce representations of the same
window from complementary views:

* the **temporal branch** masks high coefficient-of-variation observations
  (likely observation anomalies), encodes the unmasked tokens, then runs a
  decoder over the full sequence with learnable mask tokens at the masked
  positions (paper Fig. 5 right);
* the **frequency branch** masks low-amplitude frequency bins (likely
  pattern anomalies), substitutes a learnable complex token, inverts to
  the time domain, and runs a decoder-only Transformer (Fig. 5 left).

The discrepancy (symmetric KL) between the two final representations is
the anomaly criterion.  When an ablation removes one branch entirely the
model degrades to a reconstruction autoencoder on the remaining branch,
which keeps the "w/o Fre"/"w/o Tem" rows of Table IV trainable.
"""

from __future__ import annotations

import contextlib
import weakref
from collections import OrderedDict

import numpy as np

from .. import nn
from ..analysis.lockcheck import named_lock
from ..masking import FrequencyMasker, TemporalMasker
from ..nn import Module, Parameter, Tensor
from ..nn import functional as F
from ..nn import fused, init, jit
from ..nn.dtype import resolve_dtype
from ..nn.tensor import _as_array
from ..nn.transformer import TransformerStack, sinusoidal_positional_encoding
from .config import TFMAEConfig

__all__ = ["TemporalBranch", "FrequencyBranch", "TFMAEModel"]

#: Negative-cache marker: this specialization key hit a trace-unsupported
#: op; keep using the interpreted path without re-tracing every call.
_UNSUPPORTED = object()

#: Compiled scoring tapes interned process-wide, keyed ``(config,
#: n_features, (time, features), compute dtype, fused policy)``.  A tape
#: reads the weights from input slots, so every instance with the same
#: key replays the same tape over its own parameters.  Weak values: an
#: entry lives as long as some instance's LRU holds its tape.
_SHARED_TAPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SHARED_TAPES_LOCK = named_lock("core.model.shared-tapes")

#: Query-row counts the score-last graph may cut its final layers to,
#: smallest first (see :meth:`TFMAEModel._score_rows`).
_ROW_CANDIDATES = (2, 4, 8, 16, 32)
#: The chosen count per ``(config, n_features, (time, features), compute
#: dtype, fused policy)``, for the life of the process; ``None`` is the
#: full graph.  Threads racing on a new key each run the check and store
#: the same answer, so no lock is held across it.
_SCORE_ROWS: dict = {}


def _trailing(x: Tensor, rows: int | None) -> Tensor:
    """The trailing ``rows`` positions of ``(batch, time, ...)``; all when None."""
    return x if rows is None else x[:, -rows:]


class TemporalBranch(Module):
    """Temporal masking-based autoencoder (paper Fig. 5, right).

    Produces ``P^(L)`` of shape ``(batch, T, D)`` from raw windows.
    """

    #: Prelude slots holding one row per window (leading batch axis).
    batch_slots = ("t_mask", "t_rows", "t_unmasked", "t_pe_unmasked")

    def __init__(self, n_features: int, config: TFMAEConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.masker = TemporalMasker(
            ratio=config.temporal_mask_ratio,
            window=config.cov_window,
            strategy=config.temporal_mask_strategy,
            use_fft=config.use_fft_acceleration,
            rng=rng,
        )
        self.projection = nn.Linear(n_features, config.d_model, rng)  # W^(T), b^(T)
        self.mask_token = Parameter(init.normal((config.d_model,), rng), name="m_T")
        if config.use_temporal_encoder:
            self.encoder = TransformerStack(
                config.d_model, config.num_layers, config.num_heads, rng,
                ffn_dim=config.ffn_dim, dropout=config.dropout,
            )
        else:
            self.encoder = None
        if config.use_temporal_decoder:
            self.decoder = TransformerStack(
                config.d_model, config.num_layers, config.num_heads, rng,
                ffn_dim=config.ffn_dim, dropout=config.dropout,
            )
        else:
            self.decoder = None
        self._pe_cache: dict[tuple, np.ndarray] = {}

    def _positional_encoding(self, length: int) -> np.ndarray:
        """Positional encoding pre-cast to the active compute dtype.

        The table itself is deterministic float64 per length; caching the
        cast per (length, dtype) saves a fresh ``astype`` copy on every
        float32 prelude call.  Consumers only read the slot array, so one
        shared array across calls is safe.
        """
        key = (length, resolve_dtype())
        pe = self._pe_cache.get(key)
        if pe is None:
            pe = _as_array(sinusoidal_positional_encoding(length, self.config.d_model))
            self._pe_cache[key] = pe
        return pe

    def forward(self, windows: np.ndarray) -> Tensor:
        slots = self.prelude(windows)
        slots["windows"] = _as_array(windows)
        return self.graph(slots)

    def prelude(self, windows: np.ndarray) -> dict:
        """Data-dependent stage: masking, PE lookups, index construction.

        Runs interpreted on *every* call (it consumes the masker's RNG
        and produces data-dependent index arrays); its outputs are the
        named input slots the pure-tensor :meth:`graph` stage reads, so
        the jit tracer can keep them dynamic across tape replays.  Slot
        arrays are pre-cast to the active compute dtype so wrapping them
        in a ``Tensor`` inside the graph stage is identity-preserving.
        """
        batch, time, _ = windows.shape
        result = self.masker(windows)
        pe = self._positional_encoding(time)
        num_masked = result.num_masked
        slots = {
            "t_pe": pe,
            "t_mask": result.mask[:, :, None],
        }
        if self.encoder is not None and 0 < num_masked < time:
            # The masker just built (and cached) this exact index array.
            slots["t_rows"] = self.masker._row_cache[batch]
            slots["t_unmasked"] = result.unmasked_indices
            # Fancy indexing the pre-cast table copies exactly the rows
            # needed; cast-then-index is bitwise index-then-cast.
            slots["t_pe_unmasked"] = pe[result.unmasked_indices]
        else:
            # The branch structure is static per (shape, config): the
            # masked count is a data-independent function of the window
            # length, so this flag never flips between calls sharing a
            # tape key.  (Non-array slot values are ignored by the
            # tracer's identity map.)
            slots["t_encode_full"] = self.encoder is not None and num_masked == 0
        return slots

    def graph(self, slots: dict, rows: int | None = None) -> Tensor:
        """Pure-tensor stage over named input slots (jit-traceable).

        With ``rows``, only the trailing ``rows`` positions come out (see
        :meth:`TFMAEModel.score_last_windows`).
        """
        projected = self.projection(Tensor(slots["windows"]))  # (B, T, D), Eq. 3
        pe = slots["t_pe"]

        if "t_rows" in slots:
            # Encode only the unmasked tokens, at their original positions.
            index = (slots["t_rows"], slots["t_unmasked"])
            unmasked = projected[index]
            unmasked = unmasked + Tensor(slots["t_pe_unmasked"])
            encoded = self.encoder(unmasked)
            batch, time = slots["t_mask"].shape[:2]
            unmasked_full = Tensor.scatter(
                encoded, index, (batch, time, self.config.d_model)
            )
        else:
            # No masking (or no encoder): the "unmasked representation" is
            # the position-encoded projection, optionally encoded whole.
            full = projected + Tensor(pe)
            unmasked_full = self.encoder(full) if slots["t_encode_full"] else full

        # Insert mask tokens (with positional encoding) at masked slots.
        masked_value = self.mask_token + Tensor(pe)  # (T, D), broadcasts over batch
        decoder_input = Tensor.where(slots["t_mask"], masked_value, unmasked_full)

        if self.decoder is not None:
            return self.decoder(decoder_input, rows)
        return _trailing(decoder_input, rows)


class FrequencyBranch(Module):
    """Frequency masking-based decoder-only autoencoder (paper Fig. 5, left).

    Produces ``F^(L)`` of shape ``(batch, T, D)`` from raw windows.
    """

    #: Prelude slots holding one row per window (leading batch axis).
    batch_slots = ("f_fixed", "f_cos", "f_sin")

    def __init__(self, n_features: int, config: TFMAEConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.masker = FrequencyMasker(
            ratio=config.frequency_mask_ratio,
            strategy=config.frequency_mask_strategy,
            rng=rng,
        )
        # m^(F) in C^N, stored as separate real/imaginary parameters.
        self.mask_token_re = Parameter(init.normal((n_features,), rng), name="m_F_re")
        self.mask_token_im = Parameter(init.normal((n_features,), rng), name="m_F_im")
        self.projection = nn.Linear(n_features, config.d_model, rng)  # W^(F), b^(F)
        if config.use_frequency_decoder:
            self.decoder = TransformerStack(
                config.d_model, config.num_layers, config.num_heads, rng,
                ffn_dim=config.ffn_dim, dropout=config.dropout,
            )
        else:
            self.decoder = None
        self._pe_cache: dict[tuple, np.ndarray] = {}

    def _positional_encoding(self, length: int) -> np.ndarray:
        """Positional encoding pre-cast to the active compute dtype.

        The table itself is deterministic float64 per length; caching the
        cast per (length, dtype) saves a fresh ``astype`` copy on every
        float32 prelude call.  Consumers only read the slot array, so one
        shared array across calls is safe.
        """
        key = (length, resolve_dtype())
        pe = self._pe_cache.get(key)
        if pe is None:
            pe = _as_array(sinusoidal_positional_encoding(length, self.config.d_model))
            self._pe_cache[key] = pe
        return pe

    def forward(self, windows: np.ndarray) -> Tensor:
        return self.graph(self.prelude(windows))

    def prelude(self, windows: np.ndarray) -> dict:
        """Data-dependent stage: frequency masking and basis construction.

        Same contract as :meth:`TemporalBranch.prelude` — runs every
        call, emits compute-dtype slot arrays for the traceable
        :meth:`graph` stage.
        """
        _, time, _ = windows.shape
        result = self.masker(windows)
        return {
            "f_fixed": _as_array(result.fixed),
            "f_cos": _as_array(result.cos_basis),
            "f_sin": _as_array(result.sin_basis),
            "f_pe": self._positional_encoding(time),
        }

    def graph(self, slots: dict, rows: int | None = None) -> Tensor:
        """Pure-tensor stage over named input slots (jit-traceable); with
        ``rows``, only the trailing ``rows`` positions come out."""
        # Eq. 9-10: replaced spectrum inverted to the time domain, with the
        # learnable token entering through the linear basis decomposition.
        masked_series = (
            Tensor(slots["f_fixed"])
            + self.mask_token_re * Tensor(slots["f_cos"])
            - self.mask_token_im * Tensor(slots["f_sin"])
        )
        representation = self.projection(masked_series)
        representation = representation + Tensor(slots["f_pe"])  # Eq. 11
        if self.decoder is not None:
            return self.decoder(representation, rows)
        return _trailing(representation, rows)


class TFMAEModel(Module):
    """Full TFMAE: both branches plus the adversarial contrastive objective.

    Parameters
    ----------
    n_features:
        Number of series features ``N``.
    config:
        Hyper-parameters and ablation switches.
    """

    def __init__(self, n_features: int, config: TFMAEConfig | None = None):
        super().__init__()
        self.config = config if config is not None else TFMAEConfig()
        self.n_features = n_features
        self.compute_dtype = np.dtype(self.config.compute_dtype)
        rng = np.random.default_rng(self.config.seed)

        if self.config.use_temporal_branch:
            self.temporal = TemporalBranch(n_features, self.config, rng)
        else:
            self.temporal = None
        if self.config.use_frequency_branch:
            self.frequency = FrequencyBranch(n_features, self.config, rng)
        else:
            self.frequency = None

        # This instance's scoring tapes keyed ((time, features), compute
        # dtype, fused policy, score-last rows or None): the batch size is
        # not in the key, since a tape replays at every batch size (one a
        # reshape pinned to its traced size is retraced in place at
        # another).  The tapes themselves are interned in _SHARED_TAPES
        # and shared with every instance of the same config; this LRU
        # holds them alive.
        # _UNSUPPORTED negative-caches untraceable keys.  An LRU of
        # config.jit_cache_size entries (REPRO_JIT_CACHE env overrides the
        # default); evictions are counted for the benches.
        self._tapes: OrderedDict = OrderedDict()
        self.jit_evictions = 0

        self._dual = self.temporal is not None and self.frequency is not None
        # Scoring slots with one row per window: the tape's batch axis.
        self._batch_slots = ("windows",) + tuple(
            name for branch in (self.temporal, self.frequency)
            if branch is not None for name in branch.batch_slots
        )
        if not self._dual:
            # Single-branch ablations fall back to reconstruction; they
            # need an output head mapping D back to N.
            self.reconstruction_head = nn.Linear(self.config.d_model, n_features, rng)

        # Parameters are initialised in float64 (deterministic across
        # dtype policies, same seeds => same float64 weights) and cast
        # once when the model opts into reduced precision.
        if self.compute_dtype != np.float64:
            self.to_dtype(self.compute_dtype)
        # Every parameter enters the scoring tape as an input slot, its
        # array read afresh on each call.
        self._param_slots = tuple(
            (f"param:{name}", param) for name, param in self.named_parameters()
        )

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def _validate_windows(self, windows: np.ndarray) -> None:
        if windows.ndim != 3:
            raise ValueError(f"expected (batch, time, features), got shape {windows.shape}")
        if windows.shape[-1] != self.n_features:
            raise ValueError(
                f"model built for {self.n_features} features, got {windows.shape[-1]}"
            )

    def forward(self, windows: np.ndarray) -> tuple[Tensor | None, Tensor | None]:
        """Return ``(P^(L), F^(L))``; a missing branch yields ``None``."""
        self._validate_windows(windows)
        # Every tensor built inside the branches follows the model's
        # compute-dtype policy (thread-local, so a float32 model serving
        # traffic never disturbs float64 work elsewhere).
        with nn.default_dtype(self.compute_dtype):
            p = self.temporal(windows) if self.temporal is not None else None
            f = self.frequency(windows) if self.frequency is not None else None
        return p, f

    # ------------------------------------------------------------------
    # objective (Eq. 14-15)
    # ------------------------------------------------------------------
    def loss(self, windows: np.ndarray) -> tuple[Tensor, dict[str, float]]:
        """Training loss for one batch plus logging metrics.

        Dual-branch mode uses the adversarial contrastive objective; the
        single-branch ablations use reconstruction MSE.
        """
        self._validate_windows(windows)
        with nn.default_dtype(self.compute_dtype):
            slots = self._prelude(windows)
            p, f = self._branches(slots)
            if self._dual:
                loss, metric_tensors = self._contrastive_loss(p, f)
            else:
                reconstruction = self.reconstruction_head(p if p is not None else f)
                loss = F.mse_loss(reconstruction, Tensor(slots["windows"]))
                metric_tensors = {"reconstruction_mse": loss}
            metrics = {name: value.item() for name, value in metric_tensors.items()}
        return loss, metrics

    def _contrastive_loss(self, p: Tensor, f: Tensor) -> tuple[Tensor, dict[str, Tensor]]:
        config = self.config
        if not config.adversarial:
            # Plain contrastive objective (Eq. 14): both branches minimise.
            loss = F.symmetric_kl(p, f)
            return loss, {"contrastive": loss}

        if config.reversed_adversarial:
            # "w/ L_radv": swap the roles of P and F in Eq. 15.
            anchor, mover = f, p
        else:
            # Eq. 15: the frequency branch minimises the discrepancy
            # towards a frozen temporal view; the temporal branch maximises
            # it against a frozen frequency view.
            anchor, mover = p, f
        minimise = F.symmetric_kl(anchor.detach(), mover)
        maximise = F.symmetric_kl(anchor, mover.detach())
        loss = minimise - maximise
        return loss, {"minimise": minimise, "maximise": maximise}

    # ------------------------------------------------------------------
    # anomaly score (Eq. 16)
    # ------------------------------------------------------------------
    def score_windows(self, windows: np.ndarray) -> np.ndarray:
        """Per-observation anomaly score for a batch of windows.

        Returns an array of shape ``(batch, time)``.  Dual-branch mode uses
        the symmetric KL discrepancy (Eq. 16); single-branch ablations use
        the per-point reconstruction error.

        When tape-replay scoring is enabled (:func:`repro.nn.jit.use_jit`,
        the default) the tensor-graph stage runs from a compiled tape
        after the first call per (config, window shape, dtype,
        fused-policy) key in the process.  The window shape is ``(time,
        features)``: one tape replays at every batch size, the weights
        are tape inputs so instances of one config share it, and replay
        output is bitwise-identical to the interpreted graph.  A tape is
        traced on the call's first window and replayed over the whole
        batch (see :meth:`_trace`).  A model in training mode with
        active dropout always runs interpreted: its random masks cannot
        be traced, and the tape key does not see the mode.
        """
        return self._score(windows, last=False)

    def score_last_windows(self, windows: np.ndarray) -> np.ndarray:
        """Last-observation score of each window, shape ``(batch,)``.

        Bitwise ``score_windows(windows)[:, -1]``, from less work: the
        final decoder layer of each branch computes only the trailing
        ``rows`` query rows (its keys and values still see the whole
        window), since nothing after it reads the others.  ``rows`` is
        chosen once per process and scoring key by :meth:`_score_rows`;
        it joins the tape key, so a score-last tape and a full one never
        stand in for each other.  Interpreted and tape replay run the
        same graph, so they agree bitwise as :meth:`score_windows` does.
        """
        return self._score(windows, last=True)[:, -1]

    def _score(self, windows: np.ndarray, last: bool) -> np.ndarray:
        self._validate_windows(windows)
        key = (windows.shape[1:], self.compute_dtype, fused.fused_enabled())
        # Dropout draws random masks per forward: a train-mode model with
        # dropout neither replays a tape nor row-checks (the check would
        # consume its RNG), so it scores the full graph interpreted.
        dropout = self.training and self.config.dropout > 0
        with nn.no_grad(), nn.default_dtype(self.compute_dtype):
            slots = self._prelude(windows)
            rows = self._score_rows(slots, key) if last and not dropout else None
            if jit.jit_enabled() and not dropout:
                return self._jit_score(slots, key + (rows,))
            return self._interpreted(slots, rows)

    # -- trace-compiled scoring (see repro.nn.jit) ----------------------
    def _prelude(self, windows: np.ndarray) -> dict:
        """Interpreted per-call stage: maskers, PE, index slots."""
        slots = {"windows": _as_array(windows)}
        if self.temporal is not None:
            slots.update(self.temporal.prelude(windows))
        if self.frequency is not None:
            slots.update(self.frequency.prelude(windows))
        return slots

    def _one_row(self, slots: dict) -> dict:
        """``slots`` cut to the first window: batch slots sliced, the rest shared."""
        return {
            name: value[:1] if name in self._batch_slots else value
            for name, value in slots.items()
        }

    def _branches(self, slots: dict, rows: int | None = None
                  ) -> tuple[Tensor | None, Tensor | None]:
        """Both branch representations over prelude slots (None if ablated)."""
        p = self.temporal.graph(slots, rows) if self.temporal is not None else None
        f = self.frequency.graph(slots, rows) if self.frequency is not None else None
        return p, f

    def _score_graph(self, slots: dict, rows: int | None = None) -> Tensor:
        """Pure-tensor scoring graph over prelude slots (jit-traceable);
        with ``rows``, it scores the trailing ``rows`` positions only."""
        return self._score_head(slots, *self._branches(slots, rows), rows)

    def _interpreted(self, slots: dict, rows: int | None) -> np.ndarray:
        return self._score_post(self._score_graph(slots, rows).data, interpreted=True)

    def _score_head(self, slots: dict, p: Tensor | None, f: Tensor | None,
                    rows: int | None) -> Tensor:
        if self._dual:
            return F.symmetric_kl(p, f, reduce=False)
        representation = p if p is not None else f
        reconstruction = self.reconstruction_head(representation)
        return (reconstruction - _trailing(Tensor(slots["windows"]), rows)) ** 2

    def _score_rows(self, slots: dict, key) -> int | None:
        """Query rows the score-last graph computes in the final layers.

        The smallest of :data:`_ROW_CANDIDATES` below the window length
        whose last-row branch representations and score, on the call's
        first window, are bitwise those of the full graph; ``None`` (the
        full graph) if none is.  A row-sliced final layer runs its
        matmuls over fewer rows, and BLAS may pick another kernel, with
        another summation order, for those shapes.  The check assumes
        BLAS picks its kernel from the shapes alone, never from the
        values or the batch, so one window settles it for the process.
        """
        rows_key = (self.config, self.n_features) + key
        if rows_key not in _SCORE_ROWS:
            time, _ = key[0]
            one = self._one_row(slots)
            full = self._last_rows(one, None)
            _SCORE_ROWS[rows_key] = next(
                (rows for rows in _ROW_CANDIDATES if rows < time and all(
                    np.array_equal(a, b) for a, b in zip(self._last_rows(one, rows), full)
                )),
                None,
            )
        return _SCORE_ROWS[rows_key]

    def _last_rows(self, slots: dict, rows: int | None) -> list[np.ndarray]:
        """The last position's branch representations and score."""
        p, f = self._branches(slots, rows)
        score = self._score_post(self._score_head(slots, p, f, rows).data, interpreted=True)
        return [t.data[:, -1] for t in (p, f) if t is not None] + [score[:, -1]]

    def _score_post(self, data: np.ndarray, interpreted: bool = False) -> np.ndarray:
        """Final numpy stage: float64 score contract, owned output.

        Scores are float64 by contract regardless of compute_dtype
        (thresholds/metrics compare across policies).  Tape replay hands
        back a live frame buffer, so that path always copies.
        """
        if self._dual:
            if interpreted:
                return data.astype(np.float64, copy=False)  # repro: noqa[F64001]
            return np.array(data, dtype=np.float64)  # repro: noqa[F64001]
        return data.mean(axis=-1).astype(np.float64, copy=False)  # repro: noqa[F64001]

    def _touch_tape(self, key) -> None:
        """LRU touch: move ``key`` to the most-recent end.

        ``move_to_end`` never takes the key out of the dict, so serving
        workers sharing it keep hitting; a key another worker evicted
        meanwhile stays out.
        """
        with contextlib.suppress(KeyError):
            self._tapes.move_to_end(key)

    def _jit_score(self, slots: dict, key) -> np.ndarray:
        """Score prelude ``slots`` from the tape of ``key`` (whose last
        entry is the score-last row count), tracing it if need be."""
        rows = key[-1]
        batch = len(slots["windows"])
        tape = self._tapes.get(key)
        if tape is _UNSUPPORTED:
            self._touch_tape(key)
            return self._interpreted(slots, rows)
        slots.update((name, param.data) for name, param in self._param_slots)
        if tape is None or not tape.replays_at(batch):
            shared_key = (self.config, self.n_features) + key
            with _SHARED_TAPES_LOCK:
                tape = _SHARED_TAPES.get(shared_key)
            if tape is None or not tape.replays_at(batch):
                tape = self._trace(slots, rows, batch)
                if tape is not None:
                    # Another thread may have interned a tape for this
                    # key meanwhile; either one is correct.
                    with _SHARED_TAPES_LOCK:
                        _SHARED_TAPES[shared_key] = tape
            # A tape pinned to another batch size is replaced in place.
            self._tapes[key] = tape if tape is not None else _UNSUPPORTED
            self._touch_tape(key)
            while len(self._tapes) > self.config.jit_cache_size:
                self._tapes.popitem(last=False)
                self.jit_evictions += 1
            if tape is None:
                return self._interpreted(slots, rows)
        else:
            self._touch_tape(key)
        return self._score_post(tape.replay(slots))

    def _trace(self, slots: dict, rows: int | None, batch: int) -> jit.Tape | None:
        """Compile the scoring graph from the first window of ``slots``.

        A tape replays at every batch size, so one row is enough, and a
        trace costs a one-row interpreted forward whatever the batch.  A
        unit dimension in a reshape pins the one-row tape to batch 1
        (:meth:`repro.nn.jit.Tape.replays_at`); the whole batch is then
        traced instead, and that tape is retraced in place at another
        size when it pins too.  ``None``: the graph is not traceable.
        """
        one = self._one_row(slots)
        _, tape = jit.trace(lambda: self._score_graph(one, rows), one,
                            batch_slots=self._batch_slots)
        if tape is not None and not tape.replays_at(batch):
            _, tape = jit.trace(lambda: self._score_graph(slots, rows), slots,
                                batch_slots=self._batch_slots)
        return tape
