"""Encoder-decoder forecaster with pluggable attention, training, checkpoints.

The architecture is deliberately plain: affine embedding plus sinusoidal
position signal, N encoder layers (multi-head self-attention, residual,
two width-preserving projections, LeakyReLU 0.01), N decoder layers (the
same plus a second attention block against the encoder output), a feature
projection back to the input width, and one final n -> m projection on
the time axis that turns n processed steps into m forecast steps. No
output softmax: forecasts are regression values.

Two wiring notes, both deliberate:

* The decoder consumes the same embedded input window as the encoder
  (one-shot forecasting; there is no autoregressive target stream).
* In the decoder's second attention block the queries AND keys come from
  the encoder output while the values come from the decoder stream. That
  assignment is unusual (convention projects queries from the decoder
  stream and keys/values from the encoder).

The whole forward is written once against the ops backend, so the same
code runs eagerly for inference and on the autodiff tape for training.
Every weight is stored in the orientation the forward multiplies it by,
so no forward transposes a parameter.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .attention import _check_window, _full_attention, _multi_head
from .autodiff import Graph, Node
from .data import Scaler, WindowedDataset, mae, mean_errors
from .lam import _lam_attention, default_window
from . import tensor
from .tensor import DimensionError, Tensor

__all__ = [
    "ModelConfig",
    "ForecastModel",
    "TrainReport",
    "TrainDivergenceError",
    "positional_encoding",
    "train",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 4
LEAKY_SLOPE = 0.01  # negative-side slope of every projection's LeakyReLU


def positional_encoding(n: int, d_model: int) -> Tensor:
    """Position signal PE[i, j] = sin(i / 10000^(j/d_model)) + cos(same).

    Row 0 is all ones (both terms at argument 0); every entry lies in
    [-sqrt(2), sqrt(2)]. Added to the embedded input to give the
    otherwise order-blind attention layers a notion of position.
    """
    if n < 1 or d_model < 1:
        raise ValueError(f"need n >= 1 and d_model >= 1, got n={n}, d_model={d_model}")
    i = np.arange(n, dtype=np.float64)[:, np.newaxis]
    j = np.arange(d_model, dtype=np.float64)[np.newaxis, :]
    angle = i / np.power(10000.0, j / d_model)
    return Tensor._wrap(np.sin(angle) + np.cos(angle))


@dataclass(frozen=True)
class ModelConfig:
    """Geometry of one forecaster, its attention kind (full or lam) and seed.

    ``window`` only matters for kind="lam" and defaults to the
    4*ceil(log2 n) rule. Each head is d_model / heads wide, so heads
    must divide d_model. Every field but ``kind`` is a Python or numpy
    integer, never a bool, and is stored as an int. The LeakyReLU slope
    and the position signal are fixed: :data:`LEAKY_SLOPE`, and
    :func:`positional_encoding` always added.
    """

    d_features: int
    n: int
    m: int
    d_model: int = 8
    num_layers: int = 2
    heads: int = 2
    kind: str = "lam"
    window: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("d_features", "n", "m", "d_model", "num_layers", "heads", "window", "seed"):
            value = getattr(self, name)
            if name == "window" and value is None:
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is not JSON
        if self.d_features < 1:
            raise ValueError(f"d_features must be >= 1, got {self.d_features}")
        if not self.n >= self.m >= 1:
            raise ValueError(f"need n >= m >= 1, got n={self.n}, m={self.m}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.kind not in ("full", "lam"):
            raise ValueError(f"unknown kind {self.kind!r}; expected full or lam")
        if not (self.d_model >= 1 and self.heads >= 1 and self.d_model % self.heads == 0):
            raise ValueError(
                f"need heads >= 1 dividing d_model >= 1, "
                f"got d_model={self.d_model}, heads={self.heads}"
            )
        if self.window is None:
            object.__setattr__(self, "window", default_window(self.n))
        _check_window(self.n, self.window)

    @property
    def d_head(self) -> int:
        """Width of one attention head."""
        return self.d_model // self.heads


def _resolve_inner(kind: str, window: int | None, seed: int):
    """The attention callable (ops, q, k, v) -> out of one model kind, full or lam.

    ``seed`` is unused by both kinds; the signature stays (kind, window,
    seed) because the benchmark's tracer wraps this function by name and
    calls it with three positional arguments.
    """
    if kind == "full":
        return lambda ops, q, k, v: _full_attention(ops, q, k, v)
    if kind == "lam":
        if window is None:
            raise ValueError("kind 'lam' needs a window")
        return lambda ops, q, k, v: _lam_attention(ops, q, k, v, window)
    raise ValueError(f"unknown attention kind {kind!r}; expected full or lam")


class ForecastModel:
    """n x d_features -> m x d_features forecaster; parameters in a flat dict.

    Parameter names are dotted paths (``enc0.head1.wq``, ``time.w``) so
    the same names key the autodiff gradients, the optimizer state, and
    the checkpoint file. Weights act as ``x @ W`` and are C-contiguous:
    ``embed.w`` (d_features, d_model), each head's ``wq``/``wk``/``wv``
    (d_model, d_head), ``wo`` (heads*d_head, d_model), ``ff1.w``/``ff2.w``
    (d_model, d_model) and ``unembed.w`` (d_model, d_features); ``time.w``
    is (m, n) and multiplies from the left. Each weight is drawn
    U(±1/sqrt(rows)); the head weights and ``time.w`` are drawn as their
    transposes, (d_head, d_model) and (n, m), so seeded values match
    version-3 checkpoints.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.pe = positional_encoding(config.n, config.d_model)
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(config.seed)
        self._weight(rng, "embed.w", (config.d_features, config.d_model))
        self._bias("embed.b", config.d_model)
        for i in range(config.num_layers):
            self._attention_params(rng, f"enc{i}")
            self._projection_params(rng, f"enc{i}")
        for i in range(config.num_layers):
            self._attention_params(rng, f"dec{i}.self")
            self._attention_params(rng, f"dec{i}.cross")
            self._projection_params(rng, f"dec{i}")
        self._weight(rng, "unembed.w", (config.d_model, config.d_features))
        self._bias("unembed.b", config.d_features)
        self._weight(rng, "time.w", (config.n, config.m), transposed=True)

    def _weight(self, rng, name: str, shape: tuple[int, int], transposed=False) -> None:
        bound = 1.0 / math.sqrt(shape[0])
        draw = rng.uniform(-bound, bound, size=shape)
        self.params[name] = Tensor._wrap(np.ascontiguousarray(draw.T) if transposed else draw)

    def _bias(self, name: str, width: int) -> None:
        self.params[name] = Tensor.zeros((width,))

    def _attention_params(self, rng, prefix: str) -> None:
        cfg = self.config
        drawn = (cfg.d_head, cfg.d_model)
        for j in range(cfg.heads):
            for w in ("wq", "wk", "wv"):
                self._weight(rng, f"{prefix}.head{j}.{w}", drawn, transposed=True)
        self._weight(rng, f"{prefix}.wo", (cfg.heads * cfg.d_head, cfg.d_model))

    def _projection_params(self, rng, prefix: str) -> None:
        d = self.config.d_model
        self._weight(rng, f"{prefix}.ff1.w", (d, d))
        self._bias(f"{prefix}.ff1.b", d)
        self._weight(rng, f"{prefix}.ff2.w", (d, d))
        self._bias(f"{prefix}.ff2.b", d)

    # -- forward ---------------------------------------------------------

    def _mh(self, ops, prefix: str, q, k, v, p, inner):
        head_ws = [
            [p(f"{prefix}.head{j}.{w}") for w in ("wq", "wk", "wv")]
            for j in range(self.config.heads)
        ]
        return _multi_head(ops, q, k, v, head_ws, p(f"{prefix}.wo"), inner)

    def _projections(self, ops, prefix: str, x, p):
        h = ops.affine(x, p(f"{prefix}.ff1.w"), p(f"{prefix}.ff1.b"), LEAKY_SLOPE)
        return ops.affine(h, p(f"{prefix}.ff2.w"), p(f"{prefix}.ff2.b"), LEAKY_SLOPE)

    def _encoder_layer(self, ops, i: int, x, p, inner):
        attended = self._mh(ops, f"enc{i}", x, x, x, p, inner)
        return self._projections(ops, f"enc{i}", ops.add(x, attended), p)

    def _decoder_layer(self, ops, i: int, y, enc, p, inner):
        self_att = self._mh(ops, f"dec{i}.self", y, y, y, p, inner)
        r1 = ops.add(y, self_att)
        cross = self._mh(ops, f"dec{i}.cross", enc, enc, r1, p, inner)
        return self._projections(ops, f"dec{i}", ops.add(r1, cross), p)

    def _embed(self, ops, x, p):
        return ops.add(ops.affine(x, p("embed.w"), p("embed.b")), ops.constant(self.pe))

    def _encode(self, ops, stream, p, inner):
        enc = stream
        for i in range(self.config.num_layers):
            enc = self._encoder_layer(ops, i, enc, p, inner)
        return enc

    def _forward(self, ops, x, p, inner):
        stream = self._embed(ops, x, p)
        enc = self._encode(ops, stream, p, inner)
        dec = stream
        for i in range(self.config.num_layers):
            dec = self._decoder_layer(ops, i, dec, enc, p, inner)
        return ops.matmul_batched(p("time.w"), ops.affine(dec, p("unembed.w"), p("unembed.b")))

    def _check_input(self, x: Tensor) -> None:
        want = (self.config.n, self.config.d_features)
        if x.shape != want:
            raise DimensionError(f"input shape {x.shape} != {want}")

    def _inner(self):
        cfg = self.config
        return _resolve_inner(cfg.kind, cfg.window, cfg.seed)

    def forward(self, x: Tensor, inner=None) -> Tensor:
        """Eager forecast: n x d_features -> m x d_features.

        ``inner`` overrides the attention callable (ops, q, k, v) -> out;
        used to swap in reference kernels for interchangeability checks.
        """
        self._check_input(x)
        return self._forward(
            tensor, x, lambda name: self.params[name], inner or self._inner()
        )

    def encode(self, x: Tensor) -> Tensor:
        """Embedding plus position signal, and the encoder stack only."""
        self._check_input(x)
        p = lambda name: self.params[name]
        return self._encode(tensor, self._embed(tensor, x, p), p, self._inner())

    def forward_graph(self, g: Graph, x: Tensor) -> tuple[Node, dict[str, Node]]:
        """Recorded forward for training; returns output node and param nodes."""
        self._check_input(x)
        nodes = {name: g.parameter(t) for name, t in self.params.items()}
        out = self._forward(g, g.constant(x), lambda name: nodes[name], self._inner())
        return out, nodes


# -- training -------------------------------------------------------------


class TrainDivergenceError(RuntimeError):
    """Training loss left the finite range; carries the last finite curve."""

    def __init__(self, message: str, history: dict[str, list[float]]):
        super().__init__(message)
        self.history = history


@dataclass
class TrainReport:
    """Per-epoch curves and wall times plus final held-out metrics."""

    epochs_run: int
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    train_mae: list[float] = field(default_factory=list)
    val_mae: list[float] = field(default_factory=list)
    test_mse: float | None = None
    test_mae: float | None = None
    stopped_early: bool = False
    best_epoch: int = -1
    epoch_seconds: list[float] = field(default_factory=list)


def evaluate(model: ForecastModel, windows) -> tuple[float, float]:
    """Mean MSE / MAE of eager forecasts over (input, target) windows."""
    return mean_errors((model.forward(x), y) for x, y in windows)


def _window_grads(model: ForecastModel, x: Tensor, y: Tensor):
    """(gradients by parameter node id, parameter nodes by name, window MSE, window MAE)."""
    g = Graph()
    out, nodes = model.forward_graph(g, x)
    loss = g.mse(out, y)
    return g.backward(loss), nodes, loss.value.item(), mae(g.value(out), y)


def train(
    model: ForecastModel,
    dataset: WindowedDataset,
    epochs: int = 20,
    lr: float = 1e-2,
    batch: int = 32,
    patience: int = 3,
    log=None,
) -> TrainReport:
    """Adam on window MSE with validation-plateau early stopping.

    Shuffles train windows each epoch (seeded from the model config),
    averages gradients over each batch, and tracks the best validation
    epoch; those best parameters are restored before returning. ``log``
    gets one line per epoch: the losses, the epoch's wall seconds
    (training plus validation) and its training windows per second. Raises
    :class:`TrainDivergenceError` if any loss goes non-finite, and
    ``ValueError`` if the dataset has no training or validation windows or
    a setting is out of range (``lr`` must be finite and > 0).
    """
    if not dataset.train:
        raise ValueError("dataset has no training windows")
    if not dataset.val:
        raise ValueError("dataset has no validation windows")
    if epochs < 0 or batch < 1 or patience < 0 or not 0 < lr < math.inf:
        raise ValueError("need epochs >= 0, batch >= 1, patience >= 0 and a finite lr > 0")
    rng = np.random.default_rng(model.config.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1 = {k: np.zeros_like(t.data) for k, t in model.params.items()}
    moment2 = {k: np.zeros_like(t.data) for k, t in model.params.items()}
    steps = 0
    report = TrainReport(epochs_run=0)
    best_val = math.inf
    best_params = {k: t.data.copy() for k, t in model.params.items()}
    stale = 0

    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(len(dataset.train))
        # window-indexed so the epoch mean is independent of shuffle order
        epoch_se = np.zeros(len(order))
        epoch_ae = np.zeros(len(order))
        for at in range(0, len(order), batch):
            chunk = order[at : at + batch]
            accum = {k: np.zeros_like(t.data) for k, t in model.params.items()}
            for idx in chunk:
                x, y = dataset.train[idx]
                grads, nodes, window_mse, window_mae = _window_grads(model, x, y)
                if not math.isfinite(window_mse):
                    raise TrainDivergenceError(
                        f"non-finite loss at epoch {epoch}, window {int(idx)}",
                        {"train_mse": report.train_mse, "val_mse": report.val_mse},
                    )
                epoch_se[idx] = window_mse
                epoch_ae[idx] = window_mae
                for name, node in nodes.items():
                    accum[name] += grads[node.id].data
            steps += 1
            scale = 1.0 / len(chunk)
            correct1 = 1.0 - beta1**steps
            correct2 = 1.0 - beta2**steps
            for name, t in model.params.items():
                ghat = accum[name] * scale
                moment1[name] = beta1 * moment1[name] + (1 - beta1) * ghat
                moment2[name] = beta2 * moment2[name] + (1 - beta2) * ghat * ghat
                step = (
                    lr
                    * (moment1[name] / correct1)
                    / (np.sqrt(moment2[name] / correct2) + eps)
                )
                model.params[name] = Tensor._wrap(t.data - step)
        report.train_mse.append(float(epoch_se.mean()))
        report.train_mae.append(float(epoch_ae.mean()))
        val_mse, val_mae = evaluate(model, dataset.val)
        report.val_mse.append(val_mse)
        report.val_mae.append(val_mae)
        report.epochs_run = epoch + 1
        report.epoch_seconds.append(time.perf_counter() - started)
        if log is not None:
            log(
                f"epoch {epoch}: train_mse={report.train_mse[-1]:.6f} "
                f"val_mse={val_mse:.6f} {report.epoch_seconds[-1]:.2f}s "
                f"{len(order) / report.epoch_seconds[-1]:.1f} windows/s"
            )
        if not math.isfinite(val_mse):
            raise TrainDivergenceError(
                f"non-finite validation loss at epoch {epoch}",
                {"train_mse": report.train_mse, "val_mse": report.val_mse},
            )
        if val_mse < best_val:
            best_val = val_mse
            best_params = {k: t.data.copy() for k, t in model.params.items()}
            report.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= patience > 0:
                report.stopped_early = True
                break

    if report.best_epoch >= 0:
        for name, arr in best_params.items():
            model.params[name] = Tensor._wrap(arr)
    if dataset.test:
        report.test_mse, report.test_mae = evaluate(model, dataset.test)
    return report


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(model: ForecastModel, path: str, scaler: Scaler, feature_names) -> str:
    """Write parameters plus a JSON manifest (config, scaler, feature names).

    Every checkpoint carries the scaler its model was trained under and
    one name per feature, so it can forecast raw series on its own.
    Arrays are stored uncompressed at full precision, so a load followed
    by a forward is bitwise identical to the pre-save forward. Returns
    the path actually written (a ``.npz`` suffix is added if missing,
    matching the storage format).
    """
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "param_names": list(model.params),
        "scaler": {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()},
        "feature_names": list(feature_names),
    }
    if not path.endswith(".npz"):
        path += ".npz"
    arrays = {name: t.data for name, t in model.params.items()}
    np.savez(path, __manifest__=np.array(json.dumps(manifest)), **arrays)
    return path


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, incomplete or inconsistent."""


def load_checkpoint(path: str):
    """Rebuild (model, scaler, feature_names) from :func:`save_checkpoint`.

    Raises :class:`CheckpointError` for a file that is not a complete
    archive, a version other than :data:`CHECKPOINT_VERSION` (checked
    first), a missing manifest entry or array, an invalid config (an
    unknown key included), a name or shape mismatch, a non-finite value,
    a scaler without one finite mean and positive deviation per feature,
    or feature names that are not one string per feature.
    """
    try:
        with np.load(path, allow_pickle=False) as payload:
            arrays = {key: payload[key] for key in payload.files}
        manifest = json.loads(str(arrays.pop("__manifest__")[()]))
        version = manifest["version"]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"checkpoint version {version} != {CHECKPOINT_VERSION}")
        config, names, stats, feature_names = (
            manifest[key] for key in ("config", "param_names", "scaler", "feature_names")
        )
        mean, std = (np.asarray(stats[key], dtype=np.float64) for key in ("mean", "std"))
    except CheckpointError:
        raise
    except KeyError as exc:
        raise CheckpointError(f"{path} has no {exc}") from exc
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(f"{path} is not a readable checkpoint: {exc}") from exc
    try:
        model = ForecastModel(ModelConfig(**config))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    if names != list(model.params):
        raise CheckpointError("checkpoint parameter names do not match the config")
    for name, param in model.params.items():
        if name not in arrays:
            raise CheckpointError(f"{path} has no array for {name}")
        arr = arrays[name]
        if arr.shape != param.shape:
            raise CheckpointError(
                f"checkpoint shape {arr.shape} != expected {param.shape} for {name}"
            )
        if arr.dtype != np.float64 or not np.isfinite(arr).all():
            raise CheckpointError(f"parameter {name} is not finite float64")
        model.params[name] = Tensor(np.ascontiguousarray(arr))
    d = model.config.d_features
    if not (mean.shape == std.shape == (d,)
            and np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
        raise CheckpointError("checkpoint scaler needs one finite mean and positive "
                              "deviation per feature")
    if not (isinstance(feature_names, list) and len(feature_names) == d
            and all(isinstance(name, str) for name in feature_names)):
        raise CheckpointError("checkpoint needs one string feature name per feature")
    return model, Scaler(mean=mean, std=std), feature_names
