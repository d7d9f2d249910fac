"""Siamese convolutional models over unprocessed/processed clip pairs.

One branch network maps a clip representation to an embedding; the same
branch (same parameter tensors, so gradients from both applications
accumulate into one set of weights) is applied to the unprocessed and the
processed clip, the embeddings are merged by subtraction
``f(processed) - f(unprocessed)``, and a final dense layer maps the merge
to the predicted compressor parameters.

Variants:

* ``model1_mel``        -- five Conv2D 3x3 blocks (filters 10/15/15/20/20,
  each followed by MaxPool 2x2 and Dropout 0.1) on a mel spectrogram,
  flatten, dense embedding.
* ``model1_spec_tuned`` -- same stack on an STFT magnitude spectrogram with
  a smaller frame and the last two blocks using 1x3 kernels so the chain
  stays valid at reduced frequency resolutions.
* ``model2_waveform``   -- seven Conv1D(3) layers with batch norm
  (64/64/64/128/128/256/256 filters, six MaxPool(3) stages) on raw samples,
  then a residual back end of kernel-7 convolutions, global average
  pooling, dense embedding.
* ``model3_multikernel`` -- parallel front end on the spectrogram: six tall
  2-D kernels (F/2 and F-10 high, 1/3/7 wide) pooled flat across frequency
  plus four temporal kernels (4/8/16/32) on the frequency-averaged signal,
  concatenated along channels into the same residual back end.

Convolutions are valid, so residual additions crop their skip path to the
convolved length. Channel counts scale by a width multiplier (default 0.5)
to keep desk-scale runs fast; the embedding stays 50-dimensional.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    Adadelta,
    BatchNormState,
    Tensor,
    add,
    batchnorm,
    center_crop,
    concat,
    conv1d,
    conv2d,
    dense,
    dropout,
    flatten,
    global_avg_pool,
    glorot_uniform,
    maxpool1d,
    maxpool2d,
    mean_axis,
    mse_loss,
    relu,
    sub,
)
from .autodiff.checkpoint import load_checkpoint, save_checkpoint
from .config import check_leaves, integer
from .errors import DomainError, FormatError, NumericError, ShapeError

MODEL1_FILTERS = (10, 15, 15, 20, 20)
MODEL1_KERNELS_DEFAULT = ((3, 3), (3, 3), (3, 3), (3, 3), (3, 3))
MODEL1_KERNELS_TUNED = ((3, 3), (3, 3), (3, 3), (1, 3), (1, 3))
MODEL2_FRONT_FILTERS = (64, 64, 64, 128, 128, 256, 256)
MODEL2_BACK_FILTERS = 512
MODEL3_BRANCH_FILTERS = 8
MODEL3_TEMPORAL_KERNELS = (4, 8, 16, 32)


def default_representation(variant: str) -> dict:
    """Input representation each variant was designed around."""
    return {
        "model1_mel": {"kind": "mel", "frame_len": 256, "hop_len": None, "n_mels": 128},
        "model1_spec_tuned": {"kind": "spectrogram", "frame_len": 128, "hop_len": None},
        "model2_waveform": {"kind": "waveform"},
        "model3_multikernel": {"kind": "spectrogram", "frame_len": 256, "hop_len": None},
    }[variant]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture selector plus the few knobs the variants expose."""

    variant: str
    num_para: int
    width: float = 0.5
    embedding_dim: int = 50
    dropout_rate: float = 0.1
    kernels: tuple[tuple[int, int], ...] | None = None  # model 1 only
    seed: int = 0

    def __post_init__(self):
        check_leaves("model", vars(self), num_para=integer(1))  # num_para comes from the data

    def block_kernels(self) -> tuple[tuple[int, int], ...]:
        if self.kernels is not None:
            return self.kernels
        if self.variant == "model1_spec_tuned":
            return MODEL1_KERNELS_TUNED
        return MODEL1_KERNELS_DEFAULT


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    validation_fraction: float = 0.15
    max_epochs: int = 150
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        check_leaves("train", vars(self))


def _scale(filters: int, width: float) -> int:
    return max(1, round(filters * width))


class _ParamStore:
    """Shared bookkeeping for parameters and batch-norm buffers."""

    def __init__(self, rng: np.random.Generator, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.states: dict[str, BatchNormState] = {}

    def conv_param(self, name: str, shape: tuple[int, ...]) -> tuple[Tensor, Tensor]:
        *kernel, cin, cout = shape
        receptive = int(np.prod(kernel)) if kernel else 1
        w = Tensor(glorot_uniform(shape, receptive * cin, receptive * cout, self.rng, self.dtype),
                   requires_grad=True)
        b = Tensor(np.zeros(cout, dtype=self.dtype), requires_grad=True)
        self.params[f"{name}.w"] = w
        self.params[f"{name}.b"] = b
        return w, b

    def dense_param(self, name: str, d_in: int, d_out: int) -> tuple[Tensor, Tensor]:
        w = Tensor(glorot_uniform((d_in, d_out), d_in, d_out, self.rng, self.dtype),
                   requires_grad=True)
        b = Tensor(np.zeros(d_out, dtype=self.dtype), requires_grad=True)
        self.params[f"{name}.w"] = w
        self.params[f"{name}.b"] = b
        return w, b

    def bn_param(self, name: str, channels: int) -> tuple[Tensor, Tensor, BatchNormState]:
        gamma = Tensor(np.ones(channels, dtype=self.dtype), requires_grad=True)
        beta = Tensor(np.zeros(channels, dtype=self.dtype), requires_grad=True)
        state = BatchNormState(channels, dtype=self.dtype)
        self.params[f"{name}.gamma"] = gamma
        self.params[f"{name}.beta"] = beta
        self.states[name] = state
        return gamma, beta, state


class _ResidualBackEnd:
    """Two kernel-7 residual conv blocks, global pooling, dense embedding."""

    KERNEL = 7

    def __init__(self, store: _ParamStore, in_channels: int, in_len: int,
                 back_channels: int, embedding_dim: int, prefix: str = "back"):
        k = self.KERNEL
        # length check: L1 consumes k-1 steps, L2 another k-1, L4 another k-1
        if in_len < 3 * (k - 1) + 1:
            raise ShapeError(
                f"{prefix}: residual back end needs >= {3 * (k - 1) + 1} time steps, got {in_len}"
            )
        self.conv1 = store.conv_param(f"{prefix}.conv1", (k, in_channels, back_channels))
        self.bn1 = store.bn_param(f"{prefix}.bn1", back_channels)
        self.conv2 = store.conv_param(f"{prefix}.conv2", (k, back_channels, back_channels))
        self.bn2 = store.bn_param(f"{prefix}.bn2", back_channels)
        self.conv3 = store.conv_param(f"{prefix}.conv3", (k, back_channels, back_channels))
        self.bn3 = store.bn_param(f"{prefix}.bn3", back_channels)
        self.embed = store.dense_param(f"{prefix}.embed", back_channels, embedding_dim)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        l1 = relu(batchnorm(conv1d(x, *self.conv1), *self.bn1, training=training))
        l2 = batchnorm(conv1d(l1, *self.conv2), *self.bn2, training=training)
        l3 = relu(add(center_crop(l1, 1, l2.shape[1]), l2))
        l4 = batchnorm(conv1d(l3, *self.conv3), *self.bn3, training=training)
        merged = relu(add(center_crop(l3, 1, l4.shape[1]), l4))
        pooled = global_avg_pool(merged)
        return dense(pooled, *self.embed)


class Model1Branch:
    """Conv2D 3x3 blocks with max pooling and dropout, flatten, dense embedding."""

    def __init__(self, spec: ModelSpec, input_shape: tuple[int, int], dtype=np.float32):
        f, t = input_shape
        store = _ParamStore(np.random.default_rng(spec.seed), dtype)
        self.dropout_rng = np.random.default_rng(spec.seed + 1)
        self.dropout_rate = spec.dropout_rate
        kernels = spec.block_kernels()
        if not 1 <= len(kernels) <= len(MODEL1_FILTERS):
            raise DomainError(
                f"model 1 takes 1..{len(MODEL1_FILTERS)} blocks, got {len(kernels)}"
            )
        filters = [_scale(n, spec.width) for n in MODEL1_FILTERS[: len(kernels)]]
        self.blocks = []
        cin = 1
        for bi, ((kh, kw), cout) in enumerate(zip(kernels, filters), start=1):
            if f < kh or t < kw:
                raise ShapeError(f"block{bi}: conv {kh}x{kw} cannot consume input ({f}, {t})")
            f, t = f - kh + 1, t - kw + 1
            if f < 2 or t < 2:
                raise ShapeError(f"block{bi}: maxpool 2x2 cannot consume input ({f}, {t})")
            f, t = f // 2, t // 2
            self.blocks.append(store.conv_param(f"block{bi}.conv", (kh, kw, cin, cout)))
            cin = cout
        self.flat_dim = f * t * cin
        self.embed = store.dense_param("embed", self.flat_dim, spec.embedding_dim)
        self.params = store.params
        self.states = store.states

    def forward(self, x: Tensor, training: bool) -> Tensor:
        h = x
        for w, b in self.blocks:
            h = relu(conv2d(h, w, b))
            h = maxpool2d(h, (2, 2))
            h = dropout(h, self.dropout_rate, self.dropout_rng, training)
        return dense(flatten(h), *self.embed)


class Model2Branch:
    """Conv1D front end on raw waveform plus the residual back end."""

    def __init__(self, spec: ModelSpec, input_shape: tuple[int], dtype=np.float32):
        (length,) = input_shape
        store = _ParamStore(np.random.default_rng(spec.seed), dtype)
        filters = [_scale(n, spec.width) for n in MODEL2_FRONT_FILTERS]
        self.front = []
        cin = 1
        t = length
        for li, cout in enumerate(filters, start=1):
            if t < 3:
                raise ShapeError(f"front{li}: conv 3 cannot consume input length {t}")
            t -= 2
            conv = store.conv_param(f"front{li}.conv", (3, cin, cout))
            bn = store.bn_param(f"front{li}.bn", cout)
            pooled = li > 1  # first conv layer has no pool; the six after it do
            if pooled:
                if t < 3:
                    raise ShapeError(f"front{li}: maxpool 3 cannot consume input length {t}")
                t //= 3
            self.front.append((conv, bn, pooled))
            cin = cout
        self.front_out = (t, cin)
        self.back = _ResidualBackEnd(store, cin, t, _scale(MODEL2_BACK_FILTERS, spec.width),
                                     spec.embedding_dim)
        self.params = store.params
        self.states = store.states

    def forward(self, x: Tensor, training: bool) -> Tensor:
        h = x
        for conv, bn, pooled in self.front:
            h = relu(batchnorm(conv1d(h, *conv), *bn, training=training))
            if pooled:
                h = maxpool1d(h, 3)
        return self.back.forward(h, training)


class Model3Branch:
    """Parallel multi-kernel front end feeding the residual back end.

    Tall 2-D kernels are max-pooled flat across whatever frequency extent
    they leave, the temporal kernels run on the frequency-averaged signal,
    and all ten feature maps are center-cropped to the shortest time length
    before channel concatenation.
    """

    def __init__(self, spec: ModelSpec, input_shape: tuple[int, int], dtype=np.float32):
        f, t = input_shape
        if f < 12:
            raise ShapeError(f"multikernel front end needs >= 12 frequency bins, got {f}")
        store = _ParamStore(np.random.default_rng(spec.seed), dtype)
        cout = _scale(MODEL3_BRANCH_FILTERS, spec.width)
        self.kernels_2d = []
        lengths = []
        for kf in (f // 2, f - 10):
            for kt in (1, 3, 7):
                if t < kt:
                    raise ShapeError(f"2-D kernel ({kf}, {kt}) cannot consume input ({f}, {t})")
                name = f"front2d_{kf}x{kt}.conv"
                self.kernels_2d.append((store.conv_param(name, (kf, kt, 1, cout)), kf, kt))
                lengths.append(t - kt + 1)
        self.kernels_1d = []
        for kt in MODEL3_TEMPORAL_KERNELS:
            if t < kt:
                raise ShapeError(f"temporal kernel {kt} cannot consume {t} frames")
            self.kernels_1d.append((store.conv_param(f"front1d_{kt}.conv", (kt, 1, cout)), kt))
            lengths.append(t - kt + 1)
        self.common_len = min(lengths)
        channels = cout * (len(self.kernels_2d) + len(self.kernels_1d))
        self.back = _ResidualBackEnd(store, channels, self.common_len,
                                     _scale(MODEL2_BACK_FILTERS, spec.width), spec.embedding_dim)
        self.params = store.params
        self.states = store.states

    def forward(self, x: Tensor, training: bool) -> Tensor:
        feature_maps = []
        for (w, b), kf, kt in self.kernels_2d:
            h = relu(conv2d(x, w, b))                      # (N, f', t', C)
            h = maxpool2d(h, (h.shape[1], 1))              # collapse frequency
            h = mean_axis(h, 1)                            # squeeze the singleton axis
            feature_maps.append(center_crop(h, 1, self.common_len))
        averaged = mean_axis(x, 1)                         # (N, t, 1)
        for (w, b), kt in self.kernels_1d:
            h = relu(conv1d(averaged, w, b))
            feature_maps.append(center_crop(h, 1, self.common_len))
        merged = concat(feature_maps, axis=-1)
        return self.back.forward(merged, training)


def build_branch(spec: ModelSpec, input_shape: tuple[int, ...], dtype=np.float32):
    """Construct the branch network for a variant, validating layer chaining."""
    if spec.variant in ("model1_mel", "model1_spec_tuned"):
        if len(input_shape) != 2:
            raise ShapeError(f"{spec.variant} expects (bins, frames), got {input_shape}")
        return Model1Branch(spec, input_shape, dtype)
    if spec.variant == "model2_waveform":
        if len(input_shape) != 1:
            raise ShapeError(f"{spec.variant} expects (samples,), got {input_shape}")
        return Model2Branch(spec, input_shape, dtype)
    if len(input_shape) != 2:
        raise ShapeError(f"{spec.variant} expects (bins, frames), got {input_shape}")
    return Model3Branch(spec, input_shape, dtype)


class SiameseModel:
    """One shared branch, subtraction merge, dense prediction head."""

    def __init__(self, spec: ModelSpec, input_shape: tuple[int, ...], dtype=np.float32):
        self.spec = spec
        self.input_shape = tuple(input_shape)
        self.dtype = dtype
        self.branch = build_branch(spec, self.input_shape, dtype)
        head_rng = np.random.default_rng(spec.seed + 2)
        w = Tensor(glorot_uniform((spec.embedding_dim, spec.num_para), spec.embedding_dim,
                                  spec.num_para, head_rng, dtype), requires_grad=True)
        b = Tensor(np.zeros(spec.num_para, dtype=dtype), requires_grad=True)
        self.head = (w, b)

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.branch.params)
        out["head.w"], out["head.b"] = self.head
        return out

    @property
    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters().values())

    def _to_tensor(self, batch: np.ndarray) -> Tensor:
        arr = np.asarray(batch, dtype=self.dtype)
        if arr.shape[1:] != self.input_shape:
            raise ShapeError(f"batch shape {arr.shape[1:]} != model input {self.input_shape}")
        return Tensor(arr[..., None])  # channels-last singleton

    def merge(self, unprocessed: np.ndarray, processed: np.ndarray, training: bool) -> Tensor:
        emb_a = self.branch.forward(self._to_tensor(unprocessed), training)
        emb_b = self.branch.forward(self._to_tensor(processed), training)
        return sub(emb_b, emb_a)  # processed minus unprocessed

    def forward_pair(self, unprocessed: np.ndarray, processed: np.ndarray,
                     training: bool) -> Tensor:
        return dense(self.merge(unprocessed, processed, training), *self.head)

    def embed(self, batch: np.ndarray) -> np.ndarray:
        """Inference-mode branch embeddings ``f(batch)``, shape (N, embedding_dim)."""
        return self.branch.forward(self._to_tensor(batch), training=False).data.copy()

    def embed_pair(self, unprocessed: np.ndarray, processed: np.ndarray) -> np.ndarray:
        """Inference-mode merge embeddings, shape (N, embedding_dim)."""
        return self.merge(unprocessed, processed, training=False).data.copy()

    def predict(self, unprocessed: np.ndarray, processed: np.ndarray) -> np.ndarray:
        return self.forward_pair(unprocessed, processed, training=False).data.copy()

    def branch_checksum(self) -> float:
        """Checksum over branch weights; both siamese applications share these."""
        return float(sum(np.sum(np.float64(p.data)) for p in self.branch.params.values()))

    # -- persistence --------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: p.data for name, p in self.parameters().items()}
        for name, st in self.branch.states.items():
            arrays[f"{name}.running_mean"] = st.running_mean
            arrays[f"{name}.running_var"] = st.running_var
        return dict(sorted(arrays.items()))

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        for name, p in params.items():
            if name not in arrays:
                raise DomainError(f"checkpoint missing parameter {name!r}")
            if tuple(arrays[name].shape) != p.shape:
                raise ShapeError(
                    f"checkpoint parameter {name!r} has shape {arrays[name].shape}, "
                    f"expected {p.shape}")
            p.data = arrays[name].astype(self.dtype)
        for name, st in self.branch.states.items():
            for attr in ("running_mean", "running_var"):
                key = f"{name}.{attr}"
                if key not in arrays:
                    raise DomainError(f"checkpoint missing buffer {key!r}")
                setattr(st, attr, arrays[key].astype(self.dtype))


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float


def train(model: SiameseModel, clips: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray,
          y: np.ndarray, config: TrainConfig) -> list[EpochStats]:
    """Train with Adadelta + MSE; early-stops on validation loss.

    Pair ``i`` is ``clips[a_idx[i]]`` (unprocessed) with ``clips[b_idx[i]]``
    (processed), so a clip shared by many pairs is held once; each batch
    gathers its own rows. ``y`` must already be normalized to [0, 1] per
    target. The model is left holding the parameters of its best validation
    epoch.
    """
    n = len(y)
    if not (len(a_idx) == len(b_idx) == n):
        raise DomainError(f"pair/label counts differ: {len(a_idx)}, {len(b_idx)}, {n}")
    if n < 2:
        raise DomainError("need at least 2 training pairs")
    y = np.asarray(y, dtype=model.dtype)
    if y.ndim != 2 or y.shape[1] != model.spec.num_para:
        raise ShapeError(f"labels must be (n, {model.spec.num_para}), got {y.shape}")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n)) if config.validation_fraction > 0 else 0
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise DomainError("validation fraction leaves no training data")

    optimizer = Adadelta(model.parameters())
    history: list[EpochStats] = []
    best_val = np.inf
    best_state: dict[str, np.ndarray] | None = None
    since_best = 0

    def eval_mse(idx: np.ndarray) -> float:
        total = 0.0
        for start in range(0, len(idx), config.batch_size):
            sel = idx[start:start + config.batch_size]
            pred = model.predict(clips[a_idx[sel]], clips[b_idx[sel]])
            total += float(np.sum((pred - y[sel]) ** 2))
        return total / (len(idx) * y.shape[1])

    for epoch in range(1, config.max_epochs + 1):
        epoch_order = train_idx[rng.permutation(len(train_idx))]
        total = 0.0
        for start in range(0, len(epoch_order), config.batch_size):
            sel = epoch_order[start:start + config.batch_size]
            try:
                pred = model.forward_pair(clips[a_idx[sel]], clips[b_idx[sel]], training=True)
                loss = mse_loss(pred, y[sel])
                loss.backward()
                optimizer.step()
            except NumericError as err:
                raise NumericError(f"training diverged at epoch {epoch}: {err}") from err
            optimizer.zero_grad()
            total += float(loss.data) * len(sel)
        train_mse = total / len(epoch_order)
        val_mse = eval_mse(val_idx) if n_val else train_mse
        history.append(EpochStats(epoch=epoch, train_mse=train_mse, val_mse=val_mse))

        if val_mse < best_val:
            best_val = val_mse
            best_state = {k: v.copy() for k, v in model.state_arrays().items()}
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break

    if best_state is not None:
        model.load_state_arrays(best_state)
    return history


# ---------------------------------------------------------------------------
# persistence


def save_model(path: str | Path, model: SiameseModel, label_ranges: dict[str, tuple[float, float]],
               representation: dict, train_seed: int) -> None:
    """Write weights (binary) plus a JSON sidecar describing the setup."""
    path = Path(path)
    save_checkpoint(path, model.state_arrays())
    sidecar = {
        "variant": model.spec.variant,
        "num_para": model.spec.num_para,
        "width": model.spec.width,
        "embedding_dim": model.spec.embedding_dim,
        "dropout_rate": model.spec.dropout_rate,
        "kernels": [list(k) for k in model.spec.block_kernels()],
        "model_seed": model.spec.seed,
        "input_shape": list(model.input_shape),
        "label_ranges": {k: list(v) for k, v in label_ranges.items()},
        "representation": representation,
        "train_seed": train_seed,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> tuple[SiameseModel, dict]:
    """Rebuild a model from checkpoint + sidecar; returns (model, sidecar).

    A sidecar that is not valid JSON, lacks a key or holds a value that its
    config rule rejects raises ``FormatError`` naming it.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        check_leaves("representation", sidecar["representation"])
        spec = ModelSpec(
            variant=sidecar["variant"],
            num_para=sidecar["num_para"],
            width=sidecar["width"],
            embedding_dim=sidecar["embedding_dim"],
            dropout_rate=sidecar["dropout_rate"],
            kernels=tuple(tuple(k) for k in sidecar["kernels"]),
            seed=sidecar["model_seed"],
        )
        input_shape = tuple(sidecar["input_shape"])
    except KeyError as err:
        raise FormatError(f"{sidecar_path}: missing key {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError, DomainError) as err:
        raise FormatError(f"{sidecar_path}: malformed checkpoint sidecar: {err}") from err
    model = SiameseModel(spec, input_shape, dtype=np.float32)
    model.load_state_arrays(load_checkpoint(path))
    return model, sidecar
