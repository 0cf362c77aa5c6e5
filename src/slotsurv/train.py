"""Training loop, Adam optimizer, k-fold harness, checkpointing and
evaluation.

Each batch is one graph over padded tensors (``model.build_cohort_loss``):
histology bags of uneven size are zero-padded to the longest bag of the
batch, and an instance mask keeps the padding out of every result.
Inference runs the same trunk on a batch of one, with every histology
row.  The optimizer state, parameter tensors, config snapshot and rng
state round-trip through a single checkpoint file byte-for-byte; a
corrupt or inconsistent file, or one holding a non-finite tensor, raises
``CheckpointError``, and saves are atomic.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import model as model_mod
from . import recon as recon_mod
from . import survival as surv_mod
from .autodiff import _AGGREGATIONS, GraphError, backward
from .data import Cohort, FeatureBag
from .model import ModelParams, build_cohort_loss, patient_forward

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"SSCK"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sHHI")   # magic, version, reserved, index length

_PRECISIONS = {"float32": np.float32, "float64": np.float64}


class DivergenceError(RuntimeError):
    """Training loss went non-finite on consecutive batches."""


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint file."""


# ------------------------------------------------------------------ run config


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of a training run.  Defaults are the reference recipe."""

    learning_rate: float = 5e-4
    epochs: int = 30
    batch_size: int = 32
    lam: float = 0.1                  # reconstruction weight; 0 disables
    n_slots_h: int = 16
    n_slots_g: int = 16
    t_iters: int = 10                 # slot-attention refinement steps
    l_iters: int = 3                  # cross-attention exchange rounds
    k_fraction: float = 0.25          # retained fraction of slots per gate
    temperature: float = 0.01
    patch_subsample: int = 4096       # histology rows per training pass
    n_bins: int = 4                   # discrete time intervals
    seed: int = 0
    precision: str = "float32"
    aggregation: str = "mean"         # slot-attention update pooling
    n_folds: int = 5
    selective: bool = True            # gated top-K mixture (off: plain softmax)

    def validate(self) -> None:
        positive = ("learning_rate", "batch_size", "lam", "n_slots_h",
                    "n_slots_g", "t_iters", "l_iters", "k_fraction",
                    "temperature", "patch_subsample", "n_bins")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)!r}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.k_fraction > 1.0:
            raise ValueError(f"k_fraction must be <= 1, got {self.k_fraction}")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(_PRECISIONS)}")
        if self.aggregation not in _AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {_AGGREGATIONS}")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def dtype(self):
        return _PRECISIONS[self.precision]

    @property
    def k_h(self) -> int:
        return k_from_fraction(self.k_fraction, self.n_slots_h)

    @property
    def k_g(self) -> int:
        return k_from_fraction(self.k_fraction, self.n_slots_g)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg


def k_from_fraction(fraction: float, n_slots: int) -> int:
    """Slots retained by a gate: round(fraction * S), at least 1."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return int(min(n_slots, max(1, round(fraction * n_slots))))


# ------------------------------------------------------------------- optimizer


@dataclass
class AdamState:
    """First/second moment estimates plus step and skip counters."""

    m: dict
    v: dict
    t: int = 0
    skipped: int = 0

    @classmethod
    def zeros_like(cls, arrays: dict) -> "AdamState":
        # Moments always live in float64: squared float32 gradients can
        # overflow single precision, and an inf second moment never heals.
        return cls(m={k: np.zeros(v.shape) for k, v in arrays.items()},
                   v={k: np.zeros(v.shape) for k, v in arrays.items()})


def adam_step(arrays: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> dict:
    """One Adam update over a flat name->array mapping.

    Missing gradient entries count as zero.  Any non-finite gradient skips
    the whole step (parameters and moments untouched) and bumps the skip
    counter, so one bad batch cannot poison the moments.
    """
    for name in arrays:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            state.skipped += 1
            log.warning("skipping optimizer step: non-finite gradient in %s",
                        name)
            return arrays
    state.t += 1
    corr1 = 1.0 - beta1 ** state.t
    corr2 = 1.0 - beta2 ** state.t
    out = {}
    for name, x in arrays.items():
        g = grads.get(name)
        g = np.zeros(x.shape) if g is None else np.asarray(g, np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        step = lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        out[name] = (x - step).astype(x.dtype, copy=False)
    return out


# ----------------------------------------------------------------- checkpoints


@dataclass
class Checkpoint:
    """Everything needed to evaluate a run: parameters, Adam moments, the
    config, and the PCG64 state of the run's rng at its end.  It cannot
    resume a run: ``train()`` always starts its rng from ``config.seed``
    and reads no checkpoint."""

    params: ModelParams
    adam: AdamState
    config: TrainConfig
    epoch: int
    rng_state: dict
    steps_trained: int

    def named_tensors(self) -> dict:
        """Flat tensor map: model parameters plus optimizer moments."""
        out = dict(model_mod.named_parameters(self.params))
        for name, arr in self.adam.m.items():
            out[f"adam.m.{name}"] = arr
        for name, arr in self.adam.v.items():
            out[f"adam.v.{name}"] = arr
        return out


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Named-tensor container: JSON index + raw little-endian payloads.

    Tensors are laid out in sorted name order and the index is dumped with
    sorted keys, so identical state always produces identical bytes.
    """
    tensors = ckpt.named_tensors()
    index_rows = []
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        code = {"float32": "<f4", "float64": "<f8"}.get(arr.dtype.name)
        if code is None:
            raise ValueError(f"tensor {name} has unsupported dtype {arr.dtype}")
        blob = arr.astype(code, copy=False).tobytes()
        index_rows.append({"name": name, "dtype": code,
                           "shape": list(arr.shape),
                           "offset": len(payload), "nbytes": len(blob)})
        payload.extend(blob)
    index = {
        "version": CHECKPOINT_VERSION,
        "epoch": ckpt.epoch,
        "steps_trained": ckpt.steps_trained,
        "skipped_steps": ckpt.adam.skipped,
        "adam_t": ckpt.adam.t,
        "config": ckpt.config.as_dict(),
        "rng_state": ckpt.rng_state,
        "tensors": index_rows,
    }
    doc = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
    with data_mod.atomic_write(path) as fh:
        fh.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0,
                                   len(doc)))
        fh.write(doc)
        fh.write(payload)


_CKPT_DTYPES = {"<f4": 4, "<f8": 8}


def _checkpoint_tensors(path, payload: bytes, rows) -> dict:
    """Decode the tensor table.  The tensors must tile the payload exactly:
    no negative or overlapping offsets, no gaps, no trailing bytes; each
    ``nbytes`` must match its shape and dtype, and every entry must be
    finite."""
    tensors = {}
    end = 0
    for row in sorted(rows, key=lambda r: r["offset"]):
        name, shape = row["name"], tuple(row["shape"])
        size = _CKPT_DTYPES.get(row["dtype"])
        if size is None:
            raise CheckpointError(f"{path}: tensor {name} has dtype {row['dtype']!r}")
        if any(not isinstance(n, int) or n < 0 for n in shape):
            raise CheckpointError(f"{path}: tensor {name} has shape {list(shape)}")
        if row["nbytes"] != size * int(np.prod(shape, dtype=np.int64)):
            raise CheckpointError(f"{path}: tensor {name} declares {row['nbytes']} "
                                  f"bytes for shape {list(shape)}")
        if row["offset"] < 0:
            raise CheckpointError(f"{path}: tensor {name} has negative offset "
                                  f"{row['offset']}")
        if row["offset"] != end:
            what = "overlaps" if row["offset"] < end else "leaves a gap before"
            raise CheckpointError(f"{path}: tensor {name} at offset "
                                  f"{row['offset']} {what} byte {end}")
        end += row["nbytes"]
        if end > len(payload):
            raise CheckpointError(f"{path}: tensor {name} truncated")
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} listed twice")
        arr = np.frombuffer(payload[row["offset"]:end], dtype=row["dtype"])
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name} has non-finite entries")
        tensors[name] = arr.reshape(shape).copy()
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} trailing bytes")
    return tensors


def _check_geometry(path, params, config: TrainConfig) -> None:
    """Every parameter must have the shape and precision that a fresh model
    of the checkpoint's sizes has."""
    arrays = model_mod.named_parameters(params)
    sizes = {"dim": params.dim, "n_slots_h": config.n_slots_h,
             "n_slots_g": config.n_slots_g, "m_gen": params.positions.m_rows,
             "n_bins": config.n_bins}
    # each size is an axis of some (dim, size) parameter, so sizes whose
    # products outgrow the stored entries cannot match; reject them before
    # drawing a model that large
    stored = sum(a.size for a in arrays.values())
    if any(sizes["dim"] * n > stored for n in sizes.values()):
        raise CheckpointError(f"{path}: sizes {sizes} do not fit the "
                              f"{stored} stored parameter entries")
    fresh = model_mod.named_parameters(
        model_mod.init_model(np.random.default_rng(0), **sizes))
    for name, arr in arrays.items():
        if arr.shape != fresh[name].shape or arr.dtype != config.dtype:
            raise CheckpointError(
                f"{path}: tensor {name} is {arr.dtype}{list(arr.shape)}; a "
                f"{config.precision} model of sizes {sizes} needs "
                f"{list(fresh[name].shape)}")


def _check_rng_state(path, state) -> None:
    """The rng state must be a PCG64 state that a fresh generator reads back
    unchanged.  Malformed input makes the setter raise TypeError, ValueError,
    OverflowError or KeyError.  The setter does not check that ``has_uint32``
    is a 0/1 flag or that the increment is odd, as every PCG64 increment is,
    so those are checked here."""
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    if (bit_generator.state != state or state["has_uint32"] not in (0, 1)
            or state["state"]["inc"] % 2 != 1):
        raise CheckpointError(f"{path}: rng_state is not a PCG64 state")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any inconsistency raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_HEADER.size:
        raise CheckpointError(f"{path}: shorter than the checkpoint header")
    magic, version, reserved, doc_len = _CKPT_HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, "
                              f"expected {CHECKPOINT_VERSION}")
    start = _CKPT_HEADER.size
    try:
        index = json.loads(blob[start:start + doc_len])
        tensors = _checkpoint_tensors(path, blob[start + doc_len:],
                                      index["tensors"])
        params = model_mod.params_from_arrays(
            {k: v for k, v in tensors.items() if not k.startswith("adam.")})
        moments = [{k[len(prefix):]: v for k, v in tensors.items()
                    if k.startswith(prefix)}
                   for prefix in ("adam.m.", "adam.v.")]
        adam = AdamState(m=moments[0], v=moments[1],
                         t=int(index["adam_t"]),
                         skipped=int(index["skipped_steps"]))
        config = TrainConfig.from_dict(index["config"])
        _check_geometry(path, params, config)
        _check_rng_state(path, index["rng_state"])
        ckpt = Checkpoint(params=params, adam=adam, config=config,
                          epoch=int(index["epoch"]),
                          rng_state=index["rng_state"],
                          steps_trained=int(index["steps_trained"]))
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            OverflowError) as err:
        raise CheckpointError(f"{path}: corrupt checkpoint index ({err!r})") from err
    arrays = model_mod.named_parameters(params)
    trainable = set(model_mod.trainable_names(params))
    for which, moment in zip("mv", moments):
        for name, arr in moment.items():
            if name not in trainable or arr.shape != arrays[name].shape:
                raise CheckpointError(f"{path}: Adam moment adam.{which}.{name} "
                                      "matches no trainable parameter")
    return ckpt


# -------------------------------------------------------------------- training


def _load_patient(record) -> tuple:
    def load(path, modality):
        return data_mod.expect_modality(data_mod.load_bag(path), modality,
                                        path)

    bag_h = load(record.histology_path, "histology")
    bag_g = None
    if record.genomic_path is not None:
        bag_g = load(record.genomic_path, "genomic")
    return bag_h, bag_g


def _check_cohort_geometry(loaded) -> tuple:
    """All bags must share one feature dim; genomic bags one row count."""
    dims = {b.d for bh, bg in loaded for b in (bh, bg) if b is not None}
    if len(dims) != 1:
        raise ValueError(f"bags disagree on feature dim: {sorted(dims)}")
    m_gens = {bg.m for _, bg in loaded if bg is not None}
    if len(m_gens) != 1:
        raise ValueError(
            f"genomic bags disagree on row count: {sorted(m_gens)}")
    return dims.pop(), m_gens.pop()


def fold_indices(cohort: Cohort, config: TrainConfig, fold: int) -> tuple:
    """(train_indices, validation_indices) for one fold."""
    folds = data_mod.kfold_split(cohort, config.n_folds, config.seed)
    if not 0 <= fold < len(folds):
        raise ValueError(f"fold {fold} out of range for {len(folds)} folds")
    val = folds[fold]
    mask = np.ones(cohort.n_patients, dtype=bool)
    mask[val] = False
    return np.flatnonzero(mask), val


def _subsample_rows(matrix: np.ndarray, limit: int,
                    rng: np.random.Generator) -> np.ndarray:
    if matrix.shape[0] <= limit:
        return matrix
    keep = np.sort(rng.choice(matrix.shape[0], size=limit, replace=False))
    return matrix[keep]


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_reports: list                 # one LossReport per epoch


def train(config: TrainConfig, cohort: Cohort, fold: int) -> TrainResult:
    """Train one fold; deterministic given (config, cohort, fold).

    The rng stream covers parameter init, slot-init noise, gate noise,
    epoch shuffles and patch subsampling, and its end-of-run state is
    carried in the checkpoint.
    """
    config.validate()
    if cohort.bin_edges is None:
        cohort = data_mod.discretize_times(cohort, config.n_bins)
    train_idx, _ = fold_indices(cohort, config, fold)
    records = [cohort.records[i] for i in train_idx]
    if sum(1 for r in records if r.censor == 0) < 2:
        raise ValueError("training split needs at least 2 uncensored events")
    for r in records:
        if r.genomic_path is None:
            raise ValueError(f"{r.patient_id}: training needs genomic bags")
        if r.time_bin is None:
            raise ValueError(f"{r.patient_id}: record has no time bin")

    loaded = [_load_patient(r) for r in records]
    dim, m_gen = _check_cohort_geometry(loaded)
    labels = [(r.time_bin, r.censor) for r in records]

    rng = np.random.default_rng([config.seed, fold])
    params = model_mod.init_model(
        rng, dim=dim, n_slots_h=config.n_slots_h, n_slots_g=config.n_slots_g,
        m_gen=m_gen, n_bins=cohort.n_bins)
    if config.dtype is not np.float32:
        params = model_mod.cast_params(params, config.dtype)
    arrays = {k: v.copy()
              for k, v in model_mod.named_parameters(params).items()}
    trainable = set(model_mod.trainable_names(params))
    adam = AdamState.zeros_like({k: arrays[k] for k in sorted(trainable)})

    steps = 0
    epoch_reports = []
    bad_streak = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        epoch_terms = []
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            patients = []
            for i in batch:
                bag_h, bag_g = loaded[i]
                t_bin, censor = labels[i]
                patients.append((
                    _subsample_rows(bag_h.matrix, config.patch_subsample, rng),
                    bag_g.matrix, t_bin, censor))
            current = model_mod.params_from_arrays(arrays)
            try:
                cg = build_cohort_loss(
                    current, patients, k_h=config.k_h, k_g=config.k_g,
                    temperature=config.temperature, t_iters=config.t_iters,
                    l_iters=config.l_iters, lam=config.lam, rng=rng,
                    selective=config.selective,
                    aggregation=config.aggregation)
                loss = float(cg.loss.value)
            except GraphError as err:
                loss, cg = float("nan"), None
                diag = str(err)
            if not np.isfinite(loss):
                bad_streak += 1
                adam.skipped += 1
                detail = diag if cg is None else f"loss={loss!r}"
                log.warning("non-finite batch at epoch %d (%s)", epoch, detail)
                if bad_streak >= 2:
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}: loss non-finite "
                        f"on two consecutive batches ({detail})")
                continue
            bad_streak = 0
            grads = backward(cg.graph, cg.loss)
            updated = adam_step({k: arrays[k] for k in sorted(trainable)},
                                grads, adam, config.learning_rate)
            arrays.update(updated)
            steps += 1
            epoch_terms.extend(cg.term_values())
        if epoch_terms:
            epoch_reports.append(surv_mod.total_loss(epoch_terms,
                                                     lam=config.lam))
    ckpt = Checkpoint(params=model_mod.params_from_arrays(arrays),
                      adam=adam, config=config, epoch=config.epochs,
                      rng_state=rng.bit_generator.state,
                      steps_trained=steps)
    return TrainResult(checkpoint=ckpt, epoch_reports=epoch_reports)


# ------------------------------------------------------------------ evaluation


def imputed_genomic_bag(ckpt: Checkpoint, bag_h: FeatureBag) -> FeatureBag:
    """Genomic surrogate decoded from histology via the cross-modal head."""
    return recon_mod.impute_genomic(
        bag_h, ckpt.params.slots_g, ckpt.params.positions,
        ckpt.params.recon_cross, t_iters=ckpt.config.t_iters,
        steps_trained=ckpt.steps_trained,
        aggregation=ckpt.config.aggregation)


def predict_patient(ckpt: Checkpoint, bag_h: FeatureBag,
                    bag_g: FeatureBag | None):
    """Deterministic inference for one patient.

    Returns (PatientOutput, imputed) where ``imputed`` says whether the
    genomic bag was reconstructed from histology.  Every histology row is
    used (no subsampling at inference).
    """
    cfg = ckpt.config
    data_mod.expect_modality(bag_h, "histology")
    if bag_g is not None:
        data_mod.expect_modality(bag_g, "genomic")
    imputed = bag_g is None
    if imputed:
        bag_g = imputed_genomic_bag(ckpt, bag_h)
    out = patient_forward(
        ckpt.params, bag_h.matrix, bag_g.matrix, k_h=cfg.k_h, k_g=cfg.k_g,
        temperature=cfg.temperature, t_iters=cfg.t_iters,
        l_iters=cfg.l_iters, selective=cfg.selective,
        aggregation=cfg.aggregation)
    return out, imputed


def evaluate(ckpt: Checkpoint, cohort: Cohort, fold: int,
             missing_genomics: bool = False, indices=None,
             n_boot: int = 1000, rmst_tau: float = 60.0) -> dict:
    """Risk metrics over one validation fold.

    ``indices`` overrides the fold split (useful for scoring a training
    split).  With ``missing_genomics`` the genomic bags are replaced by
    cross-modal reconstructions; the genomic files are never opened.
    Stratified statistics compare the groups above/below the median risk
    of this fold; with fewer than 2 events per group they come out NaN.
    """
    if indices is None:
        _, indices = fold_indices(cohort, ckpt.config, fold)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("evaluation fold is empty")

    risks, times, events, ids = [], [], [], []
    for i in indices:
        rec = cohort.records[int(i)]
        bag_h = data_mod.load_bag(rec.histology_path)
        if missing_genomics or rec.genomic_path is None:
            bag_g = None
        else:
            bag_g = data_mod.load_bag(rec.genomic_path)
        out, _ = predict_patient(ckpt, bag_h, bag_g)
        risks.append(out.risk)
        times.append(rec.time_months)
        events.append(rec.censor == 0)
        ids.append(rec.patient_id)
    risks = np.asarray(risks)
    times = np.asarray(times)
    events = np.asarray(events, dtype=bool)

    censored = ~events
    c_index = surv_mod.concordance_index(risks, times, censored)
    median = float(np.median(risks))
    metrics = {
        "fold": int(fold),
        "n_patients": int(indices.size),
        "missing_genomics": bool(missing_genomics),
        "c_index": float(c_index),
        "median_risk": median,
        "rmst_tau": float(rmst_tau),
        "patient_ids": ids,
        "risks": [float(r) for r in risks],
        "times": [float(t) for t in times],
        "events": [bool(e) for e in events],
    }
    metrics.update(stratified_stats(risks, times, events, median,
                                    tau=rmst_tau, n_boot=n_boot))
    return metrics


def stratified_stats(risks, times, events, threshold: float,
                     tau: float = 60.0, n_boot: int = 1000) -> dict:
    """Two-group survival contrast at a risk threshold (>= goes high)."""
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    high = risks >= threshold
    out = {"n_high": int(high.sum()), "n_low": int((~high).sum())}
    nan_block = {
        "logrank_stat": float("nan"), "logrank_p": float("nan"),
        "rmst_high": float("nan"), "rmst_low": float("nan"),
        "rmst_delta": float("nan"), "rmst_delta_ci": [float("nan")] * 2,
        "rmst_ratio": float("nan"), "rmst_ratio_ci": [float("nan")] * 2,
    }
    if (not 0 < high.sum() < risks.size or events[high].sum() == 0
            or events[~high].sum() == 0):
        out.update(nan_block)
        return out
    stat, p = surv_mod.logrank_test(times[high], events[high],
                                    times[~high], events[~high])
    km_high = surv_mod.km_estimate(times[high], events[high])
    km_low = surv_mod.km_estimate(times[~high], events[~high])
    out.update({
        "logrank_stat": float(stat),
        "logrank_p": float(p),
        "rmst_high": float(surv_mod.rmst(km_high, tau)),
        "rmst_low": float(surv_mod.rmst(km_low, tau)),
    })
    try:
        boot = surv_mod.bootstrap_stats(times[high], events[high],
                                        times[~high], events[~high],
                                        tau=tau, n_boot=n_boot, seed=0)
        out.update({
            "rmst_delta": float(boot.delta),
            "rmst_delta_ci": [float(boot.delta_ci[0]),
                              float(boot.delta_ci[1])],
            "rmst_ratio": float(boot.ratio),
            "rmst_ratio_ci": [float(boot.ratio_ci[0]),
                              float(boot.ratio_ci[1])],
            "bootstrap_p": float(boot.p_value),
            "n_boot": int(boot.n_boot),
            "bootstrap_skipped": int(boot.n_skipped),
        })
    except ValueError:
        out.update({k: nan_block[k] for k in
                    ("rmst_delta", "rmst_delta_ci", "rmst_ratio",
                     "rmst_ratio_ci")})
    return out
