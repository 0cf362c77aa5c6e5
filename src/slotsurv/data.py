"""Cohort data model: bag files, manifests, discretization, folds, and the
planted-signal synthetic generator.

On-disk formats
---------------
Bag file (bit-exact):  bytes 0-3 magic ``SSPE``; u16 LE version = 1;
u8 modality (0 histology, 1 genomic); u8 reserved = 0; u32 LE M; u32 LE d;
then M*d IEEE-754 binary32 little-endian, row-major.  No trailing bytes.

Manifest: one UTF-8 JSON document
``{"patients": [{id, time_months, censor, histology_path,
genomic_path|null, time_bin|null}], "bin_edges": [...]|null}``.
Bag paths are stored relative to the manifest's directory when possible and
resolved back to absolute paths on load.  When ``bin_edges`` is given, every
``time_bin`` must lie in [1, len(bin_edges) + 1].

Bags, manifests, checkpoints and every report, prediction and CSV export
are written through ``atomic_write``: a failed write leaves the previous
file as it was.  JSON documents go through ``write_json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import uuid
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "BagError",
    "BagMagicError",
    "BagTruncatedError",
    "BagValueError",
    "BagVersionError",
    "Cohort",
    "FeatureBag",
    "ManifestError",
    "SurvivalRecord",
    "SynthConfig",
    "assign_bins",
    "atomic_write",
    "check_bag_shape",
    "check_field_types",
    "config_from_dict",
    "discretize_times",
    "expect_modality",
    "kfold_split",
    "load_bag",
    "load_manifest",
    "save_manifest",
    "synth_cohort",
    "write_bag",
    "write_json",
]

_MAGIC = b"SSPE"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBII")   # magic, version, modality, reserved, M, d
_MODALITY_CODES = {"histology": 0, "genomic": 1}
_MODALITY_NAMES = {v: k for k, v in _MODALITY_CODES.items()}

# Synthetic event-time layout: motif levels are spaced LEVEL_GAP months apart
# below T_MAX, with jitter kept inside the gap so levels never interleave.
T_MAX_MONTHS = 96.0
LEVEL_GAP = 3.0
_JITTER_SPAN = 2.4


class BagError(ValueError):
    """Malformed bag file or invalid bag content."""


class BagMagicError(BagError):
    pass


class BagVersionError(BagError):
    pass


class BagTruncatedError(BagError):
    pass


class BagValueError(BagError):
    """Non-finite entries or impossible dimensions."""


class ManifestError(ValueError):
    """Structurally invalid cohort manifest."""


# ------------------------------------------------------------------- bag files


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside ``path`` for writing.  A clean exit
    moves it over ``path`` in one step (``os.replace``); an error removes
    it.  Readers therefore see the old file or the new one, never a
    half-written one."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(doc, path) -> None:
    """``doc`` as UTF-8 JSON, indent 2, sorted keys and a trailing
    newline, written atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class FeatureBag:
    """An M x d instance matrix for one patient and one modality."""

    modality: str
    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def check_bag_shape(matrix) -> None:
    """BagValueError unless ``matrix`` is M x d with M >= 1 and d >= 1."""
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise BagValueError(f"bag matrix must be M>=1 x d>=1, got {shape}")


def write_bag(bag: FeatureBag, destination) -> None:
    if bag.modality not in _MODALITY_CODES:
        raise BagValueError(f"unknown modality {bag.modality!r}")
    matrix = np.asarray(bag.matrix, dtype=np.float32)
    check_bag_shape(matrix)
    if not np.all(np.isfinite(matrix)):
        raise BagValueError("bag matrix has non-finite entries")
    header = _HEADER.pack(_MAGIC, _VERSION, _MODALITY_CODES[bag.modality], 0,
                          matrix.shape[0], matrix.shape[1])
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    with atomic_write(destination) as fh:
        fh.write(header)
        fh.write(payload)


def load_bag(source) -> FeatureBag:
    with open(source, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise BagTruncatedError(f"{source}: shorter than the fixed header")
    magic, version, modality, reserved, m, d = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise BagMagicError(f"{source}: bad magic {magic!r}")
    if version != _VERSION:
        raise BagVersionError(f"{source}: version {version}, expected {_VERSION}")
    if modality not in _MODALITY_NAMES:
        raise BagValueError(f"{source}: unknown modality code {modality}")
    if reserved != 0:
        raise BagValueError(f"{source}: reserved byte is {reserved}")
    if m < 1 or d < 1:
        raise BagValueError(f"{source}: declared shape {m}x{d}")
    want = _HEADER.size + 4 * m * d
    if len(blob) < want:
        raise BagTruncatedError(
            f"{source}: payload holds {len(blob) - _HEADER.size} bytes, "
            f"declared {4 * m * d}")
    if len(blob) > want:
        raise BagError(f"{source}: {len(blob) - want} trailing bytes")
    matrix = np.frombuffer(blob, dtype="<f4", count=m * d,
                           offset=_HEADER.size).reshape(m, d).copy()
    if not np.all(np.isfinite(matrix)):
        raise BagValueError(f"{source}: non-finite entries")
    return FeatureBag(modality=_MODALITY_NAMES[modality], matrix=matrix)


def expect_modality(bag: FeatureBag, modality: str, source=None) -> FeatureBag:
    """``bag`` itself if it holds ``modality``; otherwise BagError, naming
    ``source`` (the file the bag came from) when given."""
    if bag.modality != modality:
        where = "" if source is None else f"{source}: "
        raise BagError(
            f"{where}expected a {modality} bag, got {bag.modality!r}")
    return bag


# --------------------------------------------------------------------- cohorts


@dataclass(frozen=True)
class SurvivalRecord:
    """One patient's label row plus the locations of their feature bags."""

    patient_id: str
    time_months: float
    censor: int                    # 0 = event observed, 1 = right-censored
    histology_path: str
    genomic_path: str | None = None
    time_bin: int | None = None    # assigned by discretize_times

    def __post_init__(self):
        if self.censor not in (0, 1):
            raise ManifestError(f"{self.patient_id}: censor {self.censor!r}")
        if not (np.isfinite(self.time_months) and self.time_months >= 0):
            raise ManifestError(
                f"{self.patient_id}: time_months {self.time_months!r}")


@dataclass(frozen=True)
class Cohort:
    """Immutable list of records plus shared discretization edges."""

    records: tuple
    bin_edges: np.ndarray | None = None

    @property
    def n_patients(self) -> int:
        return len(self.records)

    @property
    def n_bins(self) -> int:
        if self.bin_edges is None:
            raise ValueError("cohort has no bin edges yet")
        return len(self.bin_edges) + 1

    def times(self) -> np.ndarray:
        return np.array([r.time_months for r in self.records])

    def censor_flags(self) -> np.ndarray:
        return np.array([r.censor for r in self.records], dtype=np.int64)


def save_manifest(cohort: Cohort, path) -> None:
    base = os.path.dirname(os.path.abspath(path))

    def portable(p):
        if p is None:
            return None
        absp = os.path.abspath(p)
        rel = os.path.relpath(absp, base)
        return rel if not rel.startswith("..") else absp

    doc = {
        "patients": [
            {
                "id": r.patient_id,
                "time_months": r.time_months,
                "censor": r.censor,
                "histology_path": portable(r.histology_path),
                "genomic_path": portable(r.genomic_path),
                "time_bin": r.time_bin,
            }
            for r in cohort.records
        ],
        "bin_edges": None if cohort.bin_edges is None
        else [float(e) for e in cohort.bin_edges],
    }
    write_json(doc, path)


def load_manifest(path) -> Cohort:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; json
        # raises RecursionError on absurdly deep nesting
        raise ManifestError(f"{path}: not valid UTF-8 JSON ({err!r})") from err
    if not isinstance(doc, dict) or "patients" not in doc:
        raise ManifestError(f"{path}: missing 'patients'")
    if not isinstance(doc["patients"], list):
        raise ManifestError(f"{path}: 'patients' is not a list")

    def resolve(p):
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))

    records = []
    for row in doc["patients"]:
        try:
            rec = SurvivalRecord(
                patient_id=str(row["id"]),
                time_months=float(row["time_months"]),
                censor=int(row["censor"]),
                histology_path=resolve(row["histology_path"]),
                genomic_path=resolve(row.get("genomic_path")),
                time_bin=(None if row.get("time_bin") is None
                          else int(row["time_bin"])),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            if isinstance(err, ManifestError):
                raise
            raise ManifestError(f"{path}: bad patient row {row!r}") from err
        if rec.histology_path is None:
            raise ManifestError(f"{path}: {rec.patient_id} has no histology bag")
        records.append(rec)
    edges = doc.get("bin_edges")
    if edges is not None:
        try:
            edges = np.asarray(edges, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ManifestError(f"{path}: bin_edges are not numbers") from err
        if (edges.ndim != 1 or not np.isfinite(edges).all()
                or np.any(np.diff(edges) <= 0)):
            raise ManifestError(
                f"{path}: bin_edges not finite and strictly increasing")
        n_bins = edges.size + 1
        for rec in records:
            if rec.time_bin is not None and not 1 <= rec.time_bin <= n_bins:
                raise ManifestError(
                    f"{path}: {rec.patient_id} has time_bin {rec.time_bin} "
                    f"outside [1, {n_bins}] for {edges.size} bin edges")
    return Cohort(records=tuple(records), bin_edges=edges)


# -------------------------------------------------------------- discretization


def assign_bins(times, edges) -> np.ndarray:
    """Bin = number of edges strictly below the time, plus one."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(edges, dtype=np.float64)
    return (e[None, :] < t[:, None]).sum(axis=1).astype(np.int64) + 1


def discretize_times(cohort: Cohort, n_bins: int) -> Cohort:
    """Quantile-discretize event times into ``n_bins`` intervals.

    Edges are the (1/n .. (n-1)/n) quantiles of the UNCENSORED times with
    linear interpolation between order statistics.  Censored records are
    binned by the same edges (anything beyond the last edge lands in bin
    n_bins).  Returns a new cohort with ``bin_edges`` and per-record
    ``time_bin`` populated.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    times = cohort.times()
    uncensored = times[cohort.censor_flags() == 0]
    if uncensored.size < n_bins:
        raise ValueError(
            f"need at least {n_bins} uncensored records, have {uncensored.size}")
    qs = np.arange(1, n_bins) / n_bins
    edges = np.quantile(uncensored, qs)
    if np.any(np.diff(edges) <= 0) or edges.size == 0:
        raise ValueError("degenerate bin edges (times too concentrated)")
    bins = assign_bins(times, edges)
    records = tuple(replace(r, time_bin=int(b))
                    for r, b in zip(cohort.records, bins))
    return Cohort(records=records, bin_edges=edges)


# ----------------------------------------------------------------------- folds


def kfold_split(cohort: Cohort, k: int, seed: int):
    """Partition record indices into k folds with sizes differing by <= 1."""
    n = cohort.n_patients
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds cohort size {n}")
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(order, k)]


# ------------------------------------------------------------------- synthesis

# A float field also takes an int; a bool is neither an int nor a float.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def check_field_types(config) -> None:
    """Raise ValueError naming the first field not of its annotated type,
    or a NaN or infinite float (JSON reads ``NaN`` and ``Infinity``)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if (isinstance(value, bool)
                or not isinstance(value, _FIELD_TYPES[f.type])):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def config_from_dict(cls, doc: dict):
    """``cls(**doc)``, validated; a key of ``doc`` that names no field of
    the config dataclass ``cls`` raises ValueError."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)} for "
                         f"{cls.__name__}")
    config = cls(**doc)
    config.validate()
    return config


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the planted-signal generator."""

    n_patients: int = 200
    m_hist_lo: int = 64
    m_hist_hi: int = 128
    m_gen: int = 32
    dim: int = 32
    n_motifs: int = 4            # planted event motifs per modality
    strength: float = 3.0        # motif injection amplitude
    noise: float = 1.0           # background instance noise scale
    censor_fraction: float = 0.3
    coupling_flip: float = 0.1   # P(histology bit differs from genomic bit)
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        if not 1 <= self.m_hist_lo <= self.m_hist_hi:
            raise ValueError("need 1 <= m_hist_lo <= m_hist_hi")
        if self.m_gen < 1 or self.dim < 1 or self.n_motifs < 1:
            raise ValueError("m_gen, dim, n_motifs must be >= 1")
        if self.m_gen < self.n_motifs:
            raise ValueError("m_gen must be >= n_motifs (one stripe per motif)")
        if not 0.0 <= self.censor_fraction < 1.0:
            raise ValueError("censor_fraction must be in [0, 1)")
        if not 0.0 <= self.coupling_flip <= 0.5:
            raise ValueError("coupling_flip must be in [0, 0.5]")
        if self.noise < 0 or self.strength < 0:
            raise ValueError("noise and strength must be nonnegative")
        max_level = 2.0 * (2 ** self.n_motifs - 1)
        if T_MAX_MONTHS - max_level * LEVEL_GAP - _JITTER_SPAN <= 0:
            raise ValueError(
                f"{self.n_motifs} motifs would push event times below zero")


# Motif weights: strictly decreasing powers of two so every presence pattern
# maps to a distinct integer level per modality.
def _motif_weights(n_motifs: int) -> np.ndarray:
    return 2.0 ** np.arange(n_motifs - 1, -1, -1)


def synth_cohort(config: SynthConfig, out_dir) -> Cohort:
    """Generate bags + manifest under ``out_dir`` and return the cohort.

    Event times are a deterministic function of which planted motifs appear
    in the patient's bags: each motif contributes a power-of-two weight, the
    combined level pulls the event time down from T_MAX_MONTHS in
    LEVEL_GAP-month steps, and jitter stays inside the gap so levels never
    interleave.  Genomic motif i occupies instance rows i::n_motifs (fixed
    pathway ordering); histology motifs land on a random quarter of the
    instances.  Histology presence bits copy the genomic ones except for
    coupling_flip of patients, which is what makes cross-modal imputation
    learnable.  The rng stream never depends on ``strength``, so two runs
    differing only in strength share labels exactly.
    """
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    bag_dir = os.path.join(out_dir, "bags")
    os.makedirs(bag_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    dirs_g = rng.normal(size=(config.n_motifs, config.dim))
    dirs_g /= np.linalg.norm(dirs_g, axis=1, keepdims=True)
    dirs_h = rng.normal(size=(config.n_motifs, config.dim))
    dirs_h /= np.linalg.norm(dirs_h, axis=1, keepdims=True)
    weights = _motif_weights(config.n_motifs)

    n = config.n_patients
    bits_g = rng.random((n, config.n_motifs)) < 0.5
    flips = rng.random((n, config.n_motifs)) < config.coupling_flip
    bits_h = bits_g ^ flips
    jitter = rng.uniform(0.0, _JITTER_SPAN, size=n)
    level = bits_g @ weights + bits_h @ weights
    event_time = T_MAX_MONTHS - level * LEVEL_GAP - jitter

    n_censored = int(round(config.censor_fraction * n))
    censored_idx = rng.choice(n, size=n_censored, replace=False)
    censor = np.zeros(n, dtype=np.int64)
    censor[censored_idx] = 1
    observed = event_time.copy()
    shrink = rng.uniform(0.35, 0.95, size=n)
    observed[censored_idx] = event_time[censored_idx] * shrink[censored_idx]

    records = []
    for i in range(n):
        pid = f"P{i:04d}"
        m_h = int(rng.integers(config.m_hist_lo, config.m_hist_hi + 1))
        hist = rng.normal(0.0, config.noise, size=(m_h, config.dim))
        for j in range(config.n_motifs):
            rows = rng.choice(m_h, size=max(1, m_h // 4), replace=False)
            if bits_h[i, j]:
                hist[rows] += config.strength * dirs_h[j]
        gen = rng.normal(0.0, config.noise, size=(config.m_gen, config.dim))
        for j in range(config.n_motifs):
            if bits_g[i, j]:
                gen[j::config.n_motifs] += config.strength * dirs_g[j]

        hist_path = os.path.join(bag_dir, f"{pid}_h.bag")
        gen_path = os.path.join(bag_dir, f"{pid}_g.bag")
        write_bag(FeatureBag("histology", hist.astype(np.float32)), hist_path)
        write_bag(FeatureBag("genomic", gen.astype(np.float32)), gen_path)
        records.append(SurvivalRecord(
            patient_id=pid,
            time_months=float(observed[i]),
            censor=int(censor[i]),
            histology_path=hist_path,
            genomic_path=gen_path,
        ))

    cohort = Cohort(records=tuple(records))
    save_manifest(cohort, os.path.join(out_dir, "manifest.json"))
    return cohort
