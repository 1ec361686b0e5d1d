"""Run configuration: one JSON file drives the whole pipeline.

One reader (``_section``) turns the JSON into the section dataclasses: each
value must have the JSON kind its field declares and is kept as written, so
an integer in a float field stays an integer. The config hash covers every
semantically meaningful field of the normalized configuration (defaults
filled in, key order and whitespace irrelevant). The thread count (worker
threads for gen and encode, which never changes outputs) and location
fields (work_dir, manifest path) are excluded.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import reprlib
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .cohorts import CohortSpec
from .encoder import ToyEncoderConfig
from .errors import ConfigError, read_json
from .forest import RFParams
from .volumes import STAGE_IDS

DEFAULT_BASE_SEED = 20240501


@dataclass(frozen=True)
class CropConfig:
    count: int = 8
    size: tuple[int, int, int] = (16, 16, 16)
    jitter_radius: int = 2

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("crops.count must be >= 1")
        if self.jitter_radius < 0:
            raise ConfigError("crops.jitter_radius must be >= 0")
        if len(self.size) != 3 or any(s < 1 for s in self.size):
            raise ConfigError("crops.size must be 3 positive integers")


@dataclass(frozen=True)
class ProtocolConfig:
    train_frac: float = 0.4
    n_seeds: int = 100
    base_seed: int = DEFAULT_BASE_SEED

    def __post_init__(self):
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("protocol.train_frac must be in (0, 1)")
        if self.n_seeds < 1:
            raise ConfigError("protocol.n_seeds must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    work_dir: Path
    manifest: Path
    cohorts: tuple[CohortSpec, ...] = ()
    encoder: ToyEncoderConfig = ToyEncoderConfig()
    crops: CropConfig = CropConfig()
    forest: RFParams = RFParams()
    temperature: float = 1.0
    protocol: ProtocolConfig = ProtocolConfig()
    rfe_target: int = 32
    rfe_step: int | None = None
    ablate_stages: tuple[str, ...] = STAGE_IDS
    threads: int = 1

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.rfe_target < 1:
            raise ConfigError("rfe_target must be >= 1")
        if self.rfe_step is not None and self.rfe_step < 1:
            raise ConfigError("rfe_step must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.ablate_stages or not set(self.ablate_stages) <= set(STAGE_IDS):
            raise ConfigError(f"ablate_stages must be a non-empty list of {STAGE_IDS}, "
                              f"got {list(self.ablate_stages)}")

    def canonical_dict(self) -> dict:
        """Semantic content only; drives the config hash."""
        doc = dataclasses.asdict(self)
        for key in ("work_dir", "manifest", "threads"):
            del doc[key]
        return doc

    def config_hash(self, fields: tuple[str, ...] | None = None) -> str:
        """Hash of the whole semantic config, or of the dotted ``fields`` only."""
        doc = self.canonical_dict()
        if fields is not None:
            doc = {f: functools.reduce(dict.__getitem__, f.split("."), doc)
                   for f in fields}
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_NOUNS = {int: "an integer", float: "a number", str: "a string", type(None): "null"}
_type_hints = functools.cache(typing.get_type_hints)


def _value(kind, value, key: str):
    """``value`` read as the declared type ``kind`` at config field ``key``: a
    section dataclass from an object, a tuple from a list, and any other
    value kept as written. An int is a number too, true/false never is."""
    if dataclasses.is_dataclass(kind):
        return _section(kind, value, key)
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config field {key!r} must be a list, got {reprlib.repr(value)}")
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        elif len(value) != len(kinds):
            raise ConfigError(f"config field {key!r} must hold {len(kinds)} values, "
                              f"got {reprlib.repr(value)}")
        return tuple(_value(k, v, f"{key}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    union = typing.get_origin(kind) in (typing.Union, types.UnionType)
    arms = typing.get_args(kind) if union else (kind,)
    if isinstance(value, bool) or \
            not isinstance(value, tuple((int, float) if a is float else a for a in arms)):
        raise ConfigError(f"config field {key!r} must be "
                          f"{' or '.join(_NOUNS[a] for a in arms)}, got {reprlib.repr(value)}")
    return value


def _section(cls, doc, key: str):
    """The object ``doc`` read as the dataclass ``cls`` at config field ``key``
    ("" for the whole config): only declared keys, each value read by
    ``_value``. A ValueError of ``cls`` (RFParams raises those) becomes a
    ConfigError naming ``key``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config field {key!r} must be an object, got {reprlib.repr(doc)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    at = f"{key}." if key else ""
    extra = [at + name for name in sorted(set(doc) - set(fields))]
    if extra:
        raise ConfigError(f"unknown config keys: {extra}")
    missing = [n for n, f in fields.items() if f.default is dataclasses.MISSING and n not in doc]
    if missing:
        raise ConfigError(f"config field {key!r} lacks {missing}")
    kinds = _type_hints(cls)
    values = {name: _value(kinds[name], value, at + name) for name, value in doc.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"config field {key!r}: {exc}") from exc


def replace_cohorts(cfg: RunConfig, specs_path) -> RunConfig:
    """Swap in cohort specs from a standalone JSON array file."""
    doc = read_json(specs_path, "cohort specs", ConfigError)
    return dataclasses.replace(cfg, cohorts=_value(tuple[CohortSpec, ...], doc, "cohorts"))


def load_config(path, **overrides) -> RunConfig:
    """The config in the JSON file ``path``; ``overrides`` as for ``parse_config``."""
    path = Path(path)
    doc = read_json(path, "config", ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(doc, base_dir=path.parent, **overrides)


def parse_config(doc: dict, *, base_dir=Path("."), seed_override: int | None = None,
                 workdir_override=None, threads_override: int | None = None) -> RunConfig:
    for key in ("work_dir", "manifest"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"config field {key!r} must be a string, got {doc[key]!r}")
    work_dir = Path(workdir_override) if workdir_override else \
        Path(base_dir) / doc.get("work_dir", "work")
    # artifact paths are stored relative to the manifest, so the work dir
    # must be unambiguous regardless of the process's current directory
    work_dir = work_dir.resolve()
    doc = dict(doc, work_dir=work_dir, manifest=work_dir / doc.get("manifest", "manifest.json"))
    if threads_override is not None:
        doc["threads"] = threads_override
    cfg = _section(RunConfig, doc, "")
    if seed_override is None:
        return cfg
    return dataclasses.replace(
        cfg, protocol=dataclasses.replace(cfg.protocol, base_seed=seed_override))
