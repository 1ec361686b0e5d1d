"""Run configuration: one JSON file drives the whole pipeline.

The config hash covers every semantically meaningful field of the
normalized configuration (defaults filled in, key order and whitespace
irrelevant). The thread count (worker threads for gen and encode, which
never changes outputs) and location fields (work_dir, manifest path) are
excluded.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .cohorts import CohortSpec
from .encoder import ToyEncoderConfig
from .errors import ConfigError
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


def _expect_dict(doc, key) -> dict:
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"config field {key!r} must be an object")
    return sub


def _number(value, key: str, kind: type = int):
    """``value`` as ``kind``: an int needs a JSON integer, a float any number."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config field {key!r} must be {noun}, got {value!r}")
    return kind(value)


def _check_numbers(sections: dict) -> None:
    """Reject a value of the wrong kind in the named config objects: a
    non-integer in an ``int`` field (or an ``int | str`` one), and a tuple
    field of the wrong length or with an element of the wrong kind."""
    kinds = {"int": int, "float": float}
    for section, obj in sections.items():
        for f in dataclasses.fields(obj):
            key, value = f"{section}.{f.name}", getattr(obj, f.name)
            if f.type == "int" or (f.type == "int | str" and not isinstance(value, str)):
                _number(value, key)
            elif f.type.startswith("tuple["):
                elements = f.type[len("tuple["):-1].split(", ")
                if len(value) != len(elements):
                    raise ConfigError(f"config field {key!r} must hold "
                                      f"{len(elements)} values, got {list(value)!r}")
                for i, (kind, v) in enumerate(zip(elements, value)):
                    _number(v, f"{key}[{i}]", kinds[kind])


def replace_cohorts(cfg: RunConfig, specs_path) -> RunConfig:
    """Swap in cohort specs from a standalone JSON array file."""
    path = Path(specs_path)
    try:
        doc = json.loads(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read cohort specs {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"cohort specs {path} are not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigError(f"cohort specs {path} must be a JSON array")
    cohorts = tuple(CohortSpec.from_dict(c) for c in doc)
    _check_numbers({f"cohorts[{i}]": c for i, c in enumerate(cohorts)})
    return dataclasses.replace(cfg, cohorts=cohorts)


def load_config(path, *, seed_override: int | None = None,
                workdir_override=None, threads_override: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(doc, base_dir=path.parent, seed_override=seed_override,
                        workdir_override=workdir_override,
                        threads_override=threads_override)


def parse_config(doc: dict, *, base_dir=Path("."), seed_override: int | None = None,
                 workdir_override=None, threads_override: int | None = None) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    for key in ("work_dir", "manifest"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"config field {key!r} must be a string, got {doc[key]!r}")
    base_dir = Path(base_dir)
    work_dir = Path(workdir_override) if workdir_override else \
        base_dir / doc.get("work_dir", "work")
    # artifact paths are stored relative to the manifest, so the work dir
    # must be unambiguous regardless of the process's current directory
    work_dir = work_dir.resolve()
    manifest = work_dir / doc.get("manifest", "manifest.json")

    try:
        cohorts = tuple(CohortSpec.from_dict(c) for c in doc.get("cohorts", []))
        encoder = ToyEncoderConfig.from_dict(_expect_dict(doc, "encoder"))
        crops_doc = _expect_dict(doc, "crops")
        if "size" in crops_doc:
            crops_doc = dict(crops_doc, size=tuple(crops_doc["size"]))
        crops = CropConfig(**crops_doc)
        forest = RFParams(**_expect_dict(doc, "forest"))
        protocol = ProtocolConfig(**_expect_dict(doc, "protocol"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config structure: {exc}") from exc

    _check_numbers({"encoder": encoder, "crops": crops, "forest": forest,
                    "protocol": protocol,
                    **{f"cohorts[{i}]": c for i, c in enumerate(cohorts)}})
    if seed_override is not None:
        protocol = dataclasses.replace(protocol, base_seed=seed_override)

    ablate_stages = doc.get("ablate_stages") or STAGE_IDS
    if not isinstance(ablate_stages, (list, tuple)):
        raise ConfigError("ablate_stages must be a list of stage ids")
    for stage in ablate_stages:
        if stage not in STAGE_IDS:
            raise ConfigError(f"unknown ablation stage {stage!r}")

    temperature = _number(doc.get("temperature", 1.0), "temperature", float)
    if temperature <= 0:
        raise ConfigError("temperature must be > 0")
    rfe_target = _number(doc.get("rfe_target", 32), "rfe_target")
    if rfe_target < 1:
        raise ConfigError("rfe_target must be >= 1")
    rfe_step = doc.get("rfe_step")
    if rfe_step is not None and _number(rfe_step, "rfe_step") < 1:
        raise ConfigError("rfe_step must be >= 1")
    threads = threads_override if threads_override is not None \
        else _number(doc.get("threads", 1), "threads")
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    return RunConfig(
        work_dir=work_dir,
        manifest=manifest,
        cohorts=cohorts,
        encoder=encoder,
        crops=crops,
        forest=forest,
        temperature=temperature,
        protocol=protocol,
        rfe_target=rfe_target,
        rfe_step=rfe_step,
        ablate_stages=tuple(ablate_stages),
        threads=threads,
    )
