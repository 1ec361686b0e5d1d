"""Exception hierarchy shared across the package, and the one JSON reader.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else (including InternalError) -> 4.
"""

import json
from pathlib import Path


class OodscanError(Exception):
    pass


class ConfigError(OodscanError):
    """Invalid or inconsistent run configuration."""


class DataError(OodscanError):
    """Broken or missing on-disk artifacts (tensors, manifests, tables)."""


class InternalError(OodscanError):
    """A runtime invariant the package guarantees was violated."""


def read_json(path, what: str, error: type[OodscanError]):
    """The JSON document in the file ``path``. A file that cannot be read, is not
    UTF-8 JSON or nests too deep to parse raises ``error`` naming it as ``what``."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} {path} nests too deeply to parse: {exc}") from exc
