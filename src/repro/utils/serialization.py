"""Serialisation helpers for experiment artefacts.

Results (model state dicts, search histories, per-figure data series) are
stored as JSON with numpy arrays converted to nested lists, so that the
benchmark harness and the EXPERIMENTS.md generator can reload them without a
pickle dependency.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

PathLike = Union[str, Path]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: to_jsonable(getattr(obj, field.name)) for field in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(item) for item in obj]
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")


def _read_umask() -> int:
    """The process umask, read once at import.

    ``os.umask`` can only be *read* by setting it, which is process-wide and
    races any concurrently file-creating thread (the inference server and
    the master make this a multithreaded process) — so the
    set-and-restore dance must never run per call.
    """
    umask = os.umask(0o022)
    os.umask(umask)
    return umask


_PROCESS_UMASK = _read_umask()


def atomic_write_text(path: PathLike, text: str, fsync: bool = False) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The payload goes to a temporary file in the target directory which is
    then ``os.replace``'d over ``path`` — readers see either the old file or
    the new one, never a half-written document.  ``fsync=True`` additionally
    flushes the payload to stable storage before the replace; durable stores
    (the master's episode journals) want that, artifact caches that can be
    recomputed usually do not need the extra syscall per write.

    This is the single fsync-capable rewrite idiom the RL4 lint rule points
    at; every durable-path truncating write must route through here or
    :func:`save_json`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        # mkstemp creates the file 0600; restore the umask-honoring mode a
        # plain open() would have used, so artifacts written by one user
        # (e.g. a root build step) stay readable by the serving user.
        os.fchmod(fd, 0o666 & ~_PROCESS_UMASK)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def save_json(obj: Any, path: PathLike, indent: Optional[int] = None) -> Path:
    """Serialise ``obj`` to a JSON file, creating parent directories.

    The default is compact: any ``indent`` makes :mod:`json` drop its C
    encoder for the pure-Python one, which more than doubles the time to
    encode the nested float lists of caches and artifacts.  Pass
    ``indent=2`` only for a file a person reads.

    The write is **atomic** (see :func:`atomic_write_text`): a crash
    mid-write (killed pipeline run, out-of-disk during an export) never
    leaves a truncated artifact behind for the inference server or a cache
    resume to choke on.
    """
    return atomic_write_text(
        path, json.dumps(to_jsonable(obj), indent=indent, sort_keys=False)
    )


def load_json(path: PathLike) -> Any:
    """Load a JSON file previously written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def encode_state_dict(state: Mapping[str, np.ndarray]) -> Dict[str, Dict[str, object]]:
    """Encode a name→array state dict as JSON-friendly shape/values entries.

    The single encoding shared by the zoo model/pool artifacts, the search
    history's stored heads and the fused-model serving artifact, so every
    persisted weight blob has the same on-disk shape.
    """
    return {
        name: {"shape": list(array.shape), "values": np.asarray(array).reshape(-1).tolist()}
        for name, array in state.items()
    }


def decode_state_dict(payload: Mapping[str, Mapping[str, object]]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_state_dict` (float64 arrays, shapes restored)."""
    return {
        name: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload.items()
    }


def save_state_dict(state: Dict[str, np.ndarray], path: PathLike) -> Path:
    """Save a module state dict (arrays become lists, shapes are preserved)."""
    return save_json(encode_state_dict(state), path)


def load_state_dict(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a module state dict written by :func:`save_state_dict`."""
    return decode_state_dict(load_json(path))
