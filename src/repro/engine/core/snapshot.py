"""State snapshots: suspend a run at sample *k*, serialize, resume.

The incremental-execution half of the serving subsystem
(:mod:`repro.serve`) rests on one contract: a kernel set that declares
``snapshot_version`` can export its carry state as a *snapshot* — a
schema-versioned, JSON-serializable dict — and rebuild an equivalent
state from it later, in another process, on another machine.  This
module owns the snapshot wire format; the per-workload content lives on
the kernel sets themselves
(:meth:`~repro.engine.core.kernelset.KernelSet.export_state` /
:meth:`~repro.engine.core.kernelset.KernelSet.restore_state`).

Wire format:

* NumPy arrays travel as ``{"__ndarray__": true, "dtype", "shape",
  "data"}`` mappings (:func:`encode_array` / :func:`decode_array`).
  ``float64`` survives the JSON round trip exactly — Python serializes
  floats as shortest-round-trip ``repr`` — so a restored run is
  bit-identical, not merely close.
* Generator streams travel as their ``bit_generator`` state dict
  (:func:`encode_rng` / :func:`decode_rng`), which NumPy defines to be
  JSON-safe (plain ints and strings) and settable.
* The envelope carries ``schema_version`` (this module's
  :data:`SNAPSHOT_SCHEMA_VERSION`), the ``workload`` name, the kernel
  set's own ``snapshot_version`` and the suspension ``cursor``
  (samples completed); :func:`require_snapshot` validates all four.

Restoring reads outside input, so every decoder here answers a
malformed snapshot with ``ValueError`` and nothing else.
:func:`save_snapshot` / :func:`load_snapshot` put snapshots on disk as
``.json`` (human-readable, exact).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

#: Version stamp of the snapshot envelope and array/rng wire format.
#: Bump when the envelope changes shape; :func:`require_snapshot`
#: rejects versions it does not understand instead of misreading them.
SNAPSHOT_SCHEMA_VERSION = 1

#: Envelope keys every snapshot must carry (validated by
#: :func:`require_snapshot`).
ENVELOPE_KEYS = ("schema_version", "workload", "snapshot_version",
                 "cursor")


def encode_array(array: np.ndarray) -> dict:
    """Encode one array as a JSON-safe mapping.

    Args:
        array: any numeric NumPy array (or something ``np.asarray``
            accepts).

    Returns:
        ``{"__ndarray__": True, "dtype", "shape", "data"}`` with the
        values flattened to a plain list.  ``float64`` values survive
        the JSON round trip exactly.
    """
    array = np.asarray(array)
    return {
        "__ndarray__": True,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": array.ravel().tolist(),
    }


def decode_array(data: Mapping[str, Any],
                 shape: "tuple[int, ...] | None" = None) -> np.ndarray:
    """Rebuild an array from :func:`encode_array` output.

    Args:
        data: the encoded mapping.
        shape: the shape the caller expects (``None`` accepts any).

    Raises:
        ValueError: not an encoded array, data that does not fill the
            declared shape, a non-numeric dtype, or a shape other than
            ``shape``.
    """
    if not (isinstance(data, Mapping) and data.get("__ndarray__")):
        raise ValueError(
            f"not an encoded array: {type(data).__name__}")
    try:
        array = np.asarray(data["data"], dtype=np.dtype(
            data["dtype"])).reshape(tuple(data["shape"]))
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed encoded array: {error}") from None
    if array.dtype.kind not in "biuf" or (
            shape is not None and array.shape != tuple(shape)):
        raise ValueError(f"encoded {array.dtype} array of shape "
                         f"{array.shape}, expected numbers of shape {shape}")
    return array


def encode_rng(generator: np.random.Generator) -> dict:
    """Encode a generator's position as its bit-generator state dict.

    The returned mapping is exactly
    ``generator.bit_generator.state`` — NumPy defines it to be a plain,
    JSON-safe dict (the bit-generator name plus integer state words),
    and assigning it back advances a fresh generator to the identical
    stream position.
    """
    return dict(generator.bit_generator.state)


def decode_rng(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a generator at the position :func:`encode_rng` captured.

    Raises:
        ValueError: not a mapping, an unknown bit-generator name (a
            snapshot from a NumPy build this one does not have), or a
            state the bit generator refuses.
    """
    name = state.get("bit_generator") if isinstance(state, Mapping) else None
    kind = getattr(np.random, str(name), None)
    if not (isinstance(kind, type)
            and issubclass(kind, np.random.BitGenerator)):
        raise ValueError(f"unknown bit generator {name!r} in rng snapshot")
    bit_generator = kind()
    try:
        bit_generator.state = dict(state)
    except (KeyError, OverflowError, TypeError, ValueError) as error:
        raise ValueError(f"malformed {name} rng state: {error}") from None
    return np.random.Generator(bit_generator)


def require_keys(node: Any, keys, where: str) -> Mapping[str, Any]:
    """``node``, if it is a mapping holding every key in ``keys``;
    ``ValueError`` naming ``where`` and the missing keys otherwise."""
    if not isinstance(node, Mapping):
        raise ValueError(
            f"{where} must be a mapping, got {type(node).__name__}")
    missing = [key for key in keys if key not in node]
    if missing:
        raise ValueError(f"{where} is missing {missing}")
    return node


def require_list(node: Any, length: int, where: str) -> list:
    """``node``, if it is a list of ``length`` entries; ``ValueError``
    naming ``where`` otherwise."""
    if not isinstance(node, list) or len(node) != length:
        raise ValueError(f"{where} must be a list of {length} entries")
    return node


def snapshot_envelope(workload: str, snapshot_version: int,
                      cursor: int) -> dict:
    """The common envelope every kernel-set snapshot starts from.

    Args:
        workload: registry name of the exporting kernel set.
        snapshot_version: the kernel set's declared
            ``snapshot_version``.
        cursor: samples completed at suspension time.

    Returns:
        A dict carrying :data:`ENVELOPE_KEYS`; the kernel set adds its
        state fields next to them.
    """
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "workload": workload,
        "snapshot_version": int(snapshot_version),
        "cursor": int(cursor),
    }


def require_snapshot(snapshot: Mapping[str, Any], workload: str,
                     snapshot_version: int, n_samples: int) -> int:
    """Validate a snapshot envelope and return its cursor.

    Args:
        snapshot: the mapping to validate.
        workload: the restoring kernel set's registry name.
        snapshot_version: the restoring kernel set's declared version.
        n_samples: the restoring plan's sample-axis length (the cursor
            must lie in ``[0, n_samples]``).

    Raises:
        ValueError: missing envelope keys, a schema or workload or
            version mismatch, or an out-of-range cursor — each named
            explicitly so a stale snapshot fails loudly.
    """
    require_keys(snapshot, ENVELOPE_KEYS, "snapshot")
    if snapshot["schema_version"] != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported snapshot schema_version "
            f"{snapshot['schema_version']!r} (this build reads version "
            f"{SNAPSHOT_SCHEMA_VERSION})")
    if snapshot["workload"] != workload:
        raise ValueError(
            f"snapshot belongs to workload {snapshot['workload']!r}, "
            f"not {workload!r}")
    if snapshot["snapshot_version"] != snapshot_version:
        raise ValueError(
            f"unsupported {workload} snapshot_version "
            f"{snapshot['snapshot_version']!r} (this build reads "
            f"version {snapshot_version})")
    cursor = snapshot["cursor"]
    if (not isinstance(cursor, int) or isinstance(cursor, bool)
            or not 0 <= cursor <= n_samples):
        raise ValueError(
            f"snapshot cursor {cursor!r} outside [0, {n_samples}]")
    return cursor


def save_snapshot(snapshot: Mapping[str, Any],
                  path: "str | Path") -> Path:
    """Write a snapshot verbatim to a ``.json`` file (exact float64
    round trip, human-readable) and return the path.

    Raises:
        ValueError: a suffix other than ``.json``.
    """
    target = _json_path(path)
    target.write_text(json.dumps(snapshot, indent=2,
                                 sort_keys=True) + "\n")
    return target


def load_snapshot(path: "str | Path") -> dict:
    """Read a snapshot written by :func:`save_snapshot`.

    Raises:
        ValueError: a suffix other than ``.json``.
    """
    return json.loads(_json_path(path).read_text())


def _json_path(path: "str | Path") -> Path:
    """``path`` as a :class:`Path`, refusing any suffix but ``.json``."""
    path = Path(path)
    if path.suffix != ".json":
        raise ValueError(
            f"snapshot files are .json, got {path.suffix or 'no suffix'!r}")
    return path
