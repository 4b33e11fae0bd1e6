"""Versioned, CRC-validated training checkpoints with atomic write-rename.

The resume contract of the fault-tolerant trainer (mid-epoch bit-identical
continuation, see :mod:`repro.train.elastic`) only holds if a checkpoint can
never be half-written or silently corrupted.  The on-disk format is

.. code-block:: text

    offset  size  field
    0       6     magic  b"RCKPT1"  (format version baked into the magic)
    6       4     crc32 of the payload (little-endian uint32)
    10      8     payload length in bytes (little-endian uint64)
    18      ...   payload: one .npz archive (arrays + "__meta__" JSON)

Writes go to a temporary sibling file, are fsynced, and land with
``os.replace`` — a crash leaves either the old checkpoint or the new one,
never a torn file.  Loads verify magic, length (truncation), and CRC
(corruption) before NumPy ever parses the payload, and raise
:class:`CheckpointError` with a reason on any mismatch.

Payloads are split into ``arrays`` (flat ``name -> ndarray``; saved
losslessly, float64 bits round-trip exactly) and ``meta`` (a JSON-encodable
dict of scalars/progress; Python's JSON float encoding is shortest-repr and
round-trips bit-exactly).  The trainer puts model weights and Adam moments
in ``arrays`` and scalar optimizer/schedule/progress state in ``meta``; one
codec (:func:`pack_training_state` / :func:`restore_training_state`) packs
and restores that payload, the trainer adding only its ``kind``,
``progress`` and ``run`` keys.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib

import numpy as np

MAGIC = b"RCKPT1"
_HEADER = struct.Struct("<IQ")  # crc32, payload length


class CheckpointError(ValueError):
    """A checkpoint file is missing, truncated, corrupted, or incompatible."""


def _write_payload(path: str, payload: bytes) -> None:
    """Atomically land ``payload`` at ``path`` under the ``RCKPT1`` header.

    The shared write half of the format: magic + CRC + length header,
    tmp-file sibling, fsync, ``os.replace`` — a crash leaves either the old
    file or the new one, never a torn one.  Every ``RCKPT1`` producer
    (trainer checkpoints, trajectory-farm checkpoints) goes through here.
    """
    header = MAGIC + _HEADER.pack(zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_payload(path: str) -> bytes:
    """Read ``path`` and return its validated ``RCKPT1`` payload bytes.

    The shared read half of the format: raises :class:`CheckpointError`
    when the file is unreadable, carries the wrong magic, is shorter than
    its recorded payload length (truncation), or fails the CRC
    (corruption) — everything a resuming job must reject loudly.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    head_len = len(MAGIC) + _HEADER.size
    if len(blob) < head_len or not blob.startswith(MAGIC):
        raise CheckpointError(
            f"{path!r} is not a training checkpoint (bad magic/header)"
        )
    crc, length = _HEADER.unpack(blob[len(MAGIC) : head_len])
    payload = blob[head_len:]
    if len(payload) != length:
        raise CheckpointError(
            f"{path!r} is truncated: payload {len(payload)} bytes, expected {length}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError(f"{path!r} failed CRC validation (corrupted payload)")
    return payload


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Atomically write ``arrays`` + ``meta`` as a validated checkpoint.

    ``arrays`` keys must not collide with the reserved ``__meta__`` entry;
    ``meta`` must be JSON-encodable.  The write is tmp-file + fsync +
    ``os.replace`` (:func:`_write_payload`), so a concurrent crash never
    leaves a torn checkpoint.
    """
    if "__meta__" in arrays:
        raise ValueError("array key '__meta__' is reserved")
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    _write_payload(path, buf.getvalue())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read and validate a checkpoint; returns ``(arrays, meta)``.

    Header/CRC validation is :func:`_read_payload`; on top of it this
    rejects payloads that are not a valid npz archive, so a caller never
    resumes on garbage.
    """
    payload = _read_payload(path)
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(bytes(data["__meta__"]).decode())
    except Exception as exc:  # malformed npz despite a passing CRC
        raise CheckpointError(f"{path!r} payload is not a valid archive: {exc}") from exc
    return arrays, meta


def pack_training_state(
    model, optimizer, scheduler, kind: str, progress: dict, run: dict
) -> tuple[dict[str, np.ndarray], dict]:
    """A trainer's state as a checkpoint payload ``(arrays, meta)``.

    Arrays: the model's weights under ``model/<name>`` and the Adam moments
    under ``adam/m/<i>`` / ``adam/v/<i>``.  Meta: ``kind``, the Adam scalars,
    the cosine schedule's position, and the trainer's own ``progress``
    cursor and ``run`` identity.
    """
    arrays: dict[str, np.ndarray] = {
        f"model/{name}": arr for name, arr in model.state_dict().items()
    }
    for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
        arrays[f"adam/m/{i}"] = m.copy()
        arrays[f"adam/v/{i}"] = v.copy()
    meta = {
        "kind": kind,
        "adam": {"t": optimizer.t, "lr": optimizer.lr, "n_params": len(optimizer.params)},
        "schedule": {
            "step_count": scheduler.step_count,
            "base_lr": scheduler.base_lr,
            "total_steps": scheduler.total_steps,
            "eta_min": scheduler.eta_min,
        },
        "progress": progress,
        "run": run,
    }
    return arrays, meta


def restore_training_state(
    arrays: dict[str, np.ndarray],
    meta: dict,
    kind: str,
    run: dict,
    models: list,
    optimizers: list,
    schedulers: list,
) -> dict:
    """Validate a :func:`pack_training_state` payload, then restore it.

    Every check runs before anything is written, so a rejected payload
    leaves the trainer exactly as it was: the ``kind``, each ``run`` key
    (the data order derives from them), the model's parameter names and
    shapes, and the presence and shape of every Adam moment.  Any mismatch
    raises :class:`CheckpointError` naming the key.  The restored state goes
    into every model, optimizer and scheduler given (the replicas of a
    distributed run are identical).  Returns the payload's ``progress``.
    """
    if meta.get("kind") != kind:
        raise CheckpointError(f"checkpoint kind {meta.get('kind')!r} is not {kind!r}")
    for key, value in run.items():
        if meta["run"][key] != value:
            raise CheckpointError(
                f"checkpoint {key}={meta['run'][key]} does not match config "
                f"{key}={value}; the resumed data order would diverge"
            )
    model_state = {
        name[len("model/") :]: arr for name, arr in arrays.items() if name.startswith("model/")
    }
    try:
        models[0].aligned_state(model_state)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint model does not fit: {exc}") from exc
    adam, sched_meta = meta["adam"], meta["schedule"]
    slots = optimizers[0]._m
    if adam["n_params"] != len(slots):
        raise CheckpointError(
            f"checkpoint has {adam['n_params']} optimizer slots, model has {len(slots)}"
        )
    for i, slot in enumerate(slots):
        for key in (f"adam/m/{i}", f"adam/v/{i}"):
            if key not in arrays:
                raise CheckpointError(f"checkpoint missing Adam moment {key!r}")
            if arrays[key].shape != slot.shape:
                raise CheckpointError(
                    f"Adam moment {key!r} shape {arrays[key].shape} does not match "
                    f"parameter shape {slot.shape}"
                )
    for model in models:
        model.load_state_dict(model_state)
    for opt in optimizers:
        opt.t = int(adam["t"])
        opt.lr = float(adam["lr"])
        for i in range(len(slots)):
            np.copyto(opt._m[i], arrays[f"adam/m/{i}"])
            np.copyto(opt._v[i], arrays[f"adam/v/{i}"])
    for sched in schedulers:
        sched.step_count = int(sched_meta["step_count"])
        sched.base_lr = float(sched_meta["base_lr"])
        # The checkpointed horizon wins over the constructor's (an elastic
        # world change must not bend the LR trajectory).
        sched.total_steps = int(sched_meta["total_steps"])
        sched.eta_min = float(sched_meta["eta_min"])
        sched.optimizer.lr = float(adam["lr"])
    return meta["progress"]
