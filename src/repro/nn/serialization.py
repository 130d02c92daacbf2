"""Saving and loading network weights and optimizer state.

Weights are stored in numpy ``.npz`` archives with a small JSON header
describing the architecture fingerprint, so that loading into a
mismatched network fails loudly instead of silently corrupting a model.
Optimizer state (momentum buffers, Adam moments, step counters) uses
the same archive format, which is what lets an interrupted training run
resume bitwise-identically from a checkpoint.

All archives are written atomically (tmp file + rename) so a killed
writer never leaves a truncated file at the final path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import SerializationError
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.atomic import atomic_path

_FORMAT_VERSION = 1
_OPT_FORMAT_VERSION = 1


def _fingerprint(net: Sequential) -> dict:
    """Architecture fingerprint: layer reprs plus parameter shapes."""
    return {
        "layers": [repr(layer) for layer in net.layers],
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "param_shapes": {
            f"{li}.{name}": list(arr.shape) for li, name, arr in net.parameters()
        },
    }


def save_weights(net: Sequential, path) -> Path:
    """Serialize *net*'s weights (and fingerprint) to ``path`` (.npz)."""
    if not net.built:
        raise SerializationError("cannot save an unbuilt network")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps({"version": _FORMAT_VERSION, "fingerprint": _fingerprint(net)})
    arrays = {key.replace(".", "__"): arr for key, arr in net.get_weights().items()}
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez(tmp, __header__=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)
    return path


def load_weights(net: Sequential, path) -> Sequential:
    """Load weights from ``path`` into *net*, verifying the fingerprint."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such weights file: {path}")
    try:
        with np.load(path) as data:
            header_bytes = bytes(data["__header__"])
            arrays = {
                key.replace("__", "."): data[key]
                for key in data.files
                if key != "__header__"
            }
    except Exception as exc:  # malformed archive
        raise SerializationError(f"cannot read weights file {path}: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt header in {path}: {exc}") from exc
    if header.get("version") != _FORMAT_VERSION:
        raise SerializationError(
            f"weights format version {header.get('version')} not supported"
        )
    want = _fingerprint(net)["param_shapes"]
    have = header["fingerprint"]["param_shapes"]
    if want != have:
        raise SerializationError(
            "architecture mismatch between network and weights file:\n"
            f"  network: {want}\n  file:    {have}"
        )
    net.set_weights(arrays)
    return net


def _optimizer_slot(li: int, name: str, index: int) -> str:
    return f"s{li}__{name}__{index}"


def _tensor_slices(net: Sequential):
    """``(layer, name, slice, shape)`` of each tensor in the packed
    vectors, in packing order."""
    offset = 0
    for li, name, arr in net.parameters():
        yield li, name, slice(offset, offset + arr.size), arr.shape
        offset += arr.size


def save_optimizer_state(opt: Optimizer, net: Sequential, path) -> Path:
    """Serialize *opt*'s accumulated state for *net* to ``path`` (.npz).

    Captures everything an optimizer carries across steps — the slot
    buffers (SGD momentum, RMSProp accumulators, Adam moments) plus the
    step counter — so that restoring it continues a training trajectory
    bitwise identically to one that was never interrupted.

    The archive keeps the per-tensor layout: one entry per
    ``(layer, name)`` parameter of *net*, holding that tensor's slice of
    each flat slot (and, for Adam, its bias-correction step count).
    """
    path = Path(path)
    entries: dict = {}
    arrays: dict = {}
    if opt._state:
        with_count = isinstance(opt, Adam)
        for li, name, where, shape in _tensor_slices(net):
            items = [slot[where].reshape(shape) for slot in opt._state]
            if with_count:
                items.append(opt.iterations)
            for index, item in enumerate(items):
                arrays[_optimizer_slot(li, name, index)] = np.asarray(item)
            entries[f"{li}.{name}"] = {
                "kinds": ["array"] * len(opt._state)
                + (["scalar"] if with_count else []),
                "is_list": with_count,
            }
    header = json.dumps(
        {
            "version": _OPT_FORMAT_VERSION,
            "kind": type(opt).__name__,
            "learning_rate": opt.learning_rate,
            "iterations": opt.iterations,
            "entries": entries,
        }
    )
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez(
            tmp,
            __header__=np.frombuffer(header.encode(), dtype=np.uint8),
            **arrays,
        )
    return path


def load_optimizer_state(opt: Optimizer, net: Sequential, path) -> Optimizer:
    """Restore state written by :func:`save_optimizer_state` into *opt*.

    The optimizer kind must match the one that was saved (an Adam
    checkpoint cannot be loaded into SGD), and the per-tensor entries
    must match *net*'s parameters; the caller is responsible for
    constructing *opt* with the right hyperparameters.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such optimizer state file: {path}")
    try:
        with np.load(path) as data:
            header_bytes = bytes(data["__header__"])
            arrays = {key: data[key] for key in data.files if key != "__header__"}
    except Exception as exc:  # malformed archive
        raise SerializationError(
            f"cannot read optimizer state file {path}: {exc}"
        ) from exc
    try:
        header = json.loads(header_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt header in {path}: {exc}") from exc
    if header.get("version") != _OPT_FORMAT_VERSION:
        raise SerializationError(
            f"optimizer state format version {header.get('version')} not supported"
        )
    if header.get("kind") != type(opt).__name__:
        raise SerializationError(
            f"optimizer kind mismatch: state is for {header.get('kind')!r}, "
            f"loading into {type(opt).__name__}"
        )
    opt.reset()
    opt.iterations = int(header.get("iterations", 0))
    entries = header.get("entries", {})
    if not entries:
        return opt
    want = [f"{li}.{name}" for li, name, _, _ in _tensor_slices(net)]
    if sorted(entries) != sorted(want):
        raise SerializationError(
            f"optimizer state file {path} does not match the network: "
            f"entries {sorted(entries)}, parameters {sorted(want)}"
        )
    state = [np.empty_like(net.params) for _ in range(opt.slots)]
    try:
        for li, name, where, shape in _tensor_slices(net):
            key = f"{li}.{name}"
            kinds = entries[key]["kinds"]
            if kinds.count("array") != opt.slots:
                raise ValueError(
                    f"{key} has {kinds.count('array')} state arrays, "
                    f"{type(opt).__name__} keeps {opt.slots}"
                )
            for index, kind in enumerate(kinds):
                arr = arrays[_optimizer_slot(li, name, index)]
                if kind == "array":
                    if arr.shape != shape:
                        raise ValueError(f"{key} has shape {arr.shape}, expected {shape}")
                    state[index][where] = arr.ravel()
                elif int(arr) != opt.iterations:
                    raise ValueError(
                        f"{key} was stepped {int(arr)} times, the optimizer "
                        f"{opt.iterations} times"
                    )
    except (KeyError, ValueError) as exc:
        raise SerializationError(
            f"optimizer state file {path} is inconsistent: {exc}"
        ) from exc
    opt._state = state
    return opt
