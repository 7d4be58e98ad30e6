"""Tensor files, content hashing, and the one checkpoint writer/reader.

A tensor file is a bare little-endian payload, `<name>.bin`; its shape
comes from the manifest and the loader, its dtype from `LAYOUTS`.
Checkpoints narrow to float32 on save (the narrowing is deliberate and
lossy); mid-run training state uses float64 so a restored run continues
bit-for-bit.

A checkpoint is a directory of tensor files plus a JSON manifest, laid out
by its `kind` (`LAYOUTS`): the caller's metadata (with its `kind` and
`format_version`), each tensor's shape and sha256, and a content hash over
the metadata, less the paths under `HINT`, and the tensor hashes.
`read_checkpoint` verifies the manifest, and its loader every tensor name,
shape and payload, before handing anything back.

Every config and manifest is a `Record`: a dataclass read from and written
to a JSON object through its own fields and annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import types
import typing

import numpy as np


class CheckpointError(RuntimeError):
    """Corrupt, missing, or hash-mismatched checkpoint content."""


_DTYPES = {"f32": "<f4", "f64": "<f8"}

FORMAT_VERSION = 2  # the only one `read_checkpoint` accepts
HINT = "hint"  # metadata key outside the content hash: paths, not content

# kind -> (manifest file, tensor sub-directory, tensor dtype)
LAYOUTS = {"backbone": ("manifest.json", "", "f32"), "finetune": ("config.json", "tuned", "f32"),
           "train_state": ("state.json", "", "f64")}


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _payload(array, dtype):
    return np.asarray(array, dtype=np.float64).astype(_DTYPES[dtype]).tobytes()


def require_file(path, error):
    """Raise `error`, naming `path`, unless it is a regular file."""
    if not os.path.isfile(path):
        what = "not a regular file" if os.path.exists(path) else "missing file"
        raise error(f"{what}: {path}")


def write_tensor(directory, name, array, dtype="f32"):
    """Write the bare payload `<name>.bin`; returns its sha256."""
    payload = _payload(array, dtype)
    with open(os.path.join(directory, name + ".bin"), "wb") as f:
        f.write(payload)
    return sha256_hex(payload)


def read_tensor(directory, name, shape, dtype="f32", expected_sha=None):
    """Load `<name>.bin` back as a float64 array of `shape`, verifying its
    size and optional hash."""
    bin_path = os.path.join(directory, name + ".bin")
    require_file(bin_path, CheckpointError)
    with open(bin_path, "rb") as f:
        payload = f.read()
    if expected_sha is not None and sha256_hex(payload) != expected_sha:
        raise CheckpointError(f"hash mismatch for tensor {name!r} in {directory}")
    arr = np.frombuffer(payload, dtype=_DTYPES[dtype]).astype(np.float64)
    if arr.size != int(np.prod(shape, dtype=np.int64)):
        raise CheckpointError(f"payload size does not match shape {tuple(shape)} for {name!r}")
    return arr.reshape(shape)


def content_hash(meta: dict, tensor_hashes: dict) -> str:
    """Deterministic hash over checkpoint metadata less `HINT`, plus per-tensor hashes."""
    meta = {k: v for k, v in meta.items() if k != HINT}
    return sha256_hex(canonical_json({"meta": meta, "tensors": tensor_hashes}).encode())


def checkpoint_hash(meta, tensors):
    """`write_checkpoint`'s content hash for `meta` and `tensors`, unwritten."""
    dtype = LAYOUTS[meta["kind"]][2]
    return content_hash(meta, {name: sha256_hex(_payload(a, dtype)) for name, a in tensors})


def write_json(path, obj):
    """Write `obj` through a temporary file and `os.replace`, so a reader
    finds the old file or the new one, never part of one."""
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(path + ".tmp", path)


def read_json(path):
    require_file(path, CheckpointError)
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise CheckpointError(f"{path}: {e}") from None


class Record:
    """Base of a dataclass read from and written to a JSON object.

    A key is a field name less one trailing `_` (`lambda_` is "lambda");
    the class attribute `what` names the record in messages. `from_dict`
    refuses (ValueError) an unknown key, a missing key with no default, and
    a value whose JSON type does not match the annotation: an int passes
    for a float, a bool never for a number. It recurses into records,
    `list[T]` and `T | None`, naming nested keys by dotted path, and
    converts nothing: `to_dict` returns what was read plus defaults. A
    `refuse` in `__post_init__` is re-raised, of the same type, naming the
    key by its dotted path too.
    """

    what = "record"

    def refuse(self, key, rule, error=ValueError):
        """Raise `error`: the value at `key` breaks `rule`, a phrase such as
        "must be >= 1, got 0"."""
        e = error(f"{self.what}: {key!r} {rule}")
        e.key, e.rule = key, rule
        raise e

    def to_dict(self):
        return {key: _dump(getattr(self, f.name)) for key, f, _ in _schema(type(self))}

    @classmethod
    def from_dict(cls, d, path=""):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.what} must be an object, got {d!r}")
        schema = _schema(cls)
        unknown = set(d) - {key for key, _, _ in schema}
        if unknown:
            raise ValueError(f"unknown {cls.what} keys: {sorted(path + k for k in unknown)}")
        values = {}
        for key, f, hint in schema:
            if key in d:
                values[f.name] = _load(hint, d[key], path + key, cls.what)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{cls.what} requires {path + key!r}")
        try:
            return cls(**values)
        except ValueError as e:
            if not hasattr(e, "key"):
                raise
            raise type(e)(f"{cls.what}: {path + e.key!r} {e.rule}") from None


@functools.cache
def _schema(cls):
    """(key, field, resolved annotation) of every field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name.removesuffix("_"), f, hints[f.name]) for f in dataclasses.fields(cls))


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "true or false"}


def _load(hint, value, path, what):
    """`value` checked against the annotation `hint`; nested records are built."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # written `T | None`
        return None if value is None else _load(args[0], value, path, what)
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value, path + ".")
    json_type = origin or hint
    if (not isinstance(value, (int, float) if json_type is float else json_type)
            or isinstance(value, bool) and json_type is not bool):
        raise ValueError(f"{what}: {path!r} must be {_JSON_TYPES[json_type]}, got {value!r}")
    if origin is list:
        return [_load(args[0], v, f"{path}.{i}", what) for i, v in enumerate(value)]
    return value


def _dump(value):
    if isinstance(value, Record):
        return value.to_dict()
    return [_dump(v) for v in value] if isinstance(value, list) else value


def checkpoint_kind(directory):
    """The first kind in `LAYOUTS` whose manifest file is in `directory`, or None."""
    return next((kind for kind, (manifest, _, _) in LAYOUTS.items()
                 if os.path.exists(os.path.join(directory, manifest))), None)


def write_checkpoint(directory, meta, tensors):
    """Write `(name, array)` tensors and the manifest `meta` + per-tensor
    shape and sha256 + content hash where `meta["kind"]`'s layout puts them;
    returns the hash. The manifest goes last and whole, so a write cut short
    leaves either no manifest or the old one, whose hashes the new tensors
    fail: both are refused by `read_checkpoint`."""
    manifest, subdir, dtype = LAYOUTS[meta["kind"]]
    tensor_dir = os.path.join(directory, subdir)
    os.makedirs(tensor_dir, exist_ok=True)
    entries = {}
    for name, array in tensors:
        sha = write_tensor(tensor_dir, name, array, dtype=dtype)
        entries[name] = {"shape": list(np.shape(array)), "sha256": sha}
    chash = content_hash(meta, {k: v["sha256"] for k, v in entries.items()})
    write_json(os.path.join(directory, manifest), dict(meta, tensors=entries, content_hash=chash))
    return chash


def read_checkpoint(directory, kind):
    """Read back a `write_checkpoint` directory of `kind` as (manifest, load).

    The manifest is verified first; `load({name: shape})`, given the
    tensors the caller expects, then returns {name: float64 array}, so a
    caller may build what it loads into from the manifest in between.
    Refuses (CheckpointError), in this order: a manifest, or its `tensors`
    value, that is not a JSON object; a manifest of another `kind`; a
    `format_version` other than `FORMAT_VERSION`; a content hash that does
    not match every other manifest key but `HINT` plus the tensor hashes;
    then, in `load`, a tensor name missing from, or not in, the expected
    names; a manifest shape other than the expected one; a payload whose
    hash or size differs from its manifest entry.
    """
    manifest, subdir, dtype = LAYOUTS[kind]
    m = read_json(os.path.join(directory, manifest))
    if not isinstance(m, dict) or not isinstance(m.get("tensors", {}), dict):
        raise CheckpointError(f"{manifest} in {directory}, or its tensors, is not a JSON object")
    if m.get("kind") != kind:
        raise CheckpointError(f"{directory} is not a {kind} checkpoint")
    if m.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{directory} is a {kind} checkpoint of format_version "
                              f"{m.get('format_version')}, not {FORMAT_VERSION}")
    entries = m.get("tensors", {})
    try:
        hashes = {k: v["sha256"] for k, v in entries.items()}
        shapes = {k: list(v["shape"]) for k, v in entries.items()}
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed tensor entry in {directory}: {e}") from None
    meta = {k: v for k, v in m.items() if k not in ("tensors", "content_hash")}
    if content_hash(meta, hashes) != m.get("content_hash"):
        raise CheckpointError(f"content hash mismatch in {directory}")

    def load(expected):
        missing, unexpected = set(expected) - set(entries), set(entries) - set(expected)
        if missing or unexpected:
            raise CheckpointError(f"tensor names in {directory} do not match: missing "
                                  f"{sorted(missing)}, unexpected {sorted(unexpected)}")
        for name, shape in expected.items():
            if shapes[name] != list(shape):
                raise CheckpointError(f"shape mismatch for tensor {name!r} in {directory}: "
                                      f"manifest {shapes[name]}, expected {list(shape)}")
        return {name: read_tensor(os.path.join(directory, subdir), name, shape, dtype,
                                  expected_sha=hashes[name]) for name, shape in expected.items()}

    return m, load
