"""Named parameter storage and single-file checkpoints.

A store packs its parameters into one flat buffer per dtype, in the order
they were added, and each parameter's ``Tensor.data`` is a view into it; the
optimizer updates the buffers and their flat Adam moments in place. So code
that sets a parameter writes into its view (``p.data[...] = x``) or goes
through the store, and never rebinds ``p.data``. A parameter's ``.grad`` is
what ``backward`` added since the store's last optimizer step: ``None`` in a
fresh or loaded store, and again after every step.

Checkpoint format, per parameter and so independent of the flat layout:
one file. Its first line is a JSON header ``{"meta": ..., "stores": {name:
{"step_count": n, "arrays": [{"name", "shape", "dtype"}, ...]}}}``, holding
the caller's ``meta`` and the array table of every named store. After the
newline come the arrays' little-endian raw values, back to back in table
order: a store's parameters (``param/<name>``), then, once it has stepped,
each one's moments (``moment/m/<name>``, ``moment/v/<name>``), all written
from their slices of the flat arrays, so a reload resumes bit-exactly.

``save_checkpoint`` writes ``<path>.tmp`` and commits it with one atomic
rename, so a save that fails or is killed part-way leaves the previous
checkpoint in place. ``load_checkpoint`` checks each table's step count and
entries, their extents against the file length, and that a store's moments
cover all its parameters or none; a file that fails is a ``DataError``.
"""
from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import numpy as np

from ..errors import DataError
from .tensor import Tensor

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}
_ENTRY_NAME = re.compile(r"(?:param|moment/([mv]))/(.+)", re.DOTALL)  # (moment key, name)


class FlatBuffer:
    """One dtype's parameters back to back in ``data``; Adam's moments ``m``
    and ``v`` share the layout (``None`` until the first step)."""

    def __init__(self, dtype):
        self.data, self.m, self.v, self.tensors = np.empty(0, dtype), None, None, []


class ParamStore:
    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._slots: dict[str, slice] = {}  # each parameter's place in its buffer
        self.buffers: dict[np.dtype, FlatBuffer] = {}
        self.step_count = 0

    def add(self, name: str, array: np.ndarray) -> Tensor:
        """Copy ``array`` into its dtype's buffer as parameter ``name``."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        array = np.asarray(array)
        buf = self.buffers.setdefault(array.dtype, FlatBuffer(array.dtype))
        self._slots[name] = slice(buf.data.size, buf.data.size + array.size)
        t = self._params[name] = Tensor(array, requires_grad=True)
        buf.tensors.append(t)
        buf.data = np.concatenate([buf.data, array.ravel()])
        for n, p in self._params.items():
            if p.data.dtype == array.dtype:
                p.data = self._view(n, buf.data)
        return t

    def _view(self, name: str, flat: np.ndarray) -> np.ndarray:
        return flat[self._slots[name]].reshape(self._params[name].data.shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    @property
    def moments(self) -> dict[str, dict[str, np.ndarray]]:
        """Each parameter's ``{"m", "v"}`` as views into the flat moments, in
        parameter order; empty before the first step."""
        bufs = {n: self.buffers[t.data.dtype] for n, t in self._params.items()}
        return {n: {"m": self._view(n, b.m), "v": self._view(n, b.v)}
                for n, b in bufs.items() if b.m is not None}

    def copy_from(self, other: "ParamStore"):
        """Set the parameters to ``other``'s, whose names, shapes and dtypes
        match, with one buffer copy per dtype; the moments stay."""
        for dtype, buf in self.buffers.items():
            np.copyto(buf.data, other.buffers[dtype].data)


def save_checkpoint(path: str | Path, meta: dict, stores: dict[str, ParamStore]):
    """Write ``meta`` (JSON-serializable) and the named stores to one file."""
    path = Path(path)
    tables, blobs = {}, []
    for store_name, store in stores.items():
        arrays = [(f"param/{name}", store[name].data) for name in store.names()]
        arrays += [(f"moment/{key}/{name}", arr)
                   for name, bufs in store.moments.items() for key, arr in bufs.items()]
        tables[store_name] = {"step_count": store.step_count, "arrays": [
            {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
            for name, arr in arrays]}
        blobs += [np.ascontiguousarray(arr).astype(_DTYPE_CODES[str(arr.dtype)],
                                                   copy=False).tobytes()
                  for _, arr in arrays]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps({"meta": meta, "stores": tables}).encode() + b"\n")
        for raw in blobs:
            fh.write(raw)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _set_moments(store: ParamStore, moments: dict, where: str):
    """Pack a file's per-name ``{"m", "v"}`` moments into the flat moment
    arrays; a file has them for every parameter or for none."""
    shapes = {n: t.data.shape for n, t in store._params.items()}
    bad = sorted(n for n in shapes.keys() | moments.keys() if dict.fromkeys("mv", shapes.get(n))
                 != {k: a.shape for k, a in moments.get(n, {}).items()})
    if bad:
        raise DataError(f"{where} has Adam moments, but none or misshapen ones for {bad}")
    for dtype, buf in store.buffers.items():
        buf.m, buf.v = (np.concatenate([moments[n][k].ravel() for n, t in store._params.items()
                                        if t.data.dtype == dtype], dtype=dtype) for k in "mv")


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, ParamStore]]:
    """Read a :func:`save_checkpoint` file back as (meta, named stores)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint missing: {path}")
    head, _, data = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
        meta, tables = header["meta"], header["stores"].items()
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise DataError(f"{path}: unreadable checkpoint header ({err})") from None
    stores = {}
    end = 0
    for store_name, table in tables:
        where = f"{path}: store {store_name}"
        if not (isinstance(table, dict) and isinstance(table.get("arrays"), list)
                and type(table.get("step_count")) is int and table["step_count"] >= 0):
            raise DataError(f'{where} is not {{"step_count": int >= 0, "arrays": [...]}}')
        store = stores[store_name] = ParamStore()
        store.step_count, moments, seen = table["step_count"], {}, set()
        for entry in table["arrays"]:
            name, dtype, shape = (entry.get(k) if isinstance(entry, dict) else None
                                  for k in ("name", "dtype", "shape"))
            match = _ENTRY_NAME.fullmatch(name) if isinstance(name, str) else None
            if not (match and name not in seen and isinstance(dtype, str)
                    and dtype in _DTYPE_CODES and isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise DataError(f"{where}: array entry {json.dumps(entry)} is not a new name "
                                "param/<n> or moment/m|v/<n>, a dtype float32|float64 and "
                                "a shape of ints >= 0")
            seen.add(name)
            key, param = match.groups()
            code = _DTYPE_CODES[dtype]
            size = math.prod(shape)
            start, end = end, end + size * np.dtype(code).itemsize
            if end > len(data):
                raise DataError(f"{path}: {store_name} {name} ends at byte {end} "
                                f"of the arrays, past their {len(data)} bytes")
            arr = np.frombuffer(data, dtype=code, count=size, offset=start)
            arr = arr.reshape(shape).astype(dtype)
            if key is None:
                store.add(param, arr)
            else:
                moments.setdefault(param, {})[key] = arr
        if moments:
            _set_moments(store, moments, where)
    if end != len(data):
        raise DataError(f"{path}: the array table covers {end} bytes, the file holds {len(data)}")
    return meta, stores
