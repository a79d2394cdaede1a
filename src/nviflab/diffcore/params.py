"""Named parameter storage and single-file checkpoints.

Checkpoint format: one file. Its first line is a JSON header
``{"meta": ..., "stores": {name: {"step_count": n, "arrays": [{"name",
"shape", "dtype"}, ...]}}}``, holding the caller's ``meta`` and the array
table of every named store. After the newline come the arrays' little-endian
raw values, back to back in table order. A store's arrays are its parameters
(``param/<name>``) and its optimizer moment buffers (``moment/<key>/<name>``),
so a reload resumes optimization bit-exactly.

``save_checkpoint`` writes ``<path>.tmp`` and commits it with one atomic
rename, so a save that fails or is killed part-way leaves the previous
checkpoint in place. ``load_checkpoint`` checks the table's extents against
the file length.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from ..errors import DataError
from .tensor import Tensor

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


class ParamStore:
    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.moments: dict[str, dict[str, np.ndarray]] = {}
        self.step_count = 0

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)


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


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, ParamStore]]:
    """Read a :func:`save_checkpoint` file back as (meta, named stores)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint missing: {path}")
    head, _, data = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
        meta, tables = header["meta"], header["stores"]
    except (ValueError, KeyError, TypeError) as err:
        raise DataError(f"{path}: unreadable checkpoint header ({err})") from None
    stores = {}
    end = 0
    for store_name, table in tables.items():
        store = stores[store_name] = ParamStore()
        store.step_count = table["step_count"]
        for entry in table["arrays"]:
            code = _DTYPE_CODES[entry["dtype"]]
            size = math.prod(entry["shape"])
            start, end = end, end + size * np.dtype(code).itemsize
            if end > len(data):
                raise DataError(f"{path}: {store_name} {entry['name']} ends at byte {end} "
                                f"of the arrays, past their {len(data)} bytes")
            arr = np.frombuffer(data, dtype=code, count=size, offset=start)
            arr = arr.reshape(entry["shape"]).astype(entry["dtype"])
            kind, _, rest = entry["name"].partition("/")
            if kind == "param":
                store.add(rest, arr)
            else:
                key, _, name = rest.partition("/")
                store.moments.setdefault(name, {})[key] = arr
    if end != len(data):
        raise DataError(f"{path}: the array table covers {end} bytes, the file holds {len(data)}")
    return meta, stores
