"""Named parameter storage with exact checkpoint round-trips.

Checkpoint format: ``<prefix>.json`` manifest listing {name, shape, dtype,
offset} for every array, plus ``<prefix>.bin`` holding the little-endian raw
values back to back. Optimizer moment buffers are stored alongside the
parameters so a reload resumes optimization bit-exactly.

Both files are written to temporary names in the same directory first and
then moved over the old ones with ``os.replace``, blob before manifest, so a
save that fails part-way leaves the previous checkpoint in place. ``load``
checks the manifest's extents against the blob length.
"""
from __future__ import annotations

import json
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

    # -- checkpoint io ------------------------------------------------------

    def save(self, prefix: str | Path):
        prefix = Path(prefix)
        entries = []
        blobs = []
        offset = 0

        def push(name, arr):
            nonlocal offset
            code = _DTYPE_CODES[str(arr.dtype)]
            raw = np.ascontiguousarray(arr).astype(code, copy=False).tobytes()
            entries.append({"name": name, "shape": list(arr.shape),
                            "dtype": str(arr.dtype), "offset": offset})
            blobs.append(raw)
            offset += len(raw)

        for name, t in self._params.items():
            push(f"param/{name}", t.data)
        for name, bufs in self.moments.items():
            for key, arr in bufs.items():
                push(f"moment/{key}/{name}", arr)
        manifest = {"step_count": self.step_count, "arrays": entries}
        prefix.parent.mkdir(parents=True, exist_ok=True)
        blob_path, manifest_path = prefix.with_suffix(".bin"), prefix.with_suffix(".json")
        blob_tmp = blob_path.with_name(blob_path.name + ".tmp")
        manifest_tmp = manifest_path.with_name(manifest_path.name + ".tmp")
        with open(blob_tmp, "wb") as fh:
            for raw in blobs:
                fh.write(raw)
        with open(manifest_tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(blob_tmp, blob_path)
        os.replace(manifest_tmp, manifest_path)

    @classmethod
    def load(cls, prefix: str | Path) -> "ParamStore":
        prefix = Path(prefix)
        with open(prefix.with_suffix(".json")) as fh:
            manifest = json.load(fh)
        blob_path = prefix.with_suffix(".bin")
        blob = blob_path.read_bytes()
        store = cls()
        store.step_count = manifest["step_count"]
        end = 0
        for entry in manifest["arrays"]:
            code = _DTYPE_CODES[entry["dtype"]]
            size = int(np.prod(entry["shape"])) if entry["shape"] else 1
            end = entry["offset"] + size * np.dtype(code).itemsize
            if end > len(blob):
                raise DataError(f"{blob_path}: {entry['name']} ends at byte {end}, "
                                f"past the {len(blob)}-byte blob")
            arr = np.frombuffer(blob, dtype=code, count=size, offset=entry["offset"])
            arr = arr.reshape(entry["shape"]).astype(entry["dtype"]).copy()
            kind, _, rest = entry["name"].partition("/")
            if kind == "param":
                store.add(rest, arr)
            else:
                key, _, name = rest.partition("/")
                store.moments.setdefault(name, {})[key] = arr
        if end != len(blob):
            raise DataError(f"{blob_path}: manifest covers {end} bytes, blob has {len(blob)}")
        return store
