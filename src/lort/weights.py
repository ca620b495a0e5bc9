"""Named parameter registry and its serialized file format.

The on-disk format is a small JSON manifest (name, shape, byte offset,
dtype tag) followed by a raw little-endian float32 blob.
"""
from __future__ import annotations

import json
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInputError, WeightFormatError, WeightLookupError, as_float64, check_int

__all__ = ["WeightStore"]

_MAGIC = b"LORTW001"
_FORMAT = "lort-weights"
_DTYPE_TAG = "f32-le"
_HEADER_KEYS = ("format", "entries")
_ENTRY_KEYS = ("name", "shape", "offset", "dtype")


def _reject_unknown_keys(where: str, obj: dict, known: tuple[str, ...]) -> None:
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise WeightFormatError(f"{where}: unknown key {unknown[0]!r}; known keys are {known}")


def _parse_entry(i: int, ent) -> tuple[str, tuple[int, ...], int]:
    """Validated (name, shape, offset) of manifest entry `i`."""
    if not isinstance(ent, dict):
        raise WeightFormatError(f"entry {i}: must be a JSON object, got {type(ent).__name__}")
    _reject_unknown_keys(f"entry {i}", ent, _ENTRY_KEYS)
    name = ent.get("name")
    if not isinstance(name, str):
        raise WeightFormatError(f"entry {i}: field 'name' must be a string, got {name!r}")
    where = f"entry {i} ({name!r})"
    if ent.get("dtype") != _DTYPE_TAG:
        raise WeightFormatError(f"{where}: unsupported dtype tag {ent.get('dtype')!r}")
    shape = ent.get("shape")
    if not isinstance(shape, list):
        raise WeightFormatError(f"{where}: field 'shape' must be a list, got {shape!r}")
    for n in shape:
        check_int(f"{where}: field 'shape' item", n, 0, WeightFormatError)
    off = ent.get("offset")
    check_int(f"{where}: field 'offset'", off, 0, WeightFormatError)
    return name, tuple(shape), off


class WeightStore:
    """Ordered mapping from canonical dotted parameter paths to arrays."""

    def __init__(self) -> None:
        self._entries: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._entries[name]
        except KeyError:
            raise WeightLookupError(f"missing parameter {name!r}") from None

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if not isinstance(name, str):
            raise InvalidInputError(f"weight name must be a str, got {name!r}")
        self._entries[name] = as_float64(f"weight {name!r}", value)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    @property
    def n_params(self) -> int:
        return sum(v.size for v in self._entries.values())

    def missing(self, names: Iterable[str]) -> list[str]:
        return [n for n in names if n not in self._entries]

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        manifest = []
        offset = 0
        blobs = []
        with np.errstate(over="raise"):  # on a finite value cast to ±inf, not on NaN or ±inf
            for name, arr in self._entries.items():
                try:
                    raw = arr.astype("<f4").tobytes()
                except FloatingPointError:
                    raise WeightFormatError(f"weight {name!r} holds a finite value beyond "
                                            f"float32's range") from None
                manifest.append({"name": name, "shape": list(arr.shape), "offset": offset,
                                 "dtype": _DTYPE_TAG})
                blobs.append(raw)
                offset += len(raw)
        # no indent: an indented dump runs json's pure-Python encoder
        header = json.dumps({"format": _FORMAT, "entries": manifest}).encode()
        return _MAGIC + len(header).to_bytes(8, "little") + header + b"".join(blobs)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WeightStore":
        if data[: len(_MAGIC)] != _MAGIC:
            raise WeightFormatError("bad magic; not a lort weight file")
        if len(data) < 16:
            raise WeightFormatError(f"header truncated: {len(data)} bytes, need 16")
        hlen = int.from_bytes(data[8:16], "little")
        if 16 + hlen > len(data):
            raise WeightFormatError(
                f"manifest truncated: length field says {hlen} bytes, {len(data) - 16} present"
            )
        try:
            header = json.loads(data[16 : 16 + hlen].decode())
        except (ValueError, RecursionError) as e:  # UnicodeDecodeError, JSONDecodeError
            raise WeightFormatError(f"unreadable manifest: {e}") from None
        if not isinstance(header, dict):
            raise WeightFormatError(
                f"manifest must be a JSON object, got {type(header).__name__}"
            )
        _reject_unknown_keys("manifest", header, _HEADER_KEYS)
        if header.get("format") != _FORMAT:
            raise WeightFormatError(f"manifest field 'format' must be {_FORMAT!r}, "
                                    f"got {header.get('format')!r}")
        if "entries" not in header:
            raise WeightFormatError("manifest field 'entries' is missing")
        entries = header["entries"]
        if not isinstance(entries, list):
            raise WeightFormatError(
                f"manifest field 'entries' must be a list, got {type(entries).__name__}"
            )
        blob = data[16 + hlen :]
        store = cls()
        end = 0  # entries lie back to back in manifest order, as to_bytes writes them
        for i, ent in enumerate(entries):
            name, shape, off = _parse_entry(i, ent)
            if name in store:
                raise WeightFormatError(f"entry {i}: duplicate name {name!r}")
            if off != end:
                raise WeightFormatError(f"entry {i} ({name!r}): field 'offset' is {off}, but "
                                        f"the previous entry ends at {end}")
            size = math.prod(shape)
            raw = blob[off : off + 4 * size]
            if len(raw) != 4 * size:
                raise WeightFormatError(
                    f"blob truncated for {name!r}: need {4 * size} bytes at {off}"
                )
            values = np.frombuffer(raw, dtype="<f4")
            if not np.isfinite(values).all():
                raise WeightFormatError(f"entry {i} ({name!r}): values are not all finite")
            try:
                store[name] = values.reshape(shape)
            except ValueError as e:  # more axes than numpy supports
                raise WeightFormatError(f"entry {i} ({name!r}): field 'shape': {e}") from None
            end = off + 4 * size
        if end != len(blob):
            raise WeightFormatError(f"blob size {len(blob)} does not match manifest total {end}")
        return store

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "WeightStore":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
