"""Exception hierarchy shared by all lort modules, and the checks that raise it."""

import numpy as np


class LortError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LortError):
    """Array shapes are inconsistent with the requested operation."""


class InvalidSpecError(LortError):
    """A convolution / transform spec is structurally invalid."""


class InvalidParameterError(LortError):
    """A scalar parameter is outside its valid range."""


class WavParseError(LortError):
    """A WAV byte stream could not be parsed; message names the field."""


class InvalidInputError(LortError):
    """Signal input violates a precondition (empty, bad hop, ...)."""


class NonInvertibleWindowError(LortError):
    """Overlap-add normalization would divide by (near) zero."""


class DegenerateAttentionError(LortError):
    """Taylor attention denominator collapsed (keys antipodal to query)."""


class WeightLookupError(LortError):
    """A required parameter is missing from the weight store."""


class WeightFormatError(LortError):
    """A serialized weight file is malformed or inconsistent."""


class DivergenceError(LortError):
    """An optimization run exceeded its divergence guard."""


def check_int(name: str, value, low: int, error: type[LortError]) -> None:
    """Raise `error` naming `name` unless `value` is a Python int >= `low`;
    a bool or a numpy int is rejected (`type(value) is int`)."""
    if type(value) is not int or value < low:
        raise error(f"{name} must be an int >= {low}, got {value!r}")


def as_float64(name: str, value) -> np.ndarray:
    """`value` as a float64 array, aliased as `np.asarray(value, dtype=np.float64)`
    would; an `InvalidInputError` names `name` unless it is one array (not
    ragged nested sequences) of bools, ints or reals."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting: numpy names no field
        raise InvalidInputError(
            f"{name} must be a rectangular array of real numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)
