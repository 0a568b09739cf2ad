"""JSON formats for channels, codes, and states.

A matrix is stored in one of two forms, and every loader accepts both:

* packed, ``{"shape": [...], "complex128le": "<base64>"}``: the standard
  base64 (with padding, no line breaks) of the array's entries in C order,
  each a little-endian IEEE-754 double pair ``re, im``, so 16 bytes per
  entry. A Kraus stack is one such object of shape (K, d_out, d_in);
* nested, rows of ``[re, im]`` pairs of decimal numbers, a stack being a
  list of such matrices. Serialization uses the shortest digit strings
  that round-trip IEEE-754 doubles exactly.

Either way parse-then-emit is lossless, and a malformed payload raises
``ContractViolation`` naming its field: a packed one is checked for strict
base64, its shape (non-negative ints, the field's number of axes), a byte
count of 16 per entry, compared before any array is allocated, and finite
entries; a nested one for numeric, finite entries. Data files (channels, recoveries
and codes) are written packed, as compact JSON by the C encoder; states
and reports are written nested, so they stay readable. Any layout, such
as indented files written before the packed form, loads.

A channel is ``{"dim_in", "dim_out", "kraus"}``. A recovery with a reset
term (see :class:`tniso.channels.KrausChannel`) writes its block operators
under ``kraus`` and adds ``"reset": {"cols", "state"}``, the image
complement's columns and the reference state, in place of the rank-one
operators they stand for; a reset of no columns is omitted. The term is
``X -> Tr(cols cols^dag X) state`` whatever the columns: a recovery's are
orthonormal, those of a loop ``compose(recovery, channel)`` are pulled back
through the channel and need not be, and neither is checked.
"""

from __future__ import annotations

import binascii
import json
import math
import re
from itertools import chain

import numpy as np

from .channels import KrausChannel, _kraus_stack, _Reset
from .codes import IsometricEncoding, SubsystemDecomposition
from .errors import ContractViolation
from .opcore import DensityOperator, as_matrix
from . import tolerances as tol

PACKED_TAG = "complex128le"
_PACKED_KEYS = {"shape", PACKED_TAG}
# strict base64: the standard alphabet and padding, nothing else
_BASE64 = re.compile("[A-Za-z0-9+/]*={0,2}")


def matrix_to_json(m) -> list:
    """Rows of ``[re, im]`` pairs of ``m``; a stack of matrices gives a
    list of them."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_to_packed(m) -> dict:
    """``m`` (a matrix or a stack of them) as one packed object, which
    :func:`matrix_from_json` reads back bit for bit."""
    m = np.ascontiguousarray(m, dtype="<c16")
    text = binascii.b2a_base64(m.data, newline=False).decode("ascii")
    return {"shape": list(m.shape), PACKED_TAG: text}


def _unpack(payload: dict, field: str, ndim: int) -> np.ndarray:
    """The array of a packed object, checked before anything is allocated
    for its shape."""
    keys = payload.keys()
    if keys != _PACKED_KEYS:
        unknown, missing = sorted(keys - _PACKED_KEYS), sorted(_PACKED_KEYS - keys)
        raise ContractViolation(
            f"malformed {field} payload: a packed matrix holds exactly 'shape' and "
            f"{PACKED_TAG!r}; missing {missing}, unknown {unknown}"
        )
    shape = payload["shape"]
    if not (
        isinstance(shape, list)
        and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)
    ):
        raise ContractViolation(
            f"malformed {field} payload: shape must be a list of non-negative integers, got {shape!r}"
        )
    if len(shape) != ndim:
        raise ContractViolation(
            f"malformed {field} payload: shape {shape} has {len(shape)} axes, expected {ndim}"
        )
    text = payload[PACKED_TAG]
    if not (isinstance(text, str) and _BASE64.fullmatch(text)):
        raise ContractViolation(f"malformed {field} payload: {PACKED_TAG} is not base64")
    try:
        raw = binascii.a2b_base64(text)
    except binascii.Error as exc:  # padding that does not fit the length
        raise ContractViolation(f"malformed {field} payload: {PACKED_TAG} is not base64: {exc}") from exc
    expected = 16 * math.prod(shape)
    if len(raw) != expected:
        raise ContractViolation(
            f"malformed {field} payload: shape {shape} needs {expected} bytes, got {len(raw)}"
        )
    try:  # only an empty array gets this far with a shape numpy cannot hold
        arr = np.frombuffer(raw, dtype="<c16").reshape(shape).astype(complex)
    except ValueError as exc:
        raise ContractViolation(f"malformed {field} payload: shape {shape}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ContractViolation(f"malformed {field} payload: entries must be finite")
    return arr


def _unnest(rows, field: str, ndim: int) -> np.ndarray:
    """The array of nested ``[re, im]`` pairs, ``ndim`` list levels deep."""
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed {field} payload: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ContractViolation(
            f"{field} payload must be rows of [re, im] pairs, got shape {arr.shape}"
        )
    # np.array converts strings such as "1", booleans and null
    entries = rows
    for _ in range(ndim):
        entries = chain.from_iterable(entries)
    bad = set(map(type, entries)) - {int, float}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise ContractViolation(f"malformed {field} payload: entries must be numbers, not {names}")
    if not np.isfinite(arr).all():  # json reads NaN and Infinity as floats
        raise ContractViolation(f"malformed {field} payload: entries must be finite")
    return arr.view(complex)[..., 0]


def matrix_from_json(payload, field: str, ndim: int = 2) -> np.ndarray:
    """The finite complex array, a matrix or with ``ndim=3`` a stack of
    them, of a packed or a nested payload; ``field`` names the payload in
    error messages. The array is the caller's own, writable."""
    if isinstance(payload, dict):
        return _unpack(payload, field, ndim)
    return _unnest(payload, field, ndim)


def channel_to_dict(channel: KrausChannel) -> dict:
    payload = {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": matrix_to_packed(channel._blocks),
    }
    reset = channel._reset
    if reset is not None and reset.cols.shape[1]:
        payload["reset"] = {
            "cols": matrix_to_packed(reset.cols),
            "state": matrix_to_packed(reset.state),
        }
    return payload


def _int_field(payload: dict, key: str, kind: str) -> int:
    """An integral JSON number; floats count only without a fractional part."""
    value = payload[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractViolation(
            f"malformed {kind} payload: {key!r} must be an integer, got {value!r}"
        )
    return value


def _reset_from_dict(payload, dim_in: int, dim_out: int) -> _Reset:
    """The reset term of a recovery file: ``cols`` must be dim_in rows and
    ``state`` a density operator on the output space."""
    try:
        cols = matrix_from_json(payload["cols"], "reset cols")
        state = matrix_from_json(payload["state"], "reset state")
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed reset payload: {exc}") from exc
    if cols.shape[0] != dim_in:
        raise ContractViolation(f"reset cols shape {cols.shape} does not have {dim_in} rows")
    if state.shape != (dim_out, dim_out):
        raise ContractViolation(
            f"reset state shape {state.shape} does not match dims ({dim_out}, {dim_out})"
        )
    try:
        DensityOperator(state)
    except ContractViolation as exc:
        raise ContractViolation(f"reset state is not a density operator: {exc}") from exc
    return _Reset.of_state(cols, state)


def channel_from_dict(payload: dict, tp_tol: float = tol.TP_TOL) -> KrausChannel:
    try:
        kraus = matrix_from_json(payload["kraus"], "kraus", ndim=3)
        dim_in, dim_out = [_int_field(payload, k, "channel") for k in ("dim_in", "dim_out")]
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed channel payload: {exc}") from exc
    if kraus.shape[1:] != (dim_out, dim_in):
        raise ContractViolation(
            f"Kraus shape {kraus.shape[1:]} does not match dims ({dim_out}, {dim_in})"
        )
    if "reset" not in payload:
        return KrausChannel(kraus, tp_tol=tp_tol)
    if not len(kraus):
        raise ContractViolation("Kraus list must be nonempty")
    reset = _reset_from_dict(payload["reset"], dim_in, dim_out)
    return KrausChannel._with_reset(_kraus_stack(kraus), reset, tp_tol=tp_tol)


def encoding_to_dict(encoding: IsometricEncoding) -> dict:
    dec = encoding.decomposition
    return {
        "d_S": dec.d_s,
        "d_F": dec.d_f,
        "d_R": dec.d_r,
        "basis": matrix_to_packed(dec.basis),
        "tau": matrix_to_packed(encoding.cofactor),
    }


def encoding_from_dict(payload: dict) -> IsometricEncoding:
    try:
        dims = [_int_field(payload, k, "code") for k in ("d_S", "d_F", "d_R")]
        dec = SubsystemDecomposition(*dims, matrix_from_json(payload["basis"], "basis"))
        return IsometricEncoding(dec, matrix_from_json(payload["tau"], "tau"))
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed code payload: {exc}") from exc


def state_to_json(rho) -> list:
    return matrix_to_json(as_matrix(rho))


def state_from_json(payload) -> np.ndarray:
    return matrix_from_json(payload, "state")


def dump_json(obj, path) -> None:
    """Write a data file: ``json.dump`` to a handle, and ``json.dumps``
    with an indent, run the pure-Python encoder, so encode once in C."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    """The JSON document in ``path``. A file that is not UTF-8 JSON raises
    ``ContractViolation`` naming the path; an unreadable one, ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContractViolation(f"{path} is not a UTF-8 JSON file: {exc}") from exc
