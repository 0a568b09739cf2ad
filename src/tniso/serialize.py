"""JSON formats for channels, codes, and states.

Matrices are arrays of rows; every entry is a ``[re, im]`` pair of decimal
numbers. Serialization uses the shortest digit strings that round-trip
IEEE-754 doubles exactly, so parse-then-emit is lossless. Data files are
written as compact JSON by the C encoder; any layout, such as indented
files, loads.

A channel is ``{"dim_in", "dim_out", "kraus"}``. A recovery with a reset
term (see :class:`tniso.channels.KrausChannel`) writes its block operators
under ``kraus`` and adds ``"reset": {"cols", "state"}``, the image
complement's columns and the reference state, in place of the rank-one
operators they stand for; a reset of no columns is omitted.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .channels import KrausChannel, _kraus_stack, _Reset
from .codes import IsometricEncoding, SubsystemDecomposition
from .errors import ContractViolation
from .opcore import DensityOperator, as_matrix
from . import tolerances as tol


def matrix_to_json(m) -> list:
    """Rows of ``[re, im]`` pairs of ``m``; a stack of matrices gives a
    list of them."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(rows, field: str) -> np.ndarray:
    """The complex matrix of a payload whose entries are JSON numbers;
    ``field`` names the payload in error messages."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed {field} payload: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ContractViolation(
            f"{field} payload must be rows of [re, im] pairs, got shape {arr.shape}"
        )
    # asarray converts strings such as "1", booleans and null
    bad = set(map(type, chain.from_iterable(chain.from_iterable(rows)))) - {int, float}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise ContractViolation(f"malformed {field} payload: entries must be numbers, not {names}")
    if not np.isfinite(arr).all():  # json reads NaN and Infinity as floats
        raise ContractViolation(f"malformed {field} payload: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_dict(channel: KrausChannel) -> dict:
    payload = {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": matrix_to_json(channel._blocks),
    }
    reset = channel._reset
    if reset is not None and reset.cols.shape[1]:
        payload["reset"] = {
            "cols": matrix_to_json(reset.cols),
            "state": matrix_to_json(reset.state),
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
        kraus = [matrix_from_json(k, "kraus") for k in payload["kraus"]]
        dim_in, dim_out = [_int_field(payload, k, "channel") for k in ("dim_in", "dim_out")]
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed channel payload: {exc}") from exc
    for k in kraus:
        if k.shape != (dim_out, dim_in):
            raise ContractViolation(
                f"Kraus shape {k.shape} does not match dims ({dim_out}, {dim_in})"
            )
    if "reset" not in payload:
        return KrausChannel(kraus, tp_tol=tp_tol)
    if not kraus:
        raise ContractViolation("Kraus list must be nonempty")
    reset = _reset_from_dict(payload["reset"], dim_in, dim_out)
    return KrausChannel._with_reset(_kraus_stack(kraus), reset, tp_tol=tp_tol)


def encoding_to_dict(encoding: IsometricEncoding) -> dict:
    dec = encoding.decomposition
    return {
        "d_S": dec.d_s,
        "d_F": dec.d_f,
        "d_R": dec.d_r,
        "basis": matrix_to_json(dec.basis),
        "tau": matrix_to_json(encoding.cofactor),
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
