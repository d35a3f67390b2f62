"""JSON (de)serialization shared across modules.

Complex matrices serialize as nested arrays of [re, im] pairs:

    [[[1.0, 0.0], [0.0, 0.0]],
     [[0.0, 0.0], [1.0, 0.0]]]

Channels:   {"dim_in": int, "dim_out": int, "kraus": [matrix, ...]}
Ensembles:  {"p_x": [...], "p_y_given_x": [[...]], "rho_xy": [[matrix, ...], ...]}
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def json_field(data, key: str, what: str):
    """``data[key]`` of a decoded JSON object; a non-object or a missing key is a ValidationError."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be an object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"{what} missing field {key!r}")
    return data[key]


def float_array(data, what: str) -> np.ndarray:
    """Decoded JSON numbers as a float array; anything else is a ValidationError naming ``what``."""
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None


def matrix_from_json(data) -> np.ndarray:
    arr = float_array(data, "complex matrix")
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValidationError(f"complex matrix must be nested [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_from_json(data) -> "QuantumChannel":
    from .channels import QuantumChannel

    kraus = json_field(data, "kraus", "channel JSON")
    if not isinstance(kraus, list):
        raise ValidationError("channel JSON 'kraus' must be a list of matrices")
    ch = QuantumChannel([matrix_from_json(k) for k in kraus])
    for key in ("dim_in", "dim_out"):
        if key in data and data[key] != getattr(ch, key):
            raise ValidationError(f"channel JSON {key}={data[key]} contradicts kraus shape {getattr(ch, key)}")
    return ch


def ensemble_to_json(ens) -> dict:
    return {
        "p_x": [float(v) for v in ens.p_x],
        "p_y_given_x": [[float(v) for v in row] for row in ens.p_y_given_x],
        "rho_xy": [[matrix_to_json(m) for m in row] for row in ens.states],
    }


def ensemble_from_json(data) -> "InputEnsemble":
    from .entropics import InputEnsemble

    p_x = float_array(json_field(data, "p_x", "ensemble JSON"), "ensemble JSON 'p_x'")
    p_y_given_x = float_array(json_field(data, "p_y_given_x", "ensemble JSON"), "ensemble JSON 'p_y_given_x'")
    rows = json_field(data, "rho_xy", "ensemble JSON")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError("ensemble JSON 'rho_xy' must be a list of lists of matrices")
    rho = [[matrix_from_json(m) for m in row] for row in rows]  # InputEnsemble validates the whole stack
    return InputEnsemble(p_x=p_x, p_y_given_x=p_y_given_x, rho_xy=rho)
