"""Input-validation helpers shared by the public API."""

from __future__ import annotations

import math
import numbers

import numpy as np


def _refuse_non_numbers(x, name: str) -> None:
    """ValueError naming the first bool or string in x, at any depth: float()
    would take True as 1.0 and "0" as 0.0."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must hold numbers only, got {x!r}")
    if isinstance(x, (list, tuple)):
        for v in x:
            _refuse_non_numbers(v, name)


def as_float_array(x, name: str = "value") -> np.ndarray:
    """x as a float array; ValueError naming a bool or string entry, or a
    value that is not finite.  Numeric numpy arrays are taken as they are."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iufc"):
        _refuse_non_numbers(x, name)
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def as_integers(x, name: str = "value") -> np.ndarray:
    """x as an integer array; ValueError naming the first entry that is not
    an integer: a float (0.5 and 2.0 alike), a bool or a string, which
    np.asarray(x, dtype=int) would truncate or parse.  Integer numpy arrays
    are taken as they are."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iu"):
        for v in np.ravel(np.asarray(x, dtype=object)):
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must hold integers only, got {v!r}")
    return np.asarray(x, dtype=int)


def as_point(x, d: int | None = None, name: str = "point") -> np.ndarray:
    """Coerce to a 1-d float vector, optionally of fixed dimension."""
    arr = np.atleast_1d(as_float_array(x, name))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a flat vector, got shape {arr.shape}")
    if d is not None and arr.size != d:
        raise ValueError(f"{name} must have dimension {d}, got {arr.size}")
    return arr


def as_points(x, d: int | None = None, name: str = "points") -> np.ndarray:
    """Coerce to an (n, d) array of points; accepts (n,) when d == 1."""
    arr = as_float_array(x, name)
    if arr.ndim == 1:
        arr = arr[:, None] if d in (None, 1) else arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be an (n, d) array, got shape {arr.shape}")
    if d is not None and arr.shape[1] != d:
        raise ValueError(f"{name} must have dimension {d}, got {arr.shape[1]}")
    return arr


def unit_direction(v, name: str = "direction") -> np.ndarray:
    arr = as_point(v, name=name)
    n = float(np.linalg.norm(arr))
    if n == 0.0:
        raise ValueError(f"{name} must be a nonzero vector")
    return arr / n


def as_real(x, name: str = "value") -> float:
    """x as a float; ValueError naming it when x is not a number.  A bool or
    a string is refused, as in `as_float_array`: float() would take True as
    1.0 and "90" as 90.0."""
    if isinstance(x, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {x!r}") from None


def check_finite(x, name: str = "value") -> float:
    """x as a finite float; ValueError naming it when x is not one."""
    x = as_real(x, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {x}")
    return x


def check_exponent(p, name: str = "exponent") -> float:
    """Validate a Lebesgue exponent in [1, inf].  Text such as "2" or "inf"
    is taken too, as the CLI's --p and --q flags arrive as strings."""
    if isinstance(p, str):
        text = p.strip().lower()
        try:
            p = math.inf if text in ("inf", "infty", "infinity") else float(text)
        except ValueError:
            raise ValueError(f"{name} must be a number, got {p!r}") from None
    p = as_real(p, name)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"{name} must satisfy 1 <= {name} <= inf, got {p}")
    return p


def check_positive(x, name: str = "value") -> float:
    x = as_real(x, name)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {x}")
    return x


def check_dilation(eps) -> float:
    """Validate a Gabor dilation epsilon in (0, 1]."""
    eps = as_real(eps, "epsilon")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    return eps


def check_integer(x, lo: int, name: str = "value"):
    """x when it is an integer >= lo; ValueError naming it otherwise, a bool
    included."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {x!r}")
    return x


def check_fit_window(k_last) -> int:
    """Validate the number of shells a growth fit uses (the CLI's `shells`)."""
    return check_integer(k_last, 4, "k_last (the CLI's shells)")


def check_in_open(x, lo: float, hi: float, name: str = "value") -> float:
    x = as_real(x, name)
    if not (lo < x < hi):
        raise ValueError(f"{name} must lie in the open interval ({lo}, {hi}), got {x}")
    return x


def as_box(box, d: int | None = None, name: str = "box") -> tuple[np.ndarray, np.ndarray]:
    """Coerce to a (lo, hi) pair of d-vectors with lo <= hi."""
    lo, hi = box
    lo = as_point(lo, d, f"{name} lower corner")
    hi = as_point(hi, lo.size, f"{name} upper corner")
    if np.any(hi < lo):
        raise ValueError(f"{name} has hi < lo: {lo} .. {hi}")
    return lo, hi
