"""Scikit-learn style front end for wave-front detection.

`WavefrontDetector` follows the estimator contract (get_params/set_params,
fit returns self, trailing-underscore fitted attributes) without importing
scikit-learn, so it clones and composes with that ecosystem while keeping
the package dependency-light.  fit() takes a GridSignal (or a path to one);
predict() takes rows [x0..., direction...] and returns the verdict codes
1 (divergent, i.e. in the wave-front set), 0 (finite), -1 (inconclusive).
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import NotFitted
from .seminorm import DEFAULT_MARGIN
from .signal import GridSignal, load_signal
from .validation import as_float_array, as_real, unit_direction
from .wavefront import ScanConfig, WavefrontEstimate, _scan


class WavefrontDetector:
    """Estimate wave-front membership of a sampled signal at query pairs.

    Parameters mirror ScanConfig: exponents (p, q), weight exponent s,
    cone aperture, the lattice parameters (alpha, beta), the Gabor dilation
    epsilon (None picks the largest admissible dyadic value per point), the
    radial cutoff r_max and the classifier margin.  `method` selects which
    verdict column predict() reports: "fl", "mod", or "both" (both demands
    agreement and reports -1 otherwise).
    """

    def __init__(
        self,
        q=1.0,
        p=1.0,
        s=1.0,
        aperture_deg=20.0,
        alpha=1.0,
        beta=1.0,
        epsilon=None,
        r_max=None,
        margin=DEFAULT_MARGIN,
        method="fl",
    ):
        self.q = q
        self.p = p
        self.s = s
        self.aperture_deg = aperture_deg
        self.alpha = alpha
        self.beta = beta
        self.epsilon = epsilon
        self.r_max = r_max
        self.margin = margin
        self.method = method

    # -- sklearn plumbing ------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [n for n in sig.parameters if n != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {n: getattr(self, n) for n in self._param_names()}

    def set_params(self, **params) -> "WavefrontDetector":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    # -- estimation -------------------------------------------------------

    def fit(self, X, y=None) -> "WavefrontDetector":
        """Bind the signal to analyze; X is a GridSignal or a path to one.
        The settings are checked first, before a signal file is read."""
        config = ScanConfig.from_settings(
            self.p, self.q, self.s, method=self.method, epsilon=self.epsilon, r_max=self.r_max,
            **{name: as_real(getattr(self, name), name)
               for name in ("aperture_deg", "alpha", "beta", "margin")},
        )
        if isinstance(X, (str,)) or hasattr(X, "__fspath__"):
            X = load_signal(X)
        if not isinstance(X, GridSignal):
            raise TypeError("fit expects a GridSignal or a signal file path")
        self.config_, self.signal_ = config, X
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "signal_"):
            raise NotFitted("call fit(signal) before predict()")

    def _split_queries(self, X) -> tuple[list, list]:
        X = as_float_array(X, "queries")
        d = self.signal_.d
        if X.ndim != 2 or X.shape[1] != 2 * d:
            raise ValueError(
                f"queries must be an (n, {2 * d}) array of [x0..., direction...] rows"
            )
        return [row[:d] for row in X], [row[d:] for row in X]

    def predict_records(self, X) -> WavefrontEstimate:
        """Full per-query records (both verdict columns where computed), one
        per row in row order, from one scan over the rows' (x0, direction)
        questions: all rows share one ball and one Gabor row store, and rows
        sharing an x0 share its stages."""
        self._check_fitted()
        points, dirs = self._split_queries(X)
        return _scan(self.signal_, [(x0, unit_direction(v)) for x0, v in zip(points, dirs)],
                     self.config_)

    def predict(self, X) -> np.ndarray:
        """Verdict codes per query row (1 divergent / 0 finite / -1 unclear)."""
        codes = []
        for rec in self.predict_records(X).records:
            verdicts = [getattr(rec, f"verdict_{m}") for m in self.config_.methods]
            agreed = all(v is not None for v in verdicts) and len({v.kind for v in verdicts}) == 1
            codes.append(verdicts[0].code if agreed else -1)
        return np.asarray(codes, dtype=int)

    def score(self, X, y) -> float:
        """Fraction of conclusive predictions matching y, one label in
        {0, 1} per row of X; ValueError for any other y, before predicting."""
        self._check_fitted()
        n = len(self._split_queries(X)[0])
        y = as_float_array(y, "y")
        if y.shape != (n,) or not np.all((y == 0) | (y == 1)):
            raise ValueError(f"y must hold one label in {{0, 1}} for each of the {n} query rows, "
                             f"got {y.tolist()}")
        pred = self.predict(X)
        conclusive = pred >= 0
        if not np.any(conclusive):
            return 0.0
        return float(np.mean(pred[conclusive] == y[conclusive]))
