"""Pixel-to-distance calibration for roadside cameras.

A camera's view of the (locally straight) road is reduced to a reference
line in image space.  A detection's bottom-center point is projected onto
that line, giving a scalar coordinate s in pixels, and a low-order
polynomial maps s to metric distance from the camera:

    d_hat(s) = w^T phi(s),   phi(s) = [1, s, s^2, ..., s^k]

estimate_distance reports d_hat(s) in metres, clamped at 0.

The weights come from ground-truth pairs (s_i, d_i) by ordinary least
squares on the normal equations:

    w = (Phi^T Phi)^{-1} Phi^T d

solved with a pivoted dense solve; the residual Phi^T (d - Phi w) is zero
up to conditioning.  Order k defaults to at most 2 - higher orders
oscillate on the few ground-truth points a survey crew can collect.

The inverse s(d) of a model of order 2 or less solves
a s^2 + b s + c = 0 with (a, b, c) = (w[2], w[1], w[0] - d) by the
cancellation-free quadratic formula q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2,
roots q/a and c/q; a 60-step bisection over [0, s_max] covers higher
orders and a root that rounding puts just outside the line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_MAX_ORDER = 2
CONDITION_LIMIT = 1e12


class CalibrationError(Exception):
    """Base class for calibration failures."""


class InsufficientPoints(CalibrationError):
    """Fewer ground-truth pairs than polynomial coefficients."""


class SingularSystem(CalibrationError):
    """Normal equations too ill-conditioned to solve reliably."""


@dataclass(frozen=True)
class ReferenceLine:
    """Directed image-space segment from p0 to p1, in pixels.

    s_max is the segment length; projections are clamped to [0, s_max].
    """

    p0: tuple[float, float]
    p1: tuple[float, float]
    s_max: float = field(init=False)
    direction: tuple[float, float] = field(init=False)

    def __post_init__(self):
        dx = self.p1[0] - self.p0[0]
        dy = self.p1[1] - self.p0[1]
        length = float(np.hypot(dx, dy))
        if length <= 0.0:
            raise CalibrationError("reference line endpoints coincide")
        object.__setattr__(self, "s_max", length)
        object.__setattr__(self, "direction", (dx / length, dy / length))


def project_to_line(point: Sequence[float], line: ReferenceLine) -> float:
    """Scalar projection of an image point onto the line, clamped to [0, s_max]."""
    ux, uy = line.direction
    s = (point[0] - line.p0[0]) * ux + (point[1] - line.p0[1]) * uy
    return min(max(s, 0.0), line.s_max)


@dataclass(frozen=True)
class CalibrationSet:
    """Ground-truth (s, d) pairs: line coordinate in pixels, distance in metres."""

    s: tuple[float, ...]
    d: tuple[float, ...]

    def __post_init__(self):
        if len(self.s) != len(self.d):
            raise CalibrationError("s and d must have the same length")
        if len(self.s) == 0:
            raise CalibrationError("empty calibration set")
        if len(set(self.s)) != len(self.s):
            raise CalibrationError("line coordinates must be distinct")
        if any(d <= 0 for d in self.d):
            raise CalibrationError("distances must be positive")

    def __len__(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted polynomial d_hat(s) = w[0] + w[1] s + ... + w[k] s^k."""

    order: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != self.order + 1:
            raise CalibrationError("weights length must be order + 1")

    def raw(self, s: float) -> float:
        """Unclamped polynomial value at s (Horner)."""
        acc = 0.0
        for w in reversed(self.weights):
            acc = acc * s + w
        return acc

    def inverse(self, d: float, s_max: float) -> float:
        """The s in [0, s_max] where raw(s) == d, for a model increasing there."""
        if self.order <= 2:
            c, b, a = (*self.weights, 0.0, 0.0)[:3]
            c -= d
            if a == 0.0:
                roots = (-c / b,) if b else ()
            else:
                disc = b * b - 4.0 * a * c
                q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if disc >= 0.0 else 0.0
                roots = (q / a, c / q) if q else ()
            for s in roots:
                if 0.0 <= s <= s_max:
                    return s
        lo, hi = 0.0, s_max
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.raw(mid) < d:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def fit(calib: CalibrationSet, order: int = DEFAULT_MAX_ORDER) -> CalibrationModel:
    """Least-squares polynomial fit of distance against line coordinate.

    Raises InsufficientPoints when len(calib) < order + 1 and
    SingularSystem when cond(Phi^T Phi) exceeds 1e12, or when finite
    points overflow the normal equations or the weights.
    """
    if order < 0:
        raise CalibrationError("order must be non-negative")
    n_coef = order + 1
    if len(calib) < n_coef:
        raise InsufficientPoints(
            f"{len(calib)} points cannot determine {n_coef} coefficients")
    s = np.asarray(calib.s, dtype=float)
    d = np.asarray(calib.d, dtype=float)
    # overflow is caught by the finiteness checks below, not reported as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.vander(s, n_coef, increasing=True)
        gram = phi.T @ phi
        # a non-finite matrix would reach LAPACK, which prints to stderr
        if not np.isfinite(gram).all():
            raise SingularSystem("normal equations overflow")
        if np.linalg.cond(gram) > CONDITION_LIMIT:
            raise SingularSystem("normal equations condition number exceeds 1e12")
        w = np.linalg.solve(gram, phi.T @ d)
    if not np.isfinite(w).all():
        raise SingularSystem("fitted weights overflow")
    return CalibrationModel(order, tuple(float(x) for x in w))


def estimate_distance(model: CalibrationModel, s: float) -> float:
    """The model's distance at s in metres, clamped at 0: a negative value
    is physically meaningless and only means s lies outside the calibrated range."""
    return max(model.raw(s), 0.0)


def load_calibration_csv(path) -> CalibrationSet:
    """Read ground-truth pairs from a two-column CSV (s, d) with one header line."""
    s_vals: list[float] = []
    d_vals: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)  # header
        except StopIteration:
            raise CalibrationError(f"{path}: empty calibration file") from None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise CalibrationError(f"{path}:{lineno}: expected two columns")
            try:
                s, d = float(row[0]), float(row[1])
            except ValueError:
                raise CalibrationError(f"{path}:{lineno}: non-numeric value") from None
            if not (math.isfinite(s) and math.isfinite(d)):
                raise CalibrationError(f"{path}:{lineno}: non-finite value")
            s_vals.append(s)
            d_vals.append(d)
    return CalibrationSet(tuple(s_vals), tuple(d_vals))
