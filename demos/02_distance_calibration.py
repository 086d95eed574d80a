"""Camera distance calibration: image points -> metric distance.

Each roadside camera carries a reference line painted across the image
along the road edge.  A detection's bottom-center pixel is projected
onto that line, giving a scalar s in [0, s_max]; a low-order polynomial
fitted against surveyed ground-truth pairs (s, d) then turns s into a
metric distance from the camera.  The fit is the closed-form
least-squares solution of the normal equations.

This script fits a quadratic from noiseless synthetic survey marks,
checks the recovered coefficients, walks a pixel through the full
projection -> distance chain, and shows the guarded failure modes.

Run from anywhere:  python3 demos/02_distance_calibration.py
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from mergeguard import (CalibrationSet, InsufficientPoints, ReferenceLine,
                        SingularSystem, estimate_distance, fit,
                        load_calibration_csv, project_to_line)

# ground truth used for the synthetic survey: d(s) = 8 + 1.2 s + 0.05 s^2
W_TRUE = (8.0, 1.2, 0.05)


def survey(s: float) -> float:
    return W_TRUE[0] + W_TRUE[1] * s + W_TRUE[2] * s * s


def main() -> None:
    print("=== fit from noiseless survey marks ===")
    marks = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    calib = CalibrationSet(marks, tuple(survey(s) for s in marks))
    model = fit(calib, order=2)
    print(f"  true weights      {W_TRUE}")
    print(f"  recovered weights {tuple(round(w, 12) for w in model.weights)}")
    err = max(abs(w - t) for w, t in zip(model.weights, W_TRUE))
    print(f"  worst coefficient error {err:.3e}")

    print("\n=== pixel -> line arclength -> metres ===")
    # the reference line runs from the bottom of the frame toward the
    # horizon; distant objects project near its far end
    line = ReferenceLine(p0=(320.0, 700.0), p1=(326.0, 100.0))
    for pixel in ((321.0, 650.0), (330.0, 340.0), (340.0, 90.0)):
        s = project_to_line(pixel, line)
        # rescale image arclength (0..600 px) to the surveyed range 0..10
        d = estimate_distance(model, s * 10.0 / line.s_max)
        print(f"  pixel {pixel}  ->  s = {s:7.2f} px  ->  d = {d:6.2f} m")

    print("\n=== clamp at zero ===")
    # a decreasing fit goes negative past the calibrated range; the
    # estimate clamps to zero instead of reporting an impossible negative
    # distance
    falling = fit(CalibrationSet((0.0, 5.0, 10.0), (20.0, 11.0, 2.0)), order=1)
    for s in (8.0, 14.0):
        print(f"  s = {s:5.1f}  ->  polynomial {falling.raw(s):6.2f} m  ->  "
              f"d = {estimate_distance(falling, s):6.2f} m")

    print("\n=== survey file round trip ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "d"])
            for s in marks:
                writer.writerow([s, survey(s)])
        loaded = load_calibration_csv(path)
    refit = fit(loaded, order=2)
    print(f"  reloaded {len(loaded.s)} pairs from {path.name}")
    print(f"  refit weights match: {np.allclose(refit.weights, model.weights)}")

    print("\n=== guarded failure modes ===")
    try:
        fit(CalibrationSet((0.0, 1.0), (8.0, 9.25)), order=2)
    except InsufficientPoints as exc:
        print(f"  two points, order 2   -> InsufficientPoints: {exc}")
    try:
        fit(CalibrationSet((1e6, 1e6 + 1e-4, 1e6 + 2e-4),
                           (10.0, 10.0, 10.0)), order=2)
    except SingularSystem as exc:
        print(f"  clustered abscissae   -> SingularSystem: {exc}")


if __name__ == "__main__":
    main()
