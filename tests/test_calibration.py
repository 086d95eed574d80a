"""Distance calibration: least-squares fit, inverse, projection, CSV loading."""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeguard.calibration import (CalibrationError, CalibrationModel,
                                    CalibrationSet, InsufficientPoints,
                                    ReferenceLine, SingularSystem,
                                    estimate_distance, fit,
                                    load_calibration_csv, project_to_line)


class TestFit:
    def test_three_point_linear_fit_exact(self):
        # normal equations by hand: Phi^T Phi = [[3,3],[3,5]], Phi^T d = [8,12]
        # => w = (2/3, 2)
        calib = CalibrationSet((0.0, 1.0, 2.0), (1.0, 2.0, 5.0))
        model = fit(calib, order=1)
        assert abs(model.weights[0] - 2.0 / 3.0) < 1e-12
        assert abs(model.weights[1] - 2.0) < 1e-12

    def test_recovers_known_polynomial(self):
        # the closed-form normal equations square the design conditioning,
        # so exact recovery is claimed for well-spread point sets: pairwise
        # gaps >= 0.5 and span >= 6 keep the Gram matrix comfortably inside
        # the solver's condition limit even for cubics
        rng = np.random.default_rng(11)
        done = 0
        while done < 300:
            order = int(rng.integers(1, 4))
            n = order + 1 + int(rng.integers(2, 6))
            s = np.sort(rng.uniform(0.0, 10.0, size=n))
            if np.min(np.diff(s)) < 0.5 or s[-1] - s[0] < 6.0:
                continue
            w_true = rng.uniform(-3.0, 3.0, size=order + 1)
            w_true[0] = abs(w_true[0]) + 1.0  # keep d positive near 0
            d = np.polyval(w_true[::-1], s)
            if np.any(d <= 0):
                continue
            model = fit(CalibrationSet(tuple(s), tuple(d)), order=order)
            assert np.max(np.abs(np.array(model.weights) - w_true)) < 1e-9
            done += 1

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(4, 12))
            s = np.sort(rng.uniform(0.0, 100.0, size=n))
            if len(set(s.tolist())) != n:
                continue
            d = rng.uniform(0.5, 120.0, size=n)
            model = fit(CalibrationSet(tuple(s), tuple(d)), order=2)
            phi = np.vander(s, 3, increasing=True)
            r = d - phi @ np.array(model.weights)
            assert np.linalg.norm(phi.T @ r) <= 1e-8 * np.linalg.norm(d)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit(CalibrationSet((0.0, 1.0), (1.0, 2.0)), order=2)

    def test_singular_system(self):
        # nearly repeated abscissae at large magnitude push the Gram matrix
        # past the condition limit
        calib = CalibrationSet((1e6, 1e6 + 1e-4, 1e6 + 2e-4), (10.0, 10.0, 10.0))
        with pytest.raises(SingularSystem):
            fit(calib, order=2)

    @pytest.mark.parametrize("s,d", [
        ((0.0, 10.0, 20.0, 30.0), (2.0, 3.0, 1e308, 5.0)),  # finite Gram, weights overflow
        ((0.0, 10.0, 1e300, 30.0), (2.0, 3.0, 4.0, 5.0)),   # the Gram matrix overflows
    ], ids=["weights", "gram"])
    def test_overflow_is_singular_without_warnings(self, s, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="overflow"):
                fit(CalibrationSet(s, d), order=2)

    def test_default_order_is_two(self):
        calib = CalibrationSet((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 5.0, 10.0))
        assert fit(calib).order == 2


class TestCalibrationSet:
    def test_rejects_length_mismatch(self):
        with pytest.raises(CalibrationError):
            CalibrationSet((0.0, 1.0), (1.0,))

    def test_rejects_duplicate_pixels(self):
        with pytest.raises(CalibrationError):
            CalibrationSet((1.0, 1.0), (1.0, 2.0))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(CalibrationError):
            CalibrationSet((0.0, 1.0), (1.0, 0.0))

    def test_rejects_empty(self):
        with pytest.raises(CalibrationError):
            CalibrationSet((), ())


class TestProjection:
    line = ReferenceLine((0.0, 0.0), (10.0, 0.0))

    def test_interior_point(self):
        assert project_to_line((4.0, 3.0), self.line) == pytest.approx(4.0)

    def test_clamps_before_start(self):
        assert project_to_line((-5.0, 1.0), self.line) == 0.0

    def test_clamps_past_end(self):
        assert project_to_line((15.0, -2.0), self.line) == self.line.s_max

    def test_diagonal_line(self):
        line = ReferenceLine((0.0, 0.0), (3.0, 4.0))
        assert line.s_max == pytest.approx(5.0)
        assert project_to_line((3.0, 4.0), line) == pytest.approx(5.0)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(CalibrationError):
            ReferenceLine((1.0, 1.0), (1.0, 1.0))


class TestEstimate:
    model = CalibrationModel(1, (5.0, 0.5))

    def test_plain_estimate(self):
        est = estimate_distance(self.model, 10.0)
        assert type(est) is float
        assert est == pytest.approx(10.0)

    def test_negative_estimate_clamps(self):
        falling = CalibrationModel(1, (-5.0, 1.0))
        assert estimate_distance(falling, 2.0) == 0.0

    def test_horner_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = tuple(rng.uniform(-2, 2, size=3))
            model = CalibrationModel(2, w)
            s = float(rng.uniform(0, 800))
            assert model.raw(s) == pytest.approx(
                float(np.polyval(w[::-1], s)), rel=1e-12, abs=1e-9)


# make_pass_scenario's camera and the benchmark's
PASS_MODEL = CalibrationModel(2, (5.0, 0.1, 0.0001))
PASS_S_MAX = ReferenceLine((60.0, 420.0), (820.0, 80.0)).s_max


def bisect_inverse(model, d, s_max):
    """The 60-step bisection the sensor model inverted calibrations with."""
    lo, hi = 0.0, s_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if model.raw(mid) < d:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _shipped_cameras():
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "rotterdam_run.json"
    for cam in json.loads(path.read_text())["infra"]["cameras"]:
        cal, line = cam["calibration"], cam["line"]
        yield (CalibrationModel(cal["order"], tuple(cal["weights"])),
               ReferenceLine(tuple(line["p0"]), tuple(line["p1"])).s_max)


@st.composite
def increasing_models(draw):
    """Order-1 and order-2 models with slope >= w1/2 >= 0.005 m/px over [0, s_max]."""
    s_max = draw(st.floats(10.0, 2000.0))
    w0 = draw(st.floats(0.0, 50.0))
    w1 = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        return CalibrationModel(1, (w0, w1)), s_max
    w2 = draw(st.floats(-w1 / (4.0 * s_max), 1e-4))
    return CalibrationModel(2, (w0, w1, w2)), s_max


def count_raw(monkeypatch):
    calls = [0]
    raw = CalibrationModel.raw

    def counted(model, s):
        calls[0] += 1
        return raw(model, s)

    monkeypatch.setattr(CalibrationModel, "raw", counted)
    return calls


class TestInverse:
    @staticmethod
    def assert_agrees(model, s_max, fractions):
        lo, hi = model.raw(0.0), model.raw(s_max)
        for f in fractions:
            d = min(lo + f * (hi - lo), hi)
            s = model.inverse(d, s_max)
            assert 0.0 <= s <= s_max
            assert abs(s - bisect_inverse(model, d, s_max)) <= 1e-9, (model, s_max, d)

    def test_shipped_cameras(self):
        cams = list(_shipped_cameras())
        assert len(cams) == 2
        for model, s_max in cams:
            self.assert_agrees(model, s_max, np.linspace(0.0, 1.0, 2001).tolist())

    def test_pass_scenario_model(self):
        self.assert_agrees(PASS_MODEL, PASS_S_MAX, np.linspace(0.0, 1.0, 2001).tolist())

    @given(increasing_models(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_increasing_low_order_models(self, model_and_line, fractions):
        self.assert_agrees(*model_and_line, [0.0, 1.0, *fractions])

    def test_nearly_linear_model(self):
        # 4ac << b^2: the textbook formula would cancel away most digits
        model = CalibrationModel(2, (5.0, 0.1, 1e-12))
        self.assert_agrees(model, PASS_S_MAX, np.linspace(0.0, 1.0, 201).tolist())

    def test_closed_form_calls_no_polynomial(self, monkeypatch):
        calls = count_raw(monkeypatch)
        for model in (PASS_MODEL, CalibrationModel(1, (5.0, 0.1))):
            model.inverse(40.0, PASS_S_MAX)
        assert calls == [0]

    def test_order_three_bisects(self, monkeypatch):
        model = CalibrationModel(3, (*PASS_MODEL.weights, 1e-8))
        self.assert_agrees(model, PASS_S_MAX, np.linspace(0.0, 1.0, 201).tolist())
        calls = count_raw(monkeypatch)
        model.inverse(40.0, PASS_S_MAX)
        assert calls == [60]

    def test_no_root_in_range_bisects(self):
        beyond = PASS_MODEL.raw(PASS_S_MAX) + 1.0
        assert PASS_MODEL.inverse(beyond, PASS_S_MAX) == bisect_inverse(PASS_MODEL, beyond,
                                                                        PASS_S_MAX)


class TestCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("s_px,d_m\n0.0,1.0\n1.0,2.0\n2.0,5.0\n")
        calib = load_calibration_csv(path)
        assert calib.s == (0.0, 1.0, 2.0)
        assert calib.d == (1.0, 2.0, 5.0)
        model = fit(calib, order=1)
        assert model.weights == pytest.approx((2.0 / 3.0, 2.0))

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("s_px,d_m\n0.0,1.0\n1.0\n")
        with pytest.raises(CalibrationError) as err:
            load_calibration_csv(path)
        assert "3" in str(err.value)  # offending line number

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("s_px,d_m\n0.0,abc\n")
        with pytest.raises(CalibrationError):
            load_calibration_csv(path)

    @pytest.mark.parametrize("row", ["20,nan", "inf,3.0", "1.0,-inf", "NaN,1"])
    def test_non_finite_cell_names_line(self, tmp_path, row):
        path = tmp_path / "cal.csv"
        path.write_text(f"s_px,d_m\n0.0,1.0\n{row}\n")
        with pytest.raises(CalibrationError, match=r"cal\.csv:3: non-finite value"):
            load_calibration_csv(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_calibration_csv(tmp_path / "nope.csv")
