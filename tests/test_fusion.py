"""Fusion: V2X priority with epsilon-gated camera admission."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeguard.fusion import (FusedObject, FusionConfig, Source, fuse,
                               joint_distance)
from reference_engine import all_pairs


def v2x(ref_id, x, v, t=0.0):
    return FusedObject(Source.V2X, ref_id, x, v, 1, t)


def cam(ref_id, x, v, t=0.0):
    return FusedObject(Source.CAMERA, ref_id, x, v, 1, t)


class TestReferenceCase:
    def test_nearby_camera_object_is_suppressed(self):
        # v2x at (50, -9); camera tracks at (49, -8.5) and (120, -8):
        # the first camera object is within epsilon of the v2x one and is
        # dropped, the second survives
        fused = fuse([v2x(7, 50.0, -9.0)],
                     [cam(1, 49.0, -8.5), cam(2, 120.0, -8.0)])
        assert [(o.source, o.ref_id) for o in fused] == [
            (Source.V2X, 7), (Source.CAMERA, 2)]

    def test_joint_distance_values(self):
        a, b = v2x(7, 50.0, -9.0), cam(1, 49.0, -8.5)
        assert joint_distance(a, b) == pytest.approx(math.hypot(1.0, 0.5))

    def test_boundary_distance_keeps_camera(self):
        # exactly epsilon apart: kept (the gate is "strictly closer than")
        fused = fuse([v2x(7, 0.0, 0.0)], [cam(1, 5.0, 0.0)],
                     FusionConfig(epsilon=5.0))
        assert len(fused) == 2

    def test_just_inside_epsilon_drops_camera(self):
        fused = fuse([v2x(7, 0.0, 0.0)], [cam(1, 4.999999, 0.0)],
                     FusionConfig(epsilon=5.0))
        assert len(fused) == 1


class TestOrdering:
    def test_v2x_first_then_camera_each_by_id(self):
        fused = fuse([v2x(9, 200.0, 0.0), v2x(2, -200.0, 0.0)],
                     [cam(5, 100.0, 0.0), cam(1, -100.0, 0.0)])
        assert [(o.source, o.ref_id) for o in fused] == [
            (Source.V2X, 2), (Source.V2X, 9),
            (Source.CAMERA, 1), (Source.CAMERA, 5)]


class TestEdges:
    def test_no_v2x_keeps_all_camera(self):
        fused = fuse([], [cam(1, 0.0, 0.0), cam(2, 1.0, 0.0)])
        assert len(fused) == 2  # the min over an empty set is vacuous

    def test_no_camera_keeps_all_v2x(self):
        fused = fuse([v2x(1, 0.0, 0.0)], [])
        assert len(fused) == 1

    def test_epsilon_zero_keeps_exact_duplicates_apart_only(self):
        cfg = FusionConfig(epsilon=0.0)
        fused = fuse([v2x(1, 0.0, 0.0)], [cam(1, 0.0, 0.0)], cfg)
        assert len(fused) == 2  # distance 0 >= epsilon 0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(epsilon=-1.0)


objects = st.builds(
    FusedObject,
    source=st.just(Source.CAMERA),
    ref_id=st.integers(0, 1000),
    road_x_m=st.floats(-500, 500),
    speed_mps=st.floats(-40, 40),
    object_class=st.just(1),
    last_update_s=st.just(0.0))

v2x_objects = objects.map(
    lambda o: FusedObject(Source.V2X, o.ref_id, o.road_x_m, o.speed_mps,
                          o.object_class, o.last_update_s))


class TestProperties:
    @given(st.lists(v2x_objects, max_size=6, unique_by=lambda o: o.ref_id),
           st.lists(objects, max_size=6, unique_by=lambda o: o.ref_id))
    def test_every_v2x_object_survives(self, vs, cs):
        fused = fuse(vs, cs)
        assert {(o.source, o.ref_id) for o in fused if o.source is Source.V2X} \
            == {(Source.V2X, o.ref_id) for o in vs}

    @given(st.lists(v2x_objects, max_size=6, unique_by=lambda o: o.ref_id),
           st.lists(objects, max_size=6, unique_by=lambda o: o.ref_id))
    def test_kept_camera_objects_clear_every_v2x(self, vs, cs):
        cfg = FusionConfig(epsilon=5.0)
        fused = fuse(vs, cs, cfg)
        for o in fused:
            if o.source is Source.CAMERA:
                assert all(joint_distance(o, v) >= cfg.epsilon for v in vs)

    @given(st.lists(v2x_objects, max_size=6, unique_by=lambda o: o.ref_id),
           st.lists(objects, max_size=6, unique_by=lambda o: o.ref_id))
    def test_dropped_camera_objects_had_a_reason(self, vs, cs):
        cfg = FusionConfig(epsilon=5.0)
        fused = fuse(vs, cs, cfg)
        kept = {(o.source, o.ref_id) for o in fused}
        for c in cs:
            if (Source.CAMERA, c.ref_id) not in kept:
                assert any(joint_distance(c, v) < cfg.epsilon for v in vs)

    @given(st.lists(v2x_objects, max_size=6, unique_by=lambda o: o.ref_id),
           st.lists(objects, max_size=6, unique_by=lambda o: o.ref_id))
    def test_idempotent_and_deterministic(self, vs, cs):
        assert fuse(vs, cs) == fuse(vs, cs)
        assert fuse(list(reversed(vs)), list(reversed(cs))) == fuse(vs, cs)


class TestWindowBoundary:
    """The x-window leaves out only V2X objects that the rule would pass."""

    @pytest.mark.parametrize("epsilon", [0.0, 5.0])
    @pytest.mark.parametrize("dv", [0.0, 3.0])
    @pytest.mark.parametrize("x_v", [50.0, -0.1, 1e17])
    def test_camera_objects_around_each_edge(self, epsilon, dv, x_v):
        xs = []
        for edge in (x_v - 2 * epsilon, x_v - epsilon, x_v + epsilon, x_v + 2 * epsilon):
            xs += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        vs = [v2x(1, x_v, 0.0), v2x(2, x_v + 3 * epsilon, -dv)]
        cs = [cam(j, x, dv) for j, x in enumerate(xs)]
        cfg = FusionConfig(epsilon=epsilon)
        assert fuse(vs, cs, cfg) == all_pairs(vs, cs, epsilon)

    @given(st.lists(st.tuples(st.booleans(), st.integers(-12, 12), st.integers(-3, 3)),
                    max_size=40),
           st.sampled_from([0.0, 2.5, 5.0]))
    def test_matches_all_pairs_on_a_coarse_grid(self, rows, epsilon):
        # a 2.5 m and 2.5 m/s grid: ties, gaps of exactly epsilon and of
        # exactly 2 * epsilon all occur
        vs = [v2x(j, 2.5 * x, 2.5 * v) for j, (is_v2x, x, v) in enumerate(rows) if is_v2x]
        cs = [cam(j, 2.5 * x, 2.5 * v) for j, (is_v2x, x, v) in enumerate(rows) if not is_v2x]
        assert fuse(vs, cs, FusionConfig(epsilon=epsilon)) == all_pairs(vs, cs, epsilon)
