"""From raw camera detections to a collective-perception message.

An infrastructure station watches both approach arms of a junction with
one camera each.  Detections arrive as image points; the pipeline
projects them onto the camera's reference line, converts to metric
distance, keeps a three-sample sliding window per track, and estimates
speed as the mean of the two segment slopes.  assemble_cpm then packs
every live track into one CPM in the shared road frame (robot at x=0).

For clarity this demo uses an identity calibration (the reference line
is laid out in metres, d = s), so the geometry is easy to follow:
camera 0 sits at road x = -24 looking down the left arm, and a track at
distance d is at road x = -24 - d.

Run from anywhere:  python3 demos/03_tracks_to_cpm.py
"""

from mergeguard import (CalibrationModel, CameraSetup, Detection,
                        InsufficientSamples, MotionClass, PerceptionConfig,
                        PerceptionPipeline, ReferenceLine, StaleDetection,
                        camera_speed_to_road, classify_motion,
                        estimate_velocity, to_json_dict)

IDENTITY = CalibrationModel(order=1, weights=(0.0, 1.0))
LINE = ReferenceLine(p0=(0.0, 0.0), p1=(150.0, 0.0))


def main() -> None:
    cameras = [
        CameraSetup(camera_id=0, line=LINE, calibration=IDENTITY,
                    road_position_m=-24.0, direction_sign=-1),
        CameraSetup(camera_id=1, line=LINE, calibration=IDENTITY,
                    road_position_m=24.0, direction_sign=1),
    ]
    pipeline = PerceptionPipeline(station_id=10, cameras=cameras,
                                  config=PerceptionConfig())

    print("=== an approaching vehicle, sampled every 0.2 s ===")
    # true road position -120 + 10 t; distance from camera 0 is -24 - x
    window = None
    for k in range(3):
        t = 0.2 * k
        d = -24.0 - (-120.0 + 10.0 * t)
        window = pipeline.ingest(Detection(camera_id=0, track_id=3,
                                           bottom_center=(d, 0.0),
                                           object_class=1, time_s=t))
        print(f"  t = {t:.1f} s  distance = {d:5.1f} m  "
              f"window has {len(window.times)} sample(s)")
        if len(window.times) < 3:
            try:
                estimate_velocity(window)
            except InsufficientSamples as exc:
                print(f"           speed not yet defined: {exc}")
    v_bar = estimate_velocity(window)
    motion = classify_motion(v_bar, PerceptionConfig())
    print(f"  two-slope speed v_bar = {v_bar:+.2f} m/s  ->  {motion.value}")
    assert motion is MotionClass.APPROACHING

    print("\n=== a parked car on the right arm ===")
    for k in range(3):
        window = pipeline.ingest(Detection(camera_id=1, track_id=8,
                                           bottom_center=(36.0, 0.0),
                                           object_class=1, time_s=0.2 * k))
    v_bar = estimate_velocity(window)
    motion = classify_motion(v_bar, PerceptionConfig())
    print(f"  constant 36.0 m from camera 1: v_bar = {v_bar:+.2f} m/s"
          f"  ->  {motion.value}")
    assert motion is MotionClass.STATIONARY

    print("\n=== the station's CPM at t = 0.4 s ===")
    msg = pipeline.assemble_cpm(now_s=0.4)
    body = to_json_dict(msg)
    print(f"  station {body['station_id']}, {len(body['payload']['objects'])}"
          f" perceived objects:")
    for obj in body["payload"]["objects"]:
        road_x = obj["pos_x_cm"] / 100.0
        cam_v = obj["speed_cms"] / 100.0
        road_v = camera_speed_to_road(road_x, cam_v)
        print(f"    id {obj['object_id']:>5}  road x = {road_x:+7.1f} m  "
              f"camera speed = {cam_v:+5.1f} m/s  "
              f"road velocity = {road_v:+5.1f} m/s  "
              f"age = {obj['meas_delta_ms']} ms")
    print("  (CPM speeds keep the camera sign convention, negative =")
    print("   approaching; the receiver restores the road-axis sign from")
    print("   the object's position, so -10 on the left arm becomes +10)")

    print("\n=== timestamp discipline ===")
    try:
        pipeline.ingest(Detection(camera_id=0, track_id=3,
                                  bottom_center=(90.0, 0.0),
                                  object_class=1, time_s=0.1))
    except StaleDetection as exc:
        print(f"  regressed timestamp -> StaleDetection: {exc}")


if __name__ == "__main__":
    main()
