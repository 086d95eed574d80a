"""DENM repetition, relaying and duplicate suppression.

A roadside unit (RSU) 134.3 m from the robot announces roadworks with
periodic DENMs, each sent twice (repeat_count 2).  A vehicle starts
85.7 m up the approach arm — roughly 220 m from the RSU, outside radio
range — so at first it can only learn about the roadworks through the
robot, which relays every fresh DENM with the hop count raised by one.

Ten seconds in, the vehicle accelerates toward the junction and crosses
into direct RSU range (|x - 134.3| <= 150) at t = 19 s.  From then on
each notification reaches it twice: direct at hop 0, relayed at hop 1.
The (origin, sequence) dedup marks the second arrival as a duplicate,
leaving exactly one logical event per notification.

Run from anywhere:  python3 demos/06_denm_repeater.py
"""

import pathlib
from collections import Counter, defaultdict

from mergeguard import compute, eval_trajectory, load_scenario, run

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "denm_repeater.json"


def main() -> None:
    scenario = load_scenario(SCENARIO)
    rsu = scenario.rsu
    rsu_x = rsu.position[0]
    print(f"scenario '{scenario.name}': RSU at x = {rsu_x} m, "
          f"DENM period {rsu.denm.period_s} s, "
          f"{rsu.denm.repeat_count} copies per notification")

    for t in (0.0, 19.0, 30.0):
        x, v = eval_trajectory(scenario.entities[0].trajectory, t)
        gap = abs(x - rsu_x)
        reach = "inside" if gap <= scenario.channel.comm_range_m else "outside"
        print(f"  t = {t:4.1f}  vehicle at x = {x:+7.1f} m, "
              f"{gap:5.1f} m from the RSU ({reach} direct range)")

    result = run(scenario)
    rx = [e for e in result.log.of_type("msg_rx")
          if e["actor"] == "veh0" and e["msg_type"] == "DENM"]
    print(f"\nvehicle received {len(rx)} DENM frames in "
          f"{scenario.duration_s:.0f} s")

    first = rx[0]
    print(f"  first at t = {first['t']:.4f} s, hop {first['hop_count']} — "
          f"a relay through the robot, while still out of RSU range")

    early = Counter(e["hop_count"] for e in rx if e["t"] < 19.0)
    late = Counter(e["hop_count"] for e in rx if e["t"] >= 19.5)
    print(f"  hop counts before t = 19 : {dict(early)}  (relays only)")
    print(f"  hop counts after  t = 19.5: {dict(late)}  (direct + relay)")

    by_key = defaultdict(list)
    for e in rx:
        by_key[(e["origin"], e["sequence"])].append(e)
    late_keys = [k for k, evs in by_key.items()
                 if min(ev["t"] for ev in evs) >= 19.5]
    both = sum(1 for k in late_keys
               if {ev["hop_count"] for ev in by_key[k]} == {0, 1})
    print(f"  notifications first heard after 19.5 s: {len(late_keys)}, "
          f"of which {both} arrived both direct and relayed")

    logical = [k for k, evs in by_key.items()
               if sum(1 for ev in evs if not ev["duplicate"]) == 1]
    print(f"  dedup: {len(logical)}/{len(by_key)} notifications kept exactly"
          f" one non-duplicate copy")

    relays = result.log.of_type("denm_relay")
    print(f"\nrobot relayed {len(relays)} distinct notifications "
          f"({len({e['sequence'] for e in relays})} distinct sequences)")

    report = compute(result.log.events, end_time_s=scenario.duration_s)
    print(f"measured RSU inter-packet gap at the robot: "
          f"{report.rsu_ipg_s:.4f} s (configured period {rsu.denm.period_s} s)")


if __name__ == "__main__":
    main()
