"""Count line crossings and measure classified flow and speed.

Runs the full chain: synthetic detections -> tracker -> world
trajectories -> Line-of-Interest counting -> per-interval flow (veh/h)
and mean speed (km/h), then compares against the scenario's closed-form
ground truth.
"""

import io

from trafficstate import (
    AgentSpec,
    CalibrationParams,
    DetectionBatch,
    LineOfInterest,
    ScenarioSpec,
    Tracker,
    assemble_trajectories,
    generate,
    measure_intervals,
)
from trafficstate.traffic import write_intervals

calib = CalibrationParams(phi=2.0, omega=2.0, delta_deg=90.0)

# Three vehicle classes crossing a virtual line at different speeds.
agents = []
for i in range(9):
    agents.append(AgentSpec(
        class_id=i % 3,
        x0_m=-30.0 - 6.0 * i,
        y0_m=8.0 * i,
        vx_mps=9.0 + (i % 3) * 2.0,
        vy_mps=0.0,
    ))

spec = ScenarioSpec(agents=agents, duration_s=20.0, fps=25.0,
                    calibration=calib, seed=7)
loi = LineOfInterest(a=(0.0, -10.0), b=(0.0, 90.0))
interval_s = 5.0

batches, truth = generate(spec, loi, interval_s)

tracker = Tracker()
frames = [tracker.step(frame, DetectionBatch.stack(frame, dets)) for frame, dets in batches]

trajectories = assemble_trajectories(frames, calib)
measurements = measure_intervals(trajectories, loi, interval_s, spec.fps,
                                 spec.duration_s)

buf = io.StringIO()
write_intervals(buf, measurements)
print("measured intervals:")
print(buf.getvalue())

buf = io.StringIO()
write_intervals(buf, truth.to_measurements())
print("ground truth:")
print(buf.getvalue())

measured_total = sum(c for m in measurements for c in m.counts.values())
true_total = sum(c for by in truth.counts.values() for c in by.values())
print(f"total crossings: measured {measured_total}, true {true_total}")
assert measured_total == true_total
