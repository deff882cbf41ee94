"""Track a synthetic street scene and watch identities persist.

Builds a small scene of six road users moving at constant speed, one of
them hidden for three frames mid-run, feeds the detector output through
the tracker, and prints how many identities each agent consumed.
"""

from trafficstate import (
    AgentSpec,
    CalibrationParams,
    DetectionBatch,
    LineOfInterest,
    ScenarioSpec,
    Tracker,
    TrackerConfig,
    generate,
)

calib = CalibrationParams(phi=2.0, omega=2.0, delta_deg=90.0)

agents = [
    AgentSpec(class_id=i % 3, x0_m=-40.0, y0_m=12.0 * i, vx_mps=8.0 + i, vy_mps=0.0)
    for i in range(6)
]

spec = ScenarioSpec(
    agents=agents,
    duration_s=8.0,
    fps=25.0,
    calibration=calib,
    noise_std_px=0.5,            # half a pixel of detector jitter
    occlusions=[(2, 60, 62)],    # agent 2 vanishes for frames 60..62
    embedding_dim=16,
    embedding_noise_std=0.05,
    seed=42,
)

loi = LineOfInterest(a=(0.0, -10.0), b=(0.0, 80.0))
batches, truth = generate(spec, loi, interval_s=4.0)

tracker = Tracker(TrackerConfig())
# one LiveTracks record per frame: the live tracks' ids, confirmed flags,
# classes and boxes as arrays, in id order; synth gives each frame's
# detections as a list, which the tracker takes stacked into arrays
frames = [tracker.step(frame, DetectionBatch.stack(frame, detections))
          for frame, detections in batches]

print(f"frames processed : {len(frames)}")
print(f"track rows       : {sum(len(live.ids) for live in frames)}")
ids = sorted({tid for live in frames for tid in live.ids.tolist()})
print(f"identities used  : {ids}")

# Identity stability: with a 3-frame gap (the survivable maximum) the
# occluded agent keeps its id, so six agents need exactly six ids.
assert len(ids) == len(agents)

last = frames[-1]
print(f"\nlast frame ({last.frame}), live tracks:")
for tid, class_id, confirmed, (x, y, w, h) in zip(
        last.ids.tolist(), last.class_ids.tolist(), last.confirmed.tolist(),
        last.boxes.tolist()):
    status = "confirmed" if confirmed else "tentative"
    print(f"  id {tid}  class {class_id}  "
          f"center ({x + w / 2.0:7.1f}, {y + h / 2.0:7.1f}) px  status {status}")
