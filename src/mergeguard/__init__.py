"""Cooperative-perception merge moderation: V2X codec, infrastructure
vision, fusion, Zone-of-Danger decisions and a deterministic simulator."""

from .calibration import (CalibrationError, CalibrationModel, CalibrationSet,
                          InsufficientPoints, ReferenceLine, SingularSystem,
                          estimate_distance, fit, load_calibration_csv,
                          project_to_line)
from .channel import Channel, ChannelConfig
from .decision import (Action, DecisionState, Mode, ZodConfig, ZodCrossing,
                       predict_crossing, step)
from .fusion import FusedObject, FusionConfig, Source, fuse, joint_distance
from .kpi import KpiReport, compute, stop_lead_times
from .messages import (BadMagic, BadVersion, CamPayload, CodecError,
                       CpmPayload, DenmPayload, InvalidMessage,
                       InvariantViolation, Message, MsgType, ObjectClass,
                       PerceivedObject, SensorInfo, SensorType, StationType,
                       TruncatedPayload, UnknownType, decode_message,
                       encode_message, from_json_dict, to_json_dict)
from .moderator import (ActuationEvent, Moderator, ModeratorConfig, RobotPose)
from .perception import (CameraSetup, Detection, InsufficientSamples,
                         MotionClass, PerceptionConfig, PerceptionError,
                         PerceptionPipeline, StaleDetection, TrackWindow,
                         camera_speed_to_road, classify_motion,
                         estimate_velocity)
from .sim import (Entity, EventLog, ParseError, RunResult, Scenario,
                  ScenarioError, SensorModel, TrajectorySegment,
                  ValidationError, eval_trajectory, load_scenario,
                  log_from_jsonl, log_to_jsonl, make_pass_scenario, run,
                  scenario_from_dict, series, trajectory_summary)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
