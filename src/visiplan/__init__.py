"""Visibility-aware position/yaw trajectory planning and tracking simulation."""

from .costs import (CostReport, CostWeights, DynamicLimits, TargetTrack,
                    VisibilityParams, cost_ao, cost_collision, cost_do,
                    cost_feasibility, cost_oe, cost_safe_tracking,
                    cost_smoothness, cost_yaw_feasibility, cost_yaw_smoothness,
                    penalty, penalty_derivative, total_cost)
from .env import ESDFField, FieldError, OccupancyGrid, build_esdf
from .optimizer import (NumericError, OptimizeResult, OptimizerConfig,
                        Termination, optimize)
from .predict import PredictionModel, fit, predict_track
from .search import (InvalidStart, SearchConfig, SearchExhausted,
                     raycast_occluded)
from .sim import (Planner, RunReport, Scenario, generate_random_forest,
                  load_scenario, run, write_outputs)
from .spline import (RobotState, TrajectoryBSpline, initialize_from_path,
                     wrap_angle)

__version__ = "0.1.0"
