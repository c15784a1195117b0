"""cpt: center-point detection toolkit.

Deterministic core of a center-point detection pipeline: dense target
encoding, training losses with verified analytic gradients, NMS-free
decoding of boxes / 3D attributes / poses, and annotation analyses.
"""

from .analysis import (
    AnchorReport,
    CollisionPair,
    CollisionReport,
    count_center_collisions,
    count_forced_assignments,
    count_iou_collisions,
)
from .dataset import CategoryInfo, Dataset, ImageInfo, load_dataset
from .decode import (
    Detection,
    Joint,
    decode_boxes,
    decode_depth,
    decode_orientation,
    to_input_space,
)
from .errors import CptError, InputError, InternalError
from .evaluate import EvalReport, MatchResult, average_precision, evaluate_detections, match_detections
from .geometry import AnchorConfig, anchor_grid, greedy_nms, iou_matrix, resize_shorter
from .grid import DenseGrid, Peak, extract_peaks, gaussian_radius, gaussian_sigma, render_gaussian
from .losses import (
    FocalParams,
    GradcheckReport,
    LossReport,
    LossWeights,
    depth_loss,
    dim_loss,
    focal_loss,
    gradcheck,
    gradcheck_all,
    joint_local_offset_loss,
    masked_l1,
    orientation_loss,
    total_loss,
)
from .targets import (
    EncoderConfig,
    ObjectAnnotation,
    TargetSet,
    encode_depth,
    encode_detection,
    encode_orientation,
    encode_pose,
    principal_angle,
)
from .tensorio import read_grid, write_grid

__version__ = "0.1.0"

__all__ = [
    "AnchorConfig",
    "AnchorReport",
    "CategoryInfo",
    "CollisionPair",
    "CollisionReport",
    "CptError",
    "Dataset",
    "DenseGrid",
    "Detection",
    "EncoderConfig",
    "EvalReport",
    "FocalParams",
    "GradcheckReport",
    "ImageInfo",
    "InputError",
    "InternalError",
    "Joint",
    "LossReport",
    "LossWeights",
    "MatchResult",
    "ObjectAnnotation",
    "Peak",
    "TargetSet",
    "anchor_grid",
    "average_precision",
    "count_center_collisions",
    "count_forced_assignments",
    "count_iou_collisions",
    "decode_boxes",
    "decode_depth",
    "decode_orientation",
    "depth_loss",
    "dim_loss",
    "encode_depth",
    "encode_detection",
    "encode_orientation",
    "encode_pose",
    "evaluate_detections",
    "extract_peaks",
    "focal_loss",
    "gaussian_radius",
    "gaussian_sigma",
    "gradcheck",
    "gradcheck_all",
    "greedy_nms",
    "iou_matrix",
    "joint_local_offset_loss",
    "load_dataset",
    "masked_l1",
    "match_detections",
    "orientation_loss",
    "principal_angle",
    "read_grid",
    "render_gaussian",
    "resize_shorter",
    "to_input_space",
    "total_loss",
    "write_grid",
]
