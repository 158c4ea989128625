"""Hyperbolic point-cloud toolkit.

Poincare-ball geometry, Euclidean and hyperbolic Chamfer distances,
part-whole hierarchy losses with analytic gradients, Gromov
delta-hyperbolicity estimation, reconstruction metrics, a synthetic
part-whole dataset, and a desk-scale embedding trainer.
"""

from .chamfer import NNIndex, chamfer_distance, hyper_chamfer
from .cloud import CloudParseError, PointCloud, read_cloud, read_ply, read_xyz, write_xyz
from .hyperbolicity import (
    DeltaReport,
    DistanceMatrix,
    four_point_delta,
    gromov_delta,
    pairwise_distances,
    sampled_delta,
    sampled_delta_matrix,
)
from .losses import (
    GradientBundle,
    LossBatch,
    LossReport,
    MarginHead,
    PairExample,
    TripletExample,
    grad_check,
    gradient_check_cases,
    loss_gradients,
)
from .metrics import MetricsReport, evaluate
from .poincare import (
    BallPoint,
    Curvature,
    NumericalDomainError,
    TangentVector,
    clip_to_ball,
    geodesic_distance,
    geodesic_distance_matrix,
    hyperbolic_norm,
    hyperbolic_norms,
    log_map_origin,
    mobius_add,
)
from .synthdata import (
    HierarchyManifest,
    SampleRecord,
    generate_dataset,
    load_manifest,
    sample_primitive,
    save_manifest,
)
from .train import (
    DivergenceError,
    EmbeddingState,
    TrainConfig,
    evaluate_hierarchy,
    export_disk,
    init_state,
    train,
)

__version__ = "0.1.0"
