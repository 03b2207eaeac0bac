"""Reduced-basis approximation and eigenvalue tracking for a 2D cavity
eigenproblem on parameter-dependent domains."""

from .assembly import AssembledSystem, assemble, discrete_gradient, matrix_derivatives
from .config import RunConfig, load_config, parse_config
from .eigensolve import (
    EigenSolution,
    b_orthonormalize,
    eigenvalue_clusters,
)
from .errors import (
    CavityError,
    ConfigError,
    GeometryError,
    NumericalError,
    RankDeficiencyError,
    SingularDerivativeError,
)
from .gauge import (
    GradientProjector,
    TreeCotree,
    build_tree_cotree,
    gram_schmidt_clean,
)
from .geometry import (
    MappingFamily,
    ReferenceMesh,
    affine_stretch,
    build_reference_mesh,
    identity_map,
    sine_bump,
)
from .greedy import GreedyConfig, estimate, greedy_extend
from .online import PencilInterpolant, pencil_interpolant
from .pod import (
    ReducedBasis,
    SnapshotSet,
    collect_snapshots,
    pod_basis,
    reduce_system,
)
from .problem import CavityProblem
from .tracking import (
    TrackingConfig,
    TrackingTrace,
    analytic_rectangle_table,
    classify_endpoint,
    eigen_derivatives,
    taylor_predict,
    track,
)

__version__ = "0.1.0"
