"""Unscented Kalman filtering on Lie groups and other retractable state spaces.

The imports below are the public surface: every public name they bind is
exported.  The command line lives in manifold_ukf.cli, loaded on its own.
"""

from . import errors, lie_groups, models, montecarlo, retraction, sigma_core
from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    FilterStepError,
    InvalidAlpha,
    MalformedEmbedding,
    ManifoldUkfError,
    NearPiRotation,
    NonFiniteState,
    NonPSDCovariance,
    NotARotation,
    SingularCovariance,
    SingularInnovationCovariance,
)
from .models import LandmarkSet, ModelSpec, augment_landmark, example_names, make
from .montecarlo import benchmark, nees, run_record, simulate
from .retraction import (
    Retraction,
    additive_retraction,
    check_retraction,
    componentwise_so3_r6,
    covariance_retrieval,
    group_retraction,
    mixed_retraction,
    mixed_state,
)
from .sigma_core import Belief, filter_run, propagate, set_weights, sigma_points, update

__version__ = "0.1.0"

__all__ = sorted(name for name in dir() if not name.startswith("_"))
