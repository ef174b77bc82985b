"""Exact-arithmetic toolkit for ternary inclusion-exclusion polynomials:
coefficient engines, height statistics, identity and bound verification,
and resumable parameter searches."""

from ._version import __version__
from .checks import (
    KNOWN_FLAT,
    KNOWN_HEIGHTS,
    bounded_height_sup,
    survey_residue_classes,
    verify_absolute_bound,
    verify_coeffset_residue,
    verify_height_residue,
    verify_iterated_bound,
    verify_known_values,
    verify_recursive_bound,
)
from .engine import (
    CoefficientVector,
    coefficient_at,
    coeffs_series,
    coeffs_window,
    degree,
)
from .errors import (
    DegreeCapExceeded,
    DomainExceeded,
    IEPolyError,
    InvalidParameters,
    InvalidTriple,
    InvariantViolated,
    NotConsecutive,
    NotInvertible,
    PersistenceError,
    PreconditionViolated,
    UnknownCheck,
)
from .height import HeightRecord, coefficient_set, height, is_flat
from .identities import IDENTITY_CHECKS, verify_identity, verify_identity_bundle
from .report import VerificationReport
from .represent import (
    Representation,
    Triple,
    decompose,
    indicator_many,
    indicator_range,
    is_representable,
    is_representable_via_threshold,
    semigroup_representative,
    window_count,
)
from .search import (
    SearchTask,
    enumerate_coprime_triples,
    find_bound_attained_pairs,
    find_sharp_step_pairs,
    read_results,
    sweep_heights,
)

