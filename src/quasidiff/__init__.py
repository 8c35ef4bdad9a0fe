"""Fourth-order neutral difference equations with quasidifferences.

Simulation (forward and inverse recursion), finite-horizon classification of
trajectories, and machine-checkable certificates for the nonexistence of
alternating solutions and for companion-sequence bounds.
"""

from .analysis import (
    BoundCertificate,
    CheckStatus,
    ComponentSummary,
    ConditionEntry,
    ConditionReport,
    ContradictionCertificate,
    QuickParity,
    SeriesProbe,
    SeriesStatus,
    SignCase,
    SignProfileReport,
    Verdict,
    VerdictKind,
    certificate_refusal,
    check_almost_oscillation,
    check_quick_exclusion,
    check_series_divergence,
    classify,
    companion_bound_certificate,
    component_sign_profile,
    decide_certificate,
    sign_conflict_certificate,
)
from .document import build_equation, build_sequence, parse_equation_document
from .errors import (
    DocumentError,
    HypothesisViolation,
    NumericRangeError,
    PivotError,
    QuasidiffError,
    SequenceDomainError,
    WindowIndexError,
)
from .examples import (
    EXAMPLE_NAMES,
    example_closed_form,
    example_document,
    example_equation,
    example_summary,
)
from .model import (
    Affine,
    Combine,
    Constant,
    EquationSpec,
    Geometric,
    Nonlinearity,
    OddPowerMap,
    PowerLaw,
    SequenceSpec,
    SignedPower,
    SignumMap,
    Table,
    chain_windows,
    max_relative_residual,
    relative_residual,
    residual_range,
)
from .numerics import OddRatio, spow
from .solver import (
    Provenance,
    Trajectory,
    forward_seed_span,
    inverse_seed_span,
    sample_trajectory,
    solve_forward,
    solve_inverse,
)
from .windows import Window

__version__ = "0.1.0"

__all__ = [
    "Affine", "BoundCertificate", "CheckStatus", "Combine", "ComponentSummary",
    "ConditionEntry", "ConditionReport", "Constant", "ContradictionCertificate",
    "DocumentError", "EXAMPLE_NAMES", "EquationSpec", "Geometric", "HypothesisViolation",
    "Nonlinearity", "NumericRangeError", "OddPowerMap", "OddRatio", "PivotError",
    "PowerLaw", "Provenance", "QuasidiffError", "QuickParity",
    "SequenceDomainError", "SequenceSpec", "SeriesProbe", "SeriesStatus", "SignCase",
    "SignProfileReport", "SignedPower", "SignumMap", "Table", "Trajectory", "Verdict",
    "VerdictKind", "Window", "WindowIndexError", "build_equation", "build_sequence",
    "certificate_refusal", "chain_windows", "check_almost_oscillation", "check_quick_exclusion",
    "check_series_divergence", "classify", "companion_bound_certificate",
    "component_sign_profile", "decide_certificate", "example_closed_form", "example_document", "example_equation",
    "example_summary", "forward_seed_span", "inverse_seed_span", "max_relative_residual",
    "parse_equation_document", "relative_residual", "residual_range",
    "sample_trajectory", "sign_conflict_certificate", "solve_forward", "solve_inverse", "spow",
]
