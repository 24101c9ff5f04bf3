"""bohrcert: numerical certification of Bohr-type coefficient inequalities.

Build disk-to-closed-disk analytic functions (seeded samples and the
extremal families), evaluate the catalog of majorant inequalities on
lacunary coefficient profiles, solve the sharp-radius equations, check
the vector-valued slice bounds, and run deterministic certification
campaigns with JSON/CSV reports.
"""

from .errors import (
    BohrcertError,
    CampaignError,
    DegenerateDirection,
    NoSignChange,
    OddGapRequired,
    ParameterOutOfRange,
    RadiusOutOfRange,
    RadiusOutOfWindow,
    ShapeMismatch,
    ToleranceTooSmall,
    TruncationInsufficient,
    UnknownTheorem,
    ZeroConstantTerm,
)
from .functionals import (
    InequalityCheck,
    LacunaryProfile,
    THEOREM_IDS,
    bohr_sums,
    bohr_sums_grid,
    evaluate_theorem,
    evaluate_theorem_grid,
    profile_from_series,
    theorem_margins,
)
from .harness import (
    CampaignConfig,
    Report,
    ReportRow,
    emit_report,
    run_campaign,
)
from .multidim import (
    Direction,
    SliceMapping,
    frechet_norms,
    lt_norm,
    random_directions,
    sharpness_scan,
    slice_from_direction,
    vector_check,
)
from .radius import (
    RadiusSpec,
    closed_form_radius,
    equation_value,
    solve_radius,
)
from .schur import (
    SchurParameters,
    extremal_family,
    sample_bank,
    sample_schur,
    schur_to_taylor,
)
from .series import TruncatedSeries

__version__ = "0.1.0"
