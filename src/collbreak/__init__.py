"""Sectional solver and analysis toolkit for collision-induced fragmentation
with power-law fragment daughter spectra, including the non-integrable range.

The package provides the symmetric homogeneous collision kernel, closed-form
daughter-distribution moments, a mass-exact sectional scheme with an explicit
sub-grid dust accumulator, adaptive and fixed-point time integration, the
explicit constants of the existence/uniqueness/non-existence moment estimates,
and theorem-level diagnostics over emitted runs.
"""

from .bounds import (
    BoundsReport,
    Regime,
    existence_bounds,
    gronwall_envelope,
    hypothesis_checklist,
    initial_bounds,
    nonexistence_bound,
    regime_report,
)
from .config import SimConfig, build_problem, parse_config, parse_config_text, run, with_x_min
from .daughter import DaughterLaw, check_moment_order, e_constant, leak_ratio, power_sum_change
from .diagnostics import (
    ShatterStudy,
    c1_bound_check,
    mass_budget_check,
    nonexistence_growth_check,
    run_verification,
    shattering_study,
    tail_monotonicity_check,
    weighted_distance,
)
from .errors import (
    CollbreakError,
    ConfigError,
    ContractionError,
    DivergentMomentError,
    DomainError,
    InputError,
    StiffnessError,
)
from .grid import (
    SizeGrid,
    State,
    build_grid,
    check_grid,
    check_initial_data,
    exponential_state,
    moment,
    monodisperse_state,
    table_state,
    weight_vector,
)
from .integrate import (
    PicardResult,
    RunOutput,
    Tolerances,
    check_picard,
    picard_solve,
    simulate,
    step,
)
from .kernel import KernelSpec
from .output import emit_outputs, load_run
from .scheme import RhsWorkspace, precompute, rhs_arrays

__version__ = "0.1.0"
