"""Deterministic system-level simulator for coordinated TN/NTN spectrum sharing.

A terrestrial network (primary spectrum user) and a LEO-satellite network
(secondary user) share one RB grid.  A central spectrum manager reads TN
load reports and shifts per-group TN/NTN boundaries with a threshold rule;
the engine wraps that loop with a simplified radio model, CBR traffic, a
round-robin scheduler, and reproducible multi-seed campaigns.
"""

from .band import (
    AllocationState,
    BandPlan,
    FrequencyGroup,
    GroupAllocation,
    build_band_plan,
    initial_allocation,
    rb_ranges,
    validate_allocation,
)
from .controller import (
    CdssConfig,
    LoadReport,
    SpectrumManager,
    aggregate_load,
    apply_adjustment,
    decide_adjustment,
)
from .engine import RunSpec, run_and_write, run_campaign, run_simulation
from .errors import (
    CdssError,
    ConfigurationError,
    InvariantError,
    MissingDataError,
)
from .metrics import CdfSeries, MetricsStore, compute_cdf, finalize
from .scenario import (
    CASES,
    ScenarioConfig,
    SimCase,
    SimClock,
    default_scenario,
    parse_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"
