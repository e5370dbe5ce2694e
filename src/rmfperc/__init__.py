"""Accessibility percolation under the Rough Mount Fuji label model:
exact critical thresholds on branching trees, closed-form probability
bounds, and Monte Carlo simulators for trees and integer lattices,
including a brick-based oriented-percolation coupling.
"""

__version__ = "0.1.0"

from .core import LabelField, Metric, ResourceGuardError
from .analytic import (
    BoundsReport,
    eigenfunction_eval,
    eigenfunction_integral,
    lead_eigenvalue,
    m_critical,
    out_of_order_bound,
    path_increase_upper_bound,
    q_theta_eval,
    theta_bounds,
    theta_critical,
)
from .tree import (
    MartingaleTrace,
    OffspringDistribution,
    estimate_theta_c_tree,
    martingale_trace,
    survival_probability,
)
from .lattice import (
    AccessibleSet,
    LatticeConfig,
    accessible_set,
    crossing_probability,
    export_accessible,
    oriented_coupling_check,
    parse_accessible,
    sweep_accessible_min_theta,
    sweep_theta,
)
from .bricklayer import (
    BrickConfig,
    compute_A,
    distance_gap_check,
    goodness_probability,
    open_implies_increasing_check,
    simulate_bricklayer,
)
