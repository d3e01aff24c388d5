"""Exact node counts and universal node polynomials for toric surfaces.

The library computes Severi degrees of polarized toric surfaces attached to
h-transverse lattice polygons, along with the universal linear coefficients
and quasimodular power series identities that govern them.  All arithmetic
is exact (integers and fractions); no floats appear anywhere.
"""

from .graphs import (
    Edge,
    LongEdgeGraph,
    Template,
    conjugate,
    enumerate_templates,
)
from .orderings import (
    BetaSeq,
    LinearForm,
    beta_from_divergence,
    fit_linear_phi,
    p_beta,
    phi_beta,
)
from .coeffs import (
    CoeffTable,
    a_series,
    b_coeffs,
    cor,
    cor_doubleprime,
    diffq,
    q_beta_delta,
    template_coefficients,
    template_data,
)
from .series import (
    RatSeries,
    b1_b2,
    d2g2,
    dg2,
    disc,
    g2,
    gyz_check,
    gyz_sides,
    log_exp_coeffs,
    partition_series,
    partition_series_in_power,
)
from .polygon import (
    HTPolygon,
    InternalVertex,
    PolygonStats,
    Reordering,
    ToricInvariants,
    beta_stats,
    from_directions,
    from_vertices,
    internal_vertices,
    polygon_from_dict,
    polygon_stats,
    polygon_to_dict,
    reorderings,
    toric_invariants,
)
from .severi import (
    METHODS,
    NodeCountReport,
    UniversalPolynomial,
    n_bruteforce,
    n_from_q,
    q_from_n,
    q_geometric,
    q_polygon,
    report,
    that_delta,
)

__version__ = "0.1.0"
