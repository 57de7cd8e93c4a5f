"""Exact linear systems on graphs and Newton-Okounkov bodies of
semistable curves and toric schemes over discrete valuation rings."""

from .graphs import (Divisor, Graph, GraphFunction, graph_diameter,
                     laplacian, m_statistic, specialize_vertical)
from .linsys import (LinearSystemSpec, build_system, member, minimal_element,
                     pointwise_min, zariski_shift)
from .rank import has_nonnegative_rank, q_reduced
from .curves import (ArakelovFlag, CurveBodyJob, NOBody2D, TropicalFlag,
                     VerificationReport, compute_body, cross_verify,
                     stabilization)
from .toric import (NOT_A_SECTION, ToricFlag, ToricModel,
                    build_generic_polytope, build_model_polyhedron,
                    lattice_point_count, monomial_valuation, psi_value,
                    toric_body)
from .polyhedra import (HPolyhedron, VPolyhedron, enumerate_v_rep,
                        fm_eliminate, project_out, solve_lp, vrep_equal)
from .plf import PiecewiseLinearFunction
from .parametric import parametric_value_function
from . import errors

__version__ = "0.1.0"
