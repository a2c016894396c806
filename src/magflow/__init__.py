"""Magnetic geodesic flows on chart-defined Riemannian manifolds.

Numerical toolkit for integrating magnetic (and general odd semi-spray)
flows, evaluating magnetic curvature operators, probing totally-invariant
submanifolds through the dynamical second fundamental form, and running
hyperbolicity diagnostics.
"""
from .curvature import (AnosovReport, PerpEndomorphism, anosov_report,
                        magnetic_operator, magnetic_sectional, op_A, op_R)
from .diagnostics import (LyapunovReport, conjugate_point_scan,
                          lyapunov_spectrum, transversality_angle,
                          volume_drift)
from .errors import *            # noqa: F401,F403  (exception hierarchy)
from .flow import (IntegratorConfig, PhaseState, Trajectory, dynamical_exp,
                   integrate, oddness_residual, variational_flow)
from .forms import FORMS, TwoFormField, make_form
from .geometry import (ChartSpec, CurvatureTensor, MetricField, christoffel,
                       gram_schmidt, orthonormal_completion, riemann,
                       sectional)
from .models import MANIFOLDS, make_manifold
from .submanifold import (CartanReport, DefectReport, DynIIValue,
                          HyperplaneElement, ParamSubmanifold, alpha_defect,
                          augmented_exp, candidate_hypersurface,
                          candidate_submanifold, cartan_probe,
                          classical_II, dynamic_consistency_check,
                          dynamical_II, invariance_defect, make_submanifold)
from .system import MagneticSystem, closedness_residual
from .transport import (FrameState, OrthogonalHolonomy, closed_orbit_holonomy,
                        frame_flow, magnetic_covariant_derivative,
                        parallel_transport)

__version__ = "0.1.0"
