"""Numerical laboratory for bounded divergence-free vector fields.

The package verifies, numerically and reproducibly, a family of
statements about such fields: transport identities along lifted flows,
a sampled certification of an explicit half-space counterexample,
weak normal traces probed by pairings, ball averages, and curvilinear
rectangles, approximate one-sided limits, and per-scale blow-up
consistency, with a capillary boundary field as the worked example.

Layout: `fields` builds the vector fields and potentials, `calculus`
supplies quadrature-backed differential operators, `rigidity` runs the
flow-tube and certification machinery, `trace` and `blowup` probe
interface behavior, and `cli` wires everything into scenarios.
"""

from .calculus import (GridSpec, MollifierKernel, annulus_flux_residual,
                       bump_family, bump_test, jensen_check,
                       make_mollifier, mollify, numeric_divergence)
from .fields import (AUTO, CylindricalPotential, Disk, InputError,
                     OutOfDomainError, VectorField, constant_field,
                     counterexample_potential, field_to_potential,
                     get_field, make_capillary_field,
                     make_counterexample_field, make_twisting_field,
                     phi_quadratic, potential_to_field,
                     stream_bump_field, zero_field)
from .blowup import (blowup_trace_consistency, finest_ratio_check,
                     hash_unit_ball_field, nalpha_density,
                     quadratic_inequality_check, rescale)
from .report import (CheckResult, FAIL, INFO, PASS, SKIPPED,
                     VerificationReport)
from .rigidity import (CERTIFIED, VIOLATED, FlowTube,
                       MonotonicityViolation, RigidityCertificate,
                       certify_potential, flow_tubes,
                       default_certification_grid, gamma_bounds,
                       separable_demo, strip_identity_2d)
from .trace import (AP_LIM_CONFIRMED, AP_LIM_INCONCLUSIVE, AP_LIM_REJECTED,
                    DensityProbe, OrientedInterface, TraceProbe,
                    circle_interface, density, line_interface,
                    one_sided_ap_lim, weak_trace_ball_average,
                    weak_trace_curvilinear, weak_trace_pairing,
                    weak_trace_sphere_flux)

__version__ = "0.1.0"
