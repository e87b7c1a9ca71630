"""stringtop: a workbench for loop observables and graded bracket identities.

The package computes holonomy-type observables of piecewise-linear loops on
the flat torus T^2, the surface on which the Chas-Sullivan string bracket
is Goldman's bracket, with coefficients in a finite Grassmann algebra, and
cross-checks a family of algebraic identities relating them: trace fusion
over gl(n), transversal intersection brackets of loop families, graded
Poisson brackets on finite phase models, and chord diagram relations.

``__all__`` names the library entry points that the suite's checks and
the benchmark call. The suite runner, ``stringtop.harness``, is imported
on its own, since it loads the report schema validator.
"""

__version__ = "0.1.0"

from stringtop.brackets import fundamental_identity_check, main_theorem_sides, wilson_field_bracket
from stringtop.chords import ChordDiagram, DiagramRealization, evaluate_diagram, four_t_combination, gln_ideal_element
from stringtop.fields import ConstantCommutingConnection, FieldConfig, FourierField, field_obstruction
from stringtop.geometry import PLLoop, Torus, VariationField
from stringtop.holonomy import DEFAULT_PLAN, QuadratureError, TransportPlan, gen_transport, transport, wilson
from stringtop.lierep import LieBasis, SuperMatrix, fuse_traces
from stringtop.phasespace import GradedPhaseModel, delta_and_nilpotency, graded_bracket
from stringtop.strings import (
    StringCycle, TransversalityError, concatenate, goldman_torus, intersections, jacobi_residual, string_bracket
)

__all__ = [
    "ChordDiagram", "ConstantCommutingConnection", "DEFAULT_PLAN", "DiagramRealization", "FieldConfig",
    "FourierField", "GradedPhaseModel", "LieBasis", "PLLoop", "QuadratureError", "StringCycle", "SuperMatrix",
    "Torus", "TransportPlan", "TransversalityError", "VariationField", "concatenate", "delta_and_nilpotency",
    "evaluate_diagram", "field_obstruction", "four_t_combination", "fuse_traces", "fundamental_identity_check",
    "gen_transport", "gln_ideal_element", "goldman_torus", "graded_bracket", "intersections", "jacobi_residual",
    "main_theorem_sides", "string_bracket", "transport", "wilson", "wilson_field_bracket", "__version__",
]
