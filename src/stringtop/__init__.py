"""stringtop: a workbench for loop observables and graded bracket identities.

The package computes holonomy-type observables of piecewise-linear loops on
the flat torus T^2, the surface on which the Chas-Sullivan string bracket
is Goldman's bracket, with coefficients in a finite Grassmann algebra, and
cross-checks a family of algebraic identities relating them: trace fusion
over gl(n), transversal intersection brackets of loop families, graded
Poisson brackets on finite phase models, and chord diagram relations.
"""

__version__ = "0.1.0"

from stringtop.grassmann import GradedCoefficient, gc_mul

__all__ = ["GradedCoefficient", "gc_mul", "__version__"]
