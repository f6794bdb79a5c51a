"""Random-mesh subspace projections for straight-ray tomography.

Images on a unit-square pixel grid are measured along straight rays between
boundary sensors, projected onto piecewise-constant subspaces induced by
random Delaunay meshes, and recombined into reconstructions by regularized
least squares. Subpackages: geometry and meshing (:mod:`meshtomo.mesh`), ray
physics (:mod:`meshtomo.tomo`), solvers (:mod:`meshtomo.solve`), coefficient
estimators (:mod:`meshtomo.estimate`), Monte Carlo kernel studies
(:mod:`meshtomo.kernel`), phantoms and metrics (:mod:`meshtomo.data`), and the
pipeline CLI (:mod:`meshtomo.cli`). Import names from these submodules; the
package root re-exports nothing, so importing it loads no stage.
"""

__version__ = "0.1.0"
