"""Random-mesh subspace projections for straight-ray tomography.

Images on a unit-square pixel grid are measured along straight rays between
boundary sensors, projected onto piecewise-constant subspaces induced by
random Delaunay meshes, and recombined into reconstructions by regularized
least squares. Subpackages: geometry and meshing (:mod:`meshtomo.mesh`), ray
physics (:mod:`meshtomo.tomo`), solvers (:mod:`meshtomo.solve`), coefficient
estimators (:mod:`meshtomo.estimate`), Monte Carlo kernel studies
(:mod:`meshtomo.kernel`), phantoms and metrics (:mod:`meshtomo.data`), and the
pipeline CLI (:mod:`meshtomo.cli`).
"""

from .core import FormatError, Grid, Image, Seed, load_image, pixel_centers, save_image
from .data import (ShapesConfig, gen_checkerboard, gen_shapes, input_snr,
                   load_dataset, output_snr, save_dataset)
from .estimate import (Estimator, ObliqueOperator, TrainConfig, build_oblique,
                       estimate_coeffs, load_estimator, oblique_coeffs,
                       oracle_coeffs, save_estimator, train_ensemble,
                       train_estimator)
from .kernel import (KernelEstimate, convolution_consistency, isotropy_check,
                     mc_expected_recon, mc_kernel_sweep, profile_half_width)
from .mesh import (StackedBasis, SubspaceBasis, TriMesh, delaunay_triangulate,
                   delaunay_violations, gaussian_subspace_projector, load_mesh,
                   mesh_with_k_triangles, rasterize, save_mesh)
from .solve import (SolveOptions, SolveResult, SolverError, minnorm_solve,
                    nnls, solve_reformulated, tv_direct)
from .tomo import (Measurement, RayMatrix, SensorArray, add_gaussian_noise,
                   build_ray_matrix, erase, forward, load_measurement,
                   load_ray_matrix, place_sensors, save_measurement,
                   save_ray_matrix, sensor_pairs)

__version__ = "0.1.0"

__all__ = [
    "Estimator",
    "FormatError",
    "Grid",
    "Image",
    "KernelEstimate",
    "Measurement",
    "ObliqueOperator",
    "RayMatrix",
    "Seed",
    "SensorArray",
    "ShapesConfig",
    "SolveOptions",
    "SolveResult",
    "SolverError",
    "StackedBasis",
    "SubspaceBasis",
    "TrainConfig",
    "TriMesh",
    "add_gaussian_noise",
    "build_oblique",
    "build_ray_matrix",
    "convolution_consistency",
    "delaunay_triangulate",
    "delaunay_violations",
    "erase",
    "estimate_coeffs",
    "forward",
    "gaussian_subspace_projector",
    "gen_checkerboard",
    "gen_shapes",
    "input_snr",
    "isotropy_check",
    "load_dataset",
    "load_estimator",
    "load_image",
    "load_measurement",
    "load_mesh",
    "load_ray_matrix",
    "mc_expected_recon",
    "mc_kernel_sweep",
    "mesh_with_k_triangles",
    "minnorm_solve",
    "nnls",
    "oblique_coeffs",
    "oracle_coeffs",
    "output_snr",
    "pixel_centers",
    "place_sensors",
    "profile_half_width",
    "rasterize",
    "save_dataset",
    "save_estimator",
    "save_image",
    "save_measurement",
    "save_mesh",
    "save_ray_matrix",
    "sensor_pairs",
    "solve_reformulated",
    "train_ensemble",
    "train_estimator",
    "tv_direct",
]
