"""Spherical Radon transform over spheres centered on the plane z = 0.

The measured data pair on each sphere is the full spherical mean together
with the first cosine coefficient of the restriction; from those two
scalars per sphere the library reconstructs the underlying field by an
explicit polynomial-filtered series.

Public surface:

* exact filter coefficient tables (`build_tables`, `polynomial_set`)
* forward operators (`spherical_mean`, `first_cosine_coefficient`,
  `harmonic_coefficient`, `restriction_partial_sum`)
* sampled-moment containers and CSV round trip (`MomentGrid`,
  `sample_moments`, `read_moment_csv`, `write_moment_csv`)
* series inversion (`ReconstructionRequest`, `reconstruct_point`,
  `reconstruct_slice`, `mirror_even_reconstruct`)
* residual oracles for the identities the inversion rests on
  (`check_representation_even`, `check_representation_odd`,
  `check_lemma1`, `check_ode_residual`, `run_all_checks`)
"""

from __future__ import annotations

from .checks import (
    ResidualReport,
    check_lemma1,
    check_ode_residual,
    check_representation_even,
    check_representation_odd,
    run_all_checks,
    write_residual_csv,
)
from .coeffs import (
    CoefficientTable,
    PolynomialSet,
    build_tables,
    eval_polynomial,
    perturb_entry,
    polynomial_set,
    write_coefficient_csv,
    write_polynomial_csv,
)
from .fields import ScalarField3D, make_phantom, polynomial_field
from .forward import (
    SphereCenter,
    first_cosine_coefficient,
    harmonic_coefficient,
    off_plane_mean,
    restriction_partial_sum,
    spherical_mean,
)
from .moments import (
    MomentGrid,
    read_moment_csv,
    sample_moments,
    write_moment_csv,
)
from .reconstruct import (
    ReconstructionRequest,
    ReconstructionResult,
    SliceSpec,
    mirror_even_reconstruct,
    reconstruct_point,
    reconstruct_slice,
    write_slice_csv,
    write_slice_pgm,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable",
    "MomentGrid",
    "PolynomialSet",
    "ReconstructionRequest",
    "ReconstructionResult",
    "ResidualReport",
    "ScalarField3D",
    "SliceSpec",
    "SphereCenter",
    "build_tables",
    "check_lemma1",
    "check_ode_residual",
    "check_representation_even",
    "check_representation_odd",
    "eval_polynomial",
    "first_cosine_coefficient",
    "harmonic_coefficient",
    "make_phantom",
    "mirror_even_reconstruct",
    "off_plane_mean",
    "perturb_entry",
    "polynomial_field",
    "polynomial_set",
    "read_moment_csv",
    "reconstruct_point",
    "reconstruct_slice",
    "restriction_partial_sum",
    "run_all_checks",
    "sample_moments",
    "spherical_mean",
    "write_coefficient_csv",
    "write_moment_csv",
    "write_polynomial_csv",
    "write_residual_csv",
    "write_slice_csv",
    "write_slice_pgm",
]
