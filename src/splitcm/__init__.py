"""Central values of twisted canonical Hecke L-series via split-CM points.

For an imaginary quadratic field of prime discriminant D < -4 with class
number one and a prime level N = 3 mod 4 splitting in the field, theta
series of the positive definite binary forms of discriminant -N, evaluated
at CM points of discriminant D and normalized by an eta product, take
integer values.  Grouping those integers by the class of an attached
maximal order in the quaternion algebra (D, -N) yields the central value
L(psi_N, 1) as an explicit finite sum.

Main entry points: `HeckeContext` fixes (D, N, b1, precision), where the
root b1 picks the prime over N and with it psi_N; `classify` produces
per-form theta integers and per-class table rows from the level's theta
values, each from its form's Sp4(Z)-reduced point; `l_value` the central
value, whose two internal paths share those values; `oracle_central_value` an independent evaluation,
with its root number, from the functional equation alone; `make_table`
the one loop over the levels of a table, with a per-level hook for
callers that cache rows.
"""

from .central import (
    ClassRow,
    ClassStore,
    TableResult,
    ThetaRecord,
    admissible_levels,
    classify,
    discover_classes,
    l_value,
    l_value_paths,
    make_table,
    oracle_central_value,
    oracle_l_value,
)
from .errors import (
    ConventionError,
    IncompleteClassListError,
    InputError,
    InternalError,
    ResourceError,
    SplitCMError,
    SplitError,
    UnsupportedError,
)
from .hecke import HeckeContext, KElem
from .numeric import BigComplex
from .quadratic import (
    HeegnerPoint,
    QuadForm,
    QuadIdeal,
    class_number,
    heegner_point,
    prime_ideal_above,
    reduce_form,
    reduced_forms,
)
from .quaternion import (
    Order,
    QuatAlgebra,
    QuatLattice,
    build_Iz,
    embedding_count,
    gross_lattice,
    is_maximal,
    orders_isometric,
    right_order,
)
from .theta import (
    SplitCMPoint,
    dedekind_eta,
    eta_norm_factor,
    siegel_theta,
    symplectic_theta_splitcm,
    theta_form,
)

__version__ = "0.1.0"

__all__ = [
    "BigComplex",
    "ClassRow",
    "ClassStore",
    "ConventionError",
    "HeckeContext",
    "HeegnerPoint",
    "IncompleteClassListError",
    "InputError",
    "InternalError",
    "KElem",
    "Order",
    "QuadForm",
    "QuadIdeal",
    "QuatAlgebra",
    "QuatLattice",
    "ResourceError",
    "SplitCMError",
    "SplitCMPoint",
    "SplitError",
    "TableResult",
    "ThetaRecord",
    "UnsupportedError",
    "admissible_levels",
    "build_Iz",
    "class_number",
    "classify",
    "dedekind_eta",
    "discover_classes",
    "embedding_count",
    "eta_norm_factor",
    "gross_lattice",
    "heegner_point",
    "is_maximal",
    "l_value",
    "l_value_paths",
    "make_table",
    "oracle_central_value",
    "oracle_l_value",
    "orders_isometric",
    "prime_ideal_above",
    "reduce_form",
    "reduced_forms",
    "right_order",
    "siegel_theta",
    "symplectic_theta_splitcm",
    "theta_form",
]
