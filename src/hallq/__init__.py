"""hallq: exact-arithmetic workbench for twisted Hall algebras of small
acyclic quivers over prime fields."""

from .laurent import (
    ExactDivisionError,
    LaurentPoly,
    SqrtQScalar,
    evaluate_at_sqrt_q,
    gaussian_binomial_q,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)
from .quiver import DimVector, Quiver, builtin_quiver, euler_form, induction_twist, stratum_data, symmetric_form
from .ffrep import (
    BudgetExceededError,
    ClassificationTable,
    IsoClassId,
    Rep,
    TableCache,
    classify,
    enumerate_points,
    group_order,
    hom_dimension,
    iso_class_of,
    stable_subspaces,
)
from .hall import (
    HallElement,
    HallModel,
    TensorElement,
    constant_class,
    derive_quot,
    derive_sub,
    geometric_induction,
    geometric_restriction,
    pairing,
    ringel_product,
    stratified_derive_quot,
    stratified_derive_sub,
    unit_class,
)
from .uminus import FreeElement, derivation_left, derivation_right, evaluate_to_hall, serre_element

__version__ = "0.1.0"
