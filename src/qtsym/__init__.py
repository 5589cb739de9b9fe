"""Exact (q,t) symmetric-function engine.

Modified Macdonald and Kostka polynomials, the product algebra spanned by
Kostka polynomials with its structure coefficients, plethystic calculus,
the genus-g Cauchy kernel, and Poincare-polynomial evaluators for
comet-shaped quiver varieties built on top of them. All arithmetic is
exact over Q.
"""

from .coeffring import (
    HookField,
    ParseError,
    PoleError,
    Polynomial,
    RationalFunction,
    normalize_fraction,
    poly_gcd,
    rf,
)
from .kernel import (
    cauchy_series,
    hook_factor,
    kernel,
    log_cauchy_series,
    mixed_hodge_point,
    poincare_point,
    q1_point,
    specialize_kernel,
)
from .kostka_algebra import (
    delta_sharp,
    garsia_haiman_sum,
    kostka_product,
    macdonald_expansion,
    nabla,
    nabla_eigenvalue,
    psi,
    qt_catalan,
    structure_coefficient,
    structure_coefficients_all,
)
from .linalg import SingularSystem, solve_bareiss
from .macdonald import (
    MacdonaldTable,
    build_table,
    delta1,
    delta1_eigenvalue,
    evaluation_product,
    norm_product,
    phi_weight,
)
from .partitions import Partition, dominance_leq, parse_partition, partitions_of
from .plethysm import (
    AlphabetExpr,
    Series,
    adams,
    coefficient_of,
    eval_var,
    exp_series,
    log_series,
    substitute,
    z_diagonal,
)
from .quiver import (
    CometSpec,
    NegativeCoefficient,
    OddDimension,
    PunctureSpec,
    TwistSpec,
    c_from_log,
    c_from_trace,
    mixed_hodge_rhs,
    orbit_dim,
    poincare,
    q1_rhs,
    total_dim,
    trace_configuration,
    twisted_poincare,
)
from .symfunc import (
    DegreeCapError,
    SymFunc,
    basis_element,
    convert,
    degree_cap,
    e_elem,
    expand1,
    format_basis_expansion,
    h_elem,
    hall_scalar,
    json_terms,
    m_elem,
    mn_character,
    p_elem,
    pair_alphabet,
    qt_pairing_scalar,
    s_elem,
    set_degree_cap,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
