"""Comb inequalities over bipartite TSP relaxations: aggregation
certificates, an exact rational LP oracle, and exhaustive tour checks.

The package decides, for a comb over a bipartite instance, whether its
inequality is already implied by the degree and subtour-elimination rows
of the relaxation, and proves it two independent ways: a combinatorial
certificate (an explicit sum of valid rows dominating the comb row) and
an exact LP maximization with a checked dual.  Tour enumeration closes
the loop by showing implied comb rows are never facet defining at desk
scale, and the two bundled counterexample tables show the implication
genuinely fails without the side conditions.
"""

from .certificates import (
    BUILDERS,
    Certificate,
    CertificateMember,
    CertificateReport,
    build_l1,
    build_l2,
    build_l3,
    build_t1,
    build_t2,
    certify,
    verify,
)
from .combs import (
    Comb,
    CombClass,
    IntersectionPattern,
    classify,
    comb_inequality,
    comb_value,
    validate_comb,
)
from .constraints import (
    ConstraintKind,
    FeasibilityReport,
    LinearInequality,
    check_point,
    degree_constraint,
    gen_degree,
    gen_secs,
    sec_constraint,
)
from .errors import (
    CombcertError,
    EnumerationCapError,
    FormatError,
    HypothesisNotMetError,
    InvalidCombError,
    NoToursError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .graph import (
    CLASS1,
    CLASS2,
    BipartiteInstance,
    Edge,
    FractionalPoint,
    VertexId,
    degree,
    set_weight,
)
from .lp import ImplicationResult, LpSolution, is_implied, solve
from .tables import load_table, reproduce_tables
from .tours import (
    FacetReport,
    FacetVerdict,
    facet_test,
)

__version__ = "0.1.0"

# The kernels have one implementation, in pure Python; benchmark reports
# record this name with their results.
kernel_backend = "pure"
