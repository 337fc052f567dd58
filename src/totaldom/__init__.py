"""Total domination combinatorics on trees and the attached monomial algebra.

The package covers: enumeration of minimal (S-)total dominating sets via
minimal hypergraph transversals, open-neighborhood ideals with their
irredundant prime decompositions, the polynomial-time characterization and
whisker-based generation of well totally dominated (unmixed) trees, explicit
shellings of stable complexes, and the Cohen-Macaulay type computed both by
counting and by an independent socle oracle.
"""

from .algebra import (
    ArtinianReduction,
    TypeReport,
    artinian_reduction,
    cm_type,
    minimal_v3_td_sets,
    parametric_decomposition,
    socle_dimension,
)
from .complexes import (
    ShellingOrder,
    SimplicialComplex,
    even_stable_complex,
    join,
    shelling_order,
    stable_complex,
    stable_shelling,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    verify_shelling,
)
from .construct import (
    ConstructionTrace,
    TraceStep,
    apply_o,
    deconstruct,
    edge_subdivision,
    generate,
    leaf_normalize,
    replay,
    suspension,
)
from .domination import (
    MinimalSetFamily,
    is_minimal_set,
    is_s_td_set,
    is_unmixed_bruteforce,
    minimal_s_td_sets,
    minimal_td_sets,
    minimal_transversals,
)
from .errors import (
    EdgeListParseError,
    EnumerationCapExceeded,
    MixedTreeError,
    NotAForestError,
    NotATreeError,
    NotBalancedError,
    NotSquareFreeError,
    TheoremViolation,
    TotaldomError,
)
from .graphs import (
    Coloring,
    Forest,
    Graph,
    Tree,
    VertexSet,
    branch,
    canonical_form,
    classify_vertices,
    heights,
    is_isomorphic,
    parse_graph,
    path_graph,
    render_edge_list,
    star_graph,
    two_coloring,
)
from .ideals import (
    MonomialIdeal,
    PrimeDecomposition,
    decompose_squarefree,
    open_neighborhood_ideal,
)
from .treegen import Lcg64, all_trees, random_tree, trees_up_to
from .unmixed import (
    ComponentCheck,
    InteriorGraphs,
    UnmixedCertificate,
    characterize_balanced_unmixed,
    interior_graphs,
    is_balanced,
    is_unmixed_fast,
    mixedness_witness,
)

__version__ = "0.1.0"
