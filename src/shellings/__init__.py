"""Exact counting of graph shellings.

A shelling of a graph is an ordering of its edges in which every prefix
forms a connected subgraph.  This package counts them exactly: a layered
dynamic program usable as ground truth on small graphs, closed forms for
complete and complete bipartite graphs, hook-product machinery for trees,
degree/diameter bounds with their extremal shapes and transforms, and
exact verifiers for the supporting binomial and telescoping Gamma-ratio
identities.
"""

from .bigmath import (
    Nat,
    Rat,
    binomial,
    catalan,
    factorial,
    gbinom_int_diff,
    gbinom_lower_int,
)
from .bounds import (
    BoundReport,
    bound_report,
    degree_lower_bound,
    diameter_upper_bound_printed,
    double_broom,
    is_mid_spider_shape,
    mid_spider,
    pull_branch_toward_middle,
    push_branch_from_root,
    weight_bound_coefficient,
    weight_bound_coefficients,
)
from .closed_forms import (
    complete_bipartite_count,
    complete_graph_count,
    path_count,
    rooted_path_count,
    stanley_inner_sum,
    stanley_sum_count,
)
from .errors import EdgeListParseError, ExactnessError, GuardExceeded, NotATreeError
from .graphs import (
    Graph,
    GraphClass,
    all_labeled_trees,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    parse_edge_list,
    path_graph,
    prufer_decode,
    prufer_encode,
    random_tree,
    star_graph,
)
from .identities import (
    IdentityCase,
    lemma_a1_check,
    lemma_a2_check,
    lemma_a3_check,
    verify_binomial_sum,
    verify_induction_lemma,
    verify_induction_theorem,
    verify_story,
)
from .oracle import (
    count_shellings_dp,
    enumerate_shellings,
)
from .report import Report
from .trees import (
    RootedTree,
    all_root_counts,
    eccentricities,
    hook_count,
    root_tree,
    tree_count,
)

__version__ = "0.1.0"
