"""Structural balance toolkit for ternary signed appraisal networks.

The package splits into five layers:

* :mod:`balance_lab.graphs` -- appraisal matrices, undirected skeletons,
  induced/ego subgraphs, and the plain-text edge-list format.  Matrices
  and skeletons both keep per-node link bit masks, in sorted-id order,
  which every graph walk reads.
* :mod:`balance_lab.balance` -- static balance checkers (triad-wise,
  two-faction, cycle positivity, ego-network balance).
* :mod:`balance_lab.chordal` -- chords, chordality, one polygon-triangulation
  DP, one table per cycle over the arcs its chords close, behind subchordal
  cycles with witnesses, fan triangulation, ear finding and the equivalence
  certificate between the two balance notions.
* :mod:`balance_lab.dynamics` -- the SIH and SIOH gossip dynamics, their
  equilibrium tests, and deterministic constructive convergence sequences.
* :mod:`balance_lab.experiments` -- signed Erdos-Renyi generation, conflict
  metrics, regression, CSV export, and one Monte-Carlo study entry point,
  :func:`~balance_lab.experiments.run_study`, where ``p=None`` or
  ``p_neg=None`` means that parameter is drawn per trial.
"""

from .graphs import (
    AppraisalMatrix,
    UndirectedSkeleton,
    EdgeListError,
    skeleton,
    is_bilateral,
    is_sign_symmetric,
    ego_network,
    induced_subgraph,
    parse_edge_list,
    format_edge_list,
    read_edge_list,
    write_edge_list,
)
from .balance import (
    BalanceViolation,
    FactionPartition,
    GuardLimitError,
    enumerate_triads,
    is_triad_wise_balanced,
    detect_two_faction,
    cycle_sign,
    enumerate_simple_cycles,
    all_cycles_positive,
    ego_networks_two_faction,
    all_ego_networks_two_faction,
)
from .chordal import (
    SubchordalWitness,
    TriangulationFan,
    SubgraphCertificate,
    find_chords,
    split_by_chord,
    is_chordal,
    is_subchordal,
    fan_triangulation,
    consecutive_triad,
    maximal_cyclic_subgraphs,
    check_equivalence_conditions,
    verify_equivalence_exhaustive,
    equivalence_counterexample,
)
from .dynamics import (
    SihParams,
    SiohParams,
    SiohState,
    UpdateEvent,
    AbsorptionRecord,
    sih_candidate_pairs,
    sih_step,
    is_sih_equilibrium,
    run_sih,
    constructive_sih_sequence,
    sioh_step,
    is_sioh_equilibrium,
    run_sioh,
    constructive_sioh_sequence,
    potential_h,
    potential_h_xy,
)
from .experiments import (
    ErParams,
    TrialRecord,
    RegressionResult,
    gen_er_signed,
    conflict_ratio,
    link_density,
    count_triads,
    linear_regression,
    run_study,
    export_csv,
    study_summary,
)

__version__ = "0.1.0"
