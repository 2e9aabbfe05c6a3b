"""Exact toolkit for equivariant flag enumeration on balanced relative
simplicial complexes, with mixed-graph and double-poset front ends."""

from .complexes import (ColoredRelativeComplex, GroupAction,
                        color_automorphism_group, dump_complex, load_complex)
from .corpus import (random_complexes, random_double_posets, random_graphs,
                     small_mixed_graphs, tertispecial_double_posets)
from .doubleposet import (DoublePoset, load_double_poset, omega_qsym,
                          to_mixed_graph, verify_doubleposet_theorems)
from .flags import (FlagVectors, h_st, hilb, homology_h_st, orbital_hilb,
                    verify_eulerchar2, verify_intro1, verify_intro2,
                    verify_intro3)
from .groups import (ClassFunction, CharacterTable, PermGroup, Permutation,
                     character_table, close_group, decompose, inner_product,
                     is_effective, leq_g, load_group, orbit_count, orbits,
                     permutation_character)
from .homology import (ChainComplex, betti, equivariant_homology_traces,
                       homology_vanishes_up_to, hopf_trace_check)
from .mixedgraph import (MixedGraph, chromatic_qsym, coloring_complex,
                         level_chain_qsym, load_graph, order_ideals,
                         verify_graphtocomplex, verify_mixedgraph_theorem)
from .qsym import (PolyClassFunction, QSymClassFunction, f_to_m,
                   is_effectively_flawless, is_strongly_flawless, m_to_f,
                   principal_specialization, shifted_flawless_check)
from .serre import (is_relatively_cm, satisfies_serre, serre_depth,
                    verify_restriction_theorem)

__version__ = "0.1.0"
