"""Graph reconstruction from vertex-deleted decks via modular decomposition."""

from .canon import (
    automorphism_orbits,
    canonical_form,
    canonical_labeling,
    has_induced_subgraph,
    is_isomorphic,
    orbit_index,
)
from .deck import (
    Deck,
    DeckError,
    DeckIntegrityError,
    edge_count_from_deck,
    load_deck,
    make_deck,
    parse_deck_text,
)
from .graphs import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    path_graph,
)
from .modular import (
    CapabilityError,
    Kind,
    ModularDecomposition,
    critically_indecomposable,
    decompose,
    inflate,
    is_critically_indecomposable,
    is_indecomposable,
)
from .reconstruct import (
    ReconstructionResult,
    in_family_G,
    interval_single_large,
    interval_single_pair,
    intervals_multi,
    reconstruct,
    reconstruct_degenerate,
    relaxed_skeleton_condition,
    singleton_count,
    skeleton_from_deck,
)

__version__ = "0.1.0"
