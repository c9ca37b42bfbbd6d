"""Odd reflections on Young diagrams in a box.

Diagrams in an n x m box, their border words and shuffles, the groupoid of
signed isotropic roots acting on them, rotation-number classes with their
Cayley and Hasse graphs, and the matching Borel root data of the
affinization.
"""

from .rect import (
    DomainError,
    NonCoprimeShape,
    OddRoot,
    RectShape,
    ShapeUnsupported,
    all_diagrams,
    diagram_of_shuffle,
    diagram_of_word,
    dual,
    identity_shuffle,
    rotate_root,
    rotate_word,
    shuffle_of_diagram,
    shuffle_of_word,
    solve_rotation,
    word_of_diagram,
    word_of_shuffle,
)
from .reflect import (
    EdgeFlags,
    NotACorner,
    NotEligible,
    NotSimple,
    admits,
    corners,
    diagram_edge,
    edge_flags,
    p_apply,
    r_apply,
    simple_roots,
    t_apply,
    word_edge,
)
from .orbit import (
    AnchoredPair,
    GraphTooLarge,
    MorphismGraph,
    OrbitClass,
    UndefinedMorphism,
    act,
    approx_decompose,
    build_graph,
    classes_at_degree,
    enumerate_class,
    out_edges,
)
from .affine import (
    BorelAtlas,
    CyclicDK,
    FiniteBorel,
    GlobalRoot,
    NotIsotropic,
    NotTypeA,
    borel_act,
    borel_at,
    class_of_borel,
    extend,
    reflected_pairs,
    site_pairs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
