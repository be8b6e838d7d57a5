"""Angular resolution of planar 3-tree drawings: adversarial family
construction, constructive layouts, measurement, optimization, and the
interior-point angle-ratio inequality."""

from .families import (
    Family,
    FamilySpec,
    ParameterError,
    build_family,
    build_frame,
    build_G,
    build_H,
    build_Htilde,
    epsilon_to_c,
    vertex_count_G,
)
from .geometry import (
    LEMMA_CONSTANT,
    DegenerateInputError,
    LemmaAngles,
    lemma_angles,
    lemma_bound_check,
    lemma_fuzz,
    sine_product,
)
from .graphs import (
    BuildSequence,
    Embedding,
    LabeledGraph,
    NotPlanar3TreeError,
    StructureError,
    read_embedding,
    read_graph,
    verify_planar_3tree,
    write_embedding,
    write_graph,
)
from .layout import (
    FAN_RESOLUTION_FLOOR,
    HTILDE1_RESOLUTION_FLOOR,
    LayoutConfig,
    layout_frame_fan,
    layout_nested,
    layout_seed_any,
    outer_triangle_coords,
)
from .metrics import (
    angular_resolution,
    claim_quantities,
    frame_profile,
    read_drawing,
    telescoping_product,
    validate_drawing,
    write_drawing,
)
from .optimize import (
    OptimizeConfig,
    OptimizeFailure,
    OptimizeResult,
    SweepRecord,
    fit_exponent,
    maximize_resolution,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from .svg import export_svg

__version__ = "0.1.0"
