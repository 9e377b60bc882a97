"""Exact verification of Boolean cumulant collapse on the interval.

The library builds the polynomial de Rham complex and the simplicial
cochain complex of [0, 1], the iterated-integral family (I, I2, I3, ...)
connecting them, Boolean cumulants of chain maps, the Hom-complex
boundary calculus with explicit homotopy witnesses, the hypercube cell
complexes organizing the cumulant terms, and a symbolic layer for the
corresponding A-infinity identities.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .cumulants import (
    Composition,
    CumulantContext,
    composition_sign,
    compositions,
    cumulant,
    cumulant_recursive,
    cumulant_terms,
    endpoint_evaluation_context,
    integration_context,
)
from .hom_complex import (
    CONVENTION_A,
    CONVENTION_B,
    EqualityVerdict,
    MultiMap,
    SignConvention,
    TruncationGrid,
    ainfty_relation_defect,
    cumulant_multimap,
    get_convention,
    hom_boundary,
    homotopy_witness,
    iterated_integral_map,
    maps_equal_on_truncation,
)
from .interval_model import (
    Cochain,
    ParseError,
    PolyForm,
    Polynomial,
    cup,
    d_form,
    delta,
    integrate,
    iterated_integral,
    parse_form_tuple,
    parse_polyform,
    wedge,
)

__all__ = [
    "CONVENTION_A",
    "CONVENTION_B",
    "Cochain",
    "Composition",
    "CumulantContext",
    "EqualityVerdict",
    "MultiMap",
    "ParseError",
    "PolyForm",
    "Polynomial",
    "SignConvention",
    "TruncationGrid",
    "__version__",
    "ainfty_relation_defect",
    "composition_sign",
    "compositions",
    "cumulant",
    "cumulant_multimap",
    "cumulant_recursive",
    "cumulant_terms",
    "cup",
    "d_form",
    "delta",
    "endpoint_evaluation_context",
    "get_convention",
    "hom_boundary",
    "homotopy_witness",
    "integrate",
    "integration_context",
    "iterated_integral",
    "iterated_integral_map",
    "maps_equal_on_truncation",
    "parse_form_tuple",
    "parse_polyform",
    "wedge",
]
