"""Exact verification of Boolean cumulant collapse on the interval.

The library builds the polynomial de Rham complex and the simplicial
cochain complex of [0, 1], the iterated-integral family (I, I2, I3, ...)
connecting them, Boolean cumulants of chain maps, the Hom-complex
boundary calculus with explicit homotopy witnesses, the hypercube cell
complexes organizing the cumulant terms, and a symbolic layer for the
corresponding A-infinity identities.  All arithmetic is exact rational.

Each public name below resolves on first use: the first access imports
the module that defines it and keeps the name here, so later accesses are
plain attribute reads.  Importing the package loads none of its modules,
and a program loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed once under the module that defines it
_EXPORTS = {
    "certify": ("CONVENTION_A", "CONVENTION_B", "EqualityVerdict",
                "SignConvention", "TruncationGrid", "get_convention"),
    "cumulants": ("Composition", "CumulantContext", "composition_sign",
                  "compositions", "cumulant", "cumulant_recursive",
                  "cumulant_terms", "endpoint_evaluation_context",
                  "integration_context"),
    "hom_complex": ("MultiMap", "ainfty_relation_defect", "cumulant_multimap",
                    "hom_boundary", "homotopy_witness", "iterated_integral_map",
                    "maps_equal_on_truncation"),
    "interval_model": ("Cochain", "ParseError", "PolyForm", "Polynomial", "cup",
                       "d_form", "delta", "integrate", "iterated_integral",
                       "parse_form_tuple", "parse_polyform", "wedge"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
