"""Computable horosphere geometry of Teichmueller space on two concrete
models: the exact torus model (upper half-plane) and square-tiled
translation surfaces.

Modules:
  kernel     exact rationals, 2x2 matrices, hyperbolic metric, brackets
  torus      extremal lengths, Kerckhoff distance, horocycles, Busemann
  origami    square-tiled surfaces, cylinders, traces, flows, re-marking
  horolab    model-agnostic horoball relations over a geometry backend
  curvegraph finite curve graphs from exact intersection data
  cli        batch command-line frontend; its handlers in cli_torus, cli_origami
"""

import importlib

__version__ = "0.1.0"

# Public names by defining module, each imported on first use (PEP 562), so
# that "import horoteich" loads no model until one of its names is used.
_PUBLIC = {
    "kernel": ("Bracket", "Mat2", "UpperHalfPoint"),
    "torus": ("TorusCurve", "WeightedTorusFoliation", "extremal_length"),
    "origami": ("Origami", "MarkedFlatSurface", "build_origami"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
