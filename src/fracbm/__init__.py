"""Fractional calculus, fractional Brownian motion, and pathwise stochastic integration.

The names in `__all__`, and the `fraccalc` and `gaussianpaths` modules that
define them, are imported on first access (PEP 562), so `import fracbm`
loads no layer: `from fracbm import GridSpec` and `fracbm.gaussianpaths`
load `gaussianpaths` and what it imports, and the CLI loads only the layer
its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "DifferintegralSpec": "fraccalc",
    "GridFunction": "fraccalc",
    "OperatorKind": "fraccalc",
    "Side": "fraccalc",
    "cauchy_repeated_integral": "fraccalc",
    "fractal_integral": "fraccalc",
    "fractional_derivative": "fraccalc",
    "fractional_integral": "fraccalc",
    "whole_line_fractional_integral": "fraccalc",
    "GridSpec": "gaussianpaths",
    "PathGenerator": "gaussianpaths",
    "RngSeed": "gaussianpaths",
    "SamplePath": "gaussianpaths",
    "generate_bm": "gaussianpaths",
    "generate_fbm_cholesky": "gaussianpaths",
    "generate_fbm_circulant": "gaussianpaths",
    "generate_fbm_moving_average": "gaussianpaths",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
