"""Simulation and estimation toolkit for the Gaussian AR(1) process whose
innovations are linked to the lagged level through a Gaussian copula.

The package exposes each library module's __all__.  The modules load on
the first lookup of a name (PEP 562), so `import digar` alone loads no
numpy.  Nor does `import digar.cli`, or its limits and figure commands:
numpy loads only when a command that computes with arrays starts
(variance-path, simulate, estimate, experiment), and digar.cli chooses
how it starts."""

import importlib

__version__ = "0.1.0"

_MODULES = ("dependence", "errors", "estimation", "experiments", "model", "simulation")


def __getattr__(name: str):
    # Names no module can own are refused before anything loads: probes of
    # dunder names, and `cli`, which `from digar import cli` looks up before
    # importing it, so that digar.cli still runs before numpy loads.
    if name == "cli" or (name.startswith("__") and name != "__all__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule also binds it here, so after this loop the
    # module names resolve as attributes without reaching this hook.
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    if name == "__all__":
        value = sorted({n for m in modules for n in m.__all__})
    else:
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            if name in globals():  # a submodule, bound by the import above
                return globals()[name]
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
