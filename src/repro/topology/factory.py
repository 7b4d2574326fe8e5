"""Convenience constructors for the network zoo.

Experiments and examples frequently build "the paper's standard instance"
of each scheme for a given ``(N, M, B)``; this module centralizes those
defaults so they stay consistent across analytics, simulation and
benchmarks:

* single connection: balanced ``M/B`` modules per bus (Section IV),
* partial: ``g = 2`` groups (the configuration of Table V),
* K classes: ``K = B`` equal classes of ``M/K`` modules (Table VI).
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.network import MultipleBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork
from repro.topology.structure import StructureNetwork

__all__ = [
    "build_network",
    "check_scheme_kwargs",
    "equal_class_sizes",
    "paper_figure_networks",
]

#: Keyword arguments each scheme accepts; anything else is a typed error.
_SCHEME_KWARGS: dict[str, frozenset] = {
    "full": frozenset(),
    "single": frozenset({"bus_of_module"}),
    "partial": frozenset({"n_groups"}),
    "kclass": frozenset({"class_sizes", "class_of_module"}),
    "crossbar": frozenset(),
    "custom": frozenset({"generator"}),
}


def _strict_int(value, name: str) -> int:
    """Validate an integral parameter without silent coercion.

    ``bool`` and floats are rejected (``int(2.7)`` would silently
    truncate); NumPy integer scalars pass through ``__index__``.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value.__index__())
    except (AttributeError, TypeError):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None


def _strict_int_sequence(value, name: str):
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ConfigurationError(
            f"{name} must be a sequence of integers, got {value!r}"
        )
    return [_strict_int(item, f"{name}[{index}]") for index, item in enumerate(value)]


def equal_class_sizes(n_memories: int, n_classes: int) -> list[int]:
    """Split ``M`` modules into ``K`` classes as evenly as possible.

    When ``K`` divides ``M`` this is the paper's Table VI configuration;
    otherwise remainders go to the *higher* classes (better-connected),
    following the paper's principle that hot modules deserve more buses.
    """
    if n_classes < 1:
        raise ConfigurationError(f"need at least one class, got {n_classes}")
    base, extra = divmod(n_memories, n_classes)
    # Higher classes (larger j) receive the remainder.
    return [
        base + (1 if j >= n_classes - extra else 0) for j in range(n_classes)
    ]


def check_scheme_kwargs(scheme: str, kwargs: dict) -> None:
    """Raise :class:`ConfigurationError` for an unknown scheme or keyword.

    :func:`build_network` runs this first; sweeps run it once up front,
    so a misspelled keyword fails the sweep instead of reading as a
    grid of infeasible cells.
    """
    allowed = _SCHEME_KWARGS.get(scheme)
    if allowed is None:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected full/single/partial/"
            "kclass/crossbar/custom"
        )
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        if allowed:
            hint = f"allowed: {sorted(allowed)}"
        else:
            hint = "this scheme takes no extra parameters"
        raise ConfigurationError(
            f"unknown parameter(s) {unknown} for scheme {scheme!r}; {hint}"
        )


def build_network(
    scheme: str,
    n_processors: int,
    n_memories: int,
    n_buses: int,
    **kwargs,
) -> MultipleBusNetwork:
    """Build a network by scheme name with the paper's default parameters.

    Parameters
    ----------
    scheme:
        ``"full"``, ``"single"``, ``"partial"``, ``"kclass"``,
        ``"crossbar"`` or ``"custom"``.
    kwargs:
        Scheme-specific overrides: ``bus_of_module`` (single),
        ``n_groups`` (partial, default 2), ``class_sizes`` and
        ``class_of_module`` (kclass, default ``K = B`` equal classes),
        ``generator`` (custom: a generator spec, see
        :mod:`repro.topology.generators`).

    Every parameter is strictly validated: unknown keyword arguments and
    non-integral spellings (floats, booleans) raise a typed
    :class:`ConfigurationError` instead of being silently coerced.
    """
    check_scheme_kwargs(scheme, kwargs)
    n_processors = _strict_int(n_processors, "number of processors")
    n_memories = _strict_int(n_memories, "number of memory modules")
    n_buses = _strict_int(n_buses, "number of buses")
    if scheme == "full":
        return FullBusMemoryNetwork(n_processors, n_memories, n_buses)
    if scheme == "single":
        if "bus_of_module" in kwargs:
            kwargs["bus_of_module"] = _strict_int_sequence(
                kwargs["bus_of_module"], "bus_of_module"
            )
        return SingleBusMemoryNetwork(n_processors, n_memories, n_buses, **kwargs)
    if scheme == "partial":
        n_groups = kwargs.get("n_groups", 2)
        return PartialBusNetwork(
            n_processors,
            n_memories,
            n_buses,
            n_groups=_strict_int(n_groups, "n_groups"),
        )
    if scheme == "kclass":
        if "class_sizes" in kwargs:
            kwargs["class_sizes"] = _strict_int_sequence(
                kwargs["class_sizes"], "class_sizes"
            )
        else:
            kwargs["class_sizes"] = equal_class_sizes(n_memories, n_buses)
        if "class_of_module" in kwargs:
            kwargs["class_of_module"] = _strict_int_sequence(
                kwargs["class_of_module"], "class_of_module"
            )
        return KClassPartialBusNetwork(
            n_processors, n_memories, n_buses, **kwargs
        )
    if scheme == "crossbar":
        return CrossbarNetwork(n_processors, n_memories)
    # scheme == "custom"
    if "generator" not in kwargs:
        raise ConfigurationError(
            "scheme 'custom' requires a 'generator' spec "
            "(see repro.topology.generators)"
        )
    from repro.topology.generators import generate_structure

    structure = generate_structure(
        kwargs["generator"], n_processors, n_memories, n_buses
    )
    return StructureNetwork(structure)


def paper_figure_networks() -> dict[str, MultipleBusNetwork]:
    """Return the four concrete topologies drawn in the paper's figures.

    Figures 1, 2 and 4 are generic ``N x M x B`` sketches — we instantiate
    them at ``8 x 8 x 4``; Figure 3 is the concrete ``3 x 6 x 4`` partial
    bus network with three classes.
    """
    return {
        "fig1_full": FullBusMemoryNetwork(8, 8, 4),
        "fig2_partial_g2": PartialBusNetwork(8, 8, 4, n_groups=2),
        "fig3_kclass_3x6x4": KClassPartialBusNetwork(
            3, 6, 4, class_sizes=[2, 2, 2]
        ),
        "fig4_single": SingleBusMemoryNetwork(8, 8, 4),
    }
