"""Machine descriptions: the VLIW configurations the paper evaluates.

Covers Section 5's machine models and Section 3.2's hardware-cost
argument: :mod:`~repro.machine.resources` defines functional-unit pools
(adders, multipliers, memory ports), :mod:`~repro.machine.config` builds
the named configurations -- :func:`paper_config` (the 2-cluster machine
of Section 5.2), :func:`pxly` (the Table 1 grid), :func:`example_config`
(Section 4.1), :func:`clustered_config` (the N-cluster generalization) --
and :mod:`~repro.machine.costmodel` prices register-file organizations
(area, access time, specifier bits) to make the "cheaper than doubling"
conclusion concrete.

Key entry points: :func:`paper_config`, :func:`pxly`,
:func:`example_config`, and :func:`compare_organizations`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_attributes

from repro.machine.config import (
    ConfigError,
    MachineConfig,
    clustered_config,
    example_config,
    paper_config,
    pxly,
)
from repro.machine.resources import (
    ADDER,
    LOAD_PORT,
    MEM,
    MULT,
    ResourcePool,
    STORE_PORT,
)

if TYPE_CHECKING:
    from repro.machine.costmodel import (
        CostModel,
        OrganizationCost,
        RegisterFileGeometry,
        compare_organizations,
    )

#: Names of the register-file cost model, imported on first access
#: (PEP 562): building a machine never loads it.
_LAZY: dict[str, str] = {
    "CostModel": "repro.machine.costmodel",
    "OrganizationCost": "repro.machine.costmodel",
    "RegisterFileGeometry": "repro.machine.costmodel",
    "compare_organizations": "repro.machine.costmodel",
}

__all__ = [
    "ADDER",
    "ConfigError",
    "CostModel",
    "LOAD_PORT",
    "MEM",
    "MULT",
    "MachineConfig",
    "OrganizationCost",
    "clustered_config",
    "RegisterFileGeometry",
    "ResourcePool",
    "STORE_PORT",
    "compare_organizations",
    "example_config",
    "paper_config",
    "pxly",
]


__getattr__, __dir__ = lazy_attributes(__name__, _LAZY)
