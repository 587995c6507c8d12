"""Power/energy modelling and PSU hold-up behaviour."""

from repro.power.model import (
    COMPONENT_SPECS,
    ComponentSpec,
    PowerModel,
    PowerReport,
)
from repro.power.psu import ATX_PSU, SERVER_PSU, PSUModel

__all__ = [
    "ATX_PSU",
    "COMPONENT_SPECS",
    "ComponentSpec",
    "PSUModel",
    "PowerModel",
    "PowerReport",
    "SERVER_PSU",
]
