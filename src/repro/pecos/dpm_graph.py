"""Device dependency graphs for dpm ordering (§IV-B).

"As there may be dependency among devices, SnG calls them in the order
that dpm regulated."  The base :class:`DevicePMList` encodes that order
as a flat integer; real systems derive it from a dependency DAG (a
device must suspend before its parent bus, resume after it).  This
module builds the flat order from explicit dependency edges:

* ``(consumer, supplier)`` edges mean *consumer depends on supplier*
  (e.g. ``eth0`` depends on ``pcie0``);
* suspension must visit consumers before suppliers, resume the reverse —
  i.e. suspend order is a reverse topological sort of the supplier graph;
* cycles are configuration bugs and are rejected with the cycle printed.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.pecos.device import DeviceDriver, DevicePMList

__all__ = ["DependencyCycleError", "build_dpm_list", "suspend_order"]


class DependencyCycleError(ValueError):
    """The device dependency graph has a cycle."""


def suspend_order(
    drivers: Sequence[DeviceDriver],
    dependencies: Iterable[tuple[str, str]],
) -> list[str]:
    """Suspend-safe visiting order (consumers before their suppliers).

    ``dependencies`` holds (consumer, supplier) pairs.  Drivers not
    mentioned in any edge keep their relative declaration order, after
    all constrained drivers at the same depth.
    """
    by_name = {driver.name: driver for driver in drivers}
    # edge supplier -> consumer: supplier must still be up while the
    # consumer suspends, so the consumer comes first
    consumers: dict[str, list[str]] = {name: [] for name in by_name}
    suppliers: dict[str, list[str]] = {name: [] for name in by_name}
    for consumer, supplier in dependencies:
        for name in (consumer, supplier):
            if name not in by_name:
                raise ValueError(f"dependency names unknown driver {name!r}")
        if consumer not in consumers[supplier]:
            consumers[supplier].append(consumer)
            suppliers[consumer].append(supplier)
    # Kahn's sort of the supplier graph, always releasing the ready
    # driver with the smallest (dpm order, declaration index)
    index = {name: i for i, name in enumerate(by_name)}
    waiting = {name: len(suppliers[name]) for name in by_name}
    ready = [(by_name[name].order, index[name], name)
             for name in by_name if not waiting[name]]
    heapq.heapify(ready)
    ordered: list[str] = []
    while ready:
        name = heapq.heappop(ready)[2]
        ordered.append(name)
        for consumer in consumers[name]:
            waiting[consumer] -= 1
            if not waiting[consumer]:
                heapq.heappush(
                    ready, (by_name[consumer].order, index[consumer], consumer))
    if len(ordered) < len(by_name):
        cycle = _cycle([name for name in by_name if waiting[name]], suppliers)
        raise DependencyCycleError(
            f"device dependency cycle: {' -> '.join(cycle)}"
        )
    # reverse topological order of the supplier graph = consumers first
    ordered.reverse()
    return ordered


def _cycle(stuck: list[str], suppliers: dict[str, list[str]]) -> list[str]:
    """One cycle among the drivers the sort could not release, in
    supplier -> consumer order.

    Each stuck driver still waits on a stuck supplier, so walking
    suppliers from any of them must come back to a driver already seen.
    """
    stuck_set = set(stuck)
    seen: dict[str, int] = {}
    path: list[str] = []
    name = stuck[0]
    while name not in seen:
        seen[name] = len(path)
        path.append(name)
        name = next(s for s in suppliers[name] if s in stuck_set)
    cycle = path[seen[name]:]
    cycle.reverse()
    return cycle


def build_dpm_list(
    drivers: Sequence[DeviceDriver],
    dependencies: Iterable[tuple[str, str]] = (),
) -> DevicePMList:
    """A :class:`DevicePMList` whose order honours the dependency DAG."""
    order = suspend_order(drivers, dependencies)
    position = {name: index for index, name in enumerate(order)}
    for driver in drivers:
        driver.order = position[driver.name]
    return DevicePMList(list(drivers))
