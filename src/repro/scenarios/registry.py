"""The scenario registry: every runnable experiment, by name.

One process-wide :class:`ScenarioRegistry` (:data:`REGISTRY`) holds every
declared :class:`~repro.scenarios.spec.Scenario`.  The built-in library
(:mod:`repro.scenarios.library`) registers the four paper experiments and
the other built-in sweeps on import; downstream code adds its own with
:func:`register` and they immediately appear in ``repro scenario list`` --
no CLI or driver changes required.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.scenarios.spec import Scenario


class UnknownScenarioError(KeyError):
    """Raised when looking up a scenario name that was never registered."""


class ScenarioRegistry:
    """Name -> :class:`Scenario` mapping with first-registration order."""

    def __init__(self):
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario, replace: bool = False) -> Scenario:
        """Add one scenario; re-registering a name needs ``replace=True``."""
        if scenario.name in self._scenarios and not replace:
            raise ValueError(f"scenario {scenario.name!r} is already registered "
                             f"(pass replace=True to override)")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up one scenario by name."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise UnknownScenarioError(
                f"unknown scenario {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())


#: The process-wide registry every CLI command and test consults.
REGISTRY = ScenarioRegistry()


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Register ``scenario`` in the process-wide :data:`REGISTRY`."""
    return REGISTRY.register(scenario, replace=replace)
