"""Seeded model documents and evaluation points for the workloads.

Every workload draws its inputs from a :class:`Generator` built from
``--seed``.  The seed perturbs the scenario constants
(``SearchSortParameters``, ``RecursiveParameters``, ``PipelineParameters``,
``BookingParameters``) and the points; how many models and points a
workload uses never depends on it.  The program under test receives only
the generated documents and points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dsl.serializer import assembly_to_dict
from repro.scenarios import (
    PAPER_GAMMA_VALUES,
    PAPER_PHI1_VALUES,
    PAPER_PHI2,
    BookingParameters,
    PipelineParameters,
    RecursiveParameters,
    SearchSortParameters,
    booking_assembly,
    local_assembly,
    pipeline_assembly,
    recursive_assembly,
    remote_assembly,
)

#: kind -> (evaluated service, varied formal parameter, other formals,
#: integer range the varied parameter is drawn from)
KINDS = {
    "local": ("search", "list", {"elem": 1.0, "res": 1.0}, (1, 1000)),
    "remote": ("search", "list", {"elem": 1.0, "res": 1.0}, (1, 1000)),
    "recursive": ("A", "size", {}, (1, 100)),
    "pipeline": ("publish", "mb", {}, (1, 500)),
    "booking": ("booking", "itinerary", {}, (1, 20)),
}


@dataclass
class Model:
    """One generated model document and its evaluation target."""

    key: str
    kind: str
    params: object
    doc: dict
    service: str
    parameter: str
    fixed: dict = field(default_factory=dict)

    def point(self, value: float) -> dict:
        return {**self.fixed, self.parameter: float(value)}


class Generator:
    """Deterministic model and point source for one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._count = 0

    def _scale(self, low: float = 0.5, high: float = 2.0) -> float:
        return self.rng.uniform(low, high)

    def model(self, kind: str) -> Model:
        """A fresh perturbed variant of one scenario, as a document."""
        if kind in ("local", "remote"):
            params = SearchSortParameters(
                phi_search=1e-6 * self._scale(),
                phi_sort1=self.rng.choice(PAPER_PHI1_VALUES) * self._scale(0.8, 1.25),
                phi_sort2=PAPER_PHI2 * self._scale(),
                gamma=self.rng.choice(PAPER_GAMMA_VALUES) * self._scale(0.8, 1.25),
                q=self.rng.uniform(0.5, 0.95),
                bandwidth=1e3 * self._scale(),
            )
            assembly = (local_assembly if kind == "local" else remote_assembly)(params)
        elif kind == "recursive":
            params = RecursiveParameters(
                internal_a=1e-3 * self._scale(),
                internal_b=2e-3 * self._scale(),
                recursion_probability=self.rng.uniform(0.45, 0.55),
            )
            assembly = recursive_assembly(params)
        elif kind == "pipeline":
            params = PipelineParameters(
                phi_transcode=1e-9 * self._scale(),
                phi_cdn=1e-9 * self._scale(),
                net_failure_rate=1e-4 * self._scale(),
                encode_work=5e4 * self._scale(),
            )
            assembly = pipeline_assembly(params)
        elif kind == "booking":
            params = BookingParameters(
                phi_flights_a=2e-6 * self._scale(),
                phi_hotel=1e-6 * self._scale(),
                net_failure_rate=2e-3 * self._scale(),
                hotel_probability=self.rng.uniform(0.5, 0.9),
            )
            assembly = booking_assembly(params)
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        service, parameter, fixed, _ = KINDS[kind]
        self._count += 1
        return Model(
            f"{kind}-{self._count}", kind, params, assembly_to_dict(assembly),
            service, parameter, dict(fixed),
        )

    def values(self, model: Model, n: int, distinct: int | None = None) -> list[float]:
        """``n`` values of the model's varied parameter; with ``distinct``
        they repeat a pool of that many (keeps numeric references cheap)."""
        low, high = KINDS[model.kind][3]
        if distinct is None:
            return [float(self.rng.randint(low, high)) for _ in range(n)]
        pool = [float(self.rng.randint(low, high)) for _ in range(distinct)]
        return [self.rng.choice(pool) for _ in range(n)]

    def choice(self, seq):
        return self.rng.choice(seq)

    def grid_stop(self, model: Model) -> float:
        """Upper end of a sweep grid over the model's varied parameter."""
        low, high = KINDS[model.kind][3]
        return float(self.rng.randint((low + high) // 5, high))
