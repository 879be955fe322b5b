"""Reference values every benchmark op is checked against.

- Figure 6 variants (``local`` / ``remote``): the paper's closed forms,
  eqs. 15-22 (:mod:`repro.scenarios.search_sort_closed_forms`), with the
  variant's own ``SearchSortParameters``;
- recursive variants: the exact fixed point ``closed_form_pfail``;
- pipeline and booking variants: the numeric ``ReliabilityEvaluator``,
  computed by :meth:`Oracle.prepare` before timing starts.

A result off its reference makes the op fail; it is never skipped.
"""

from __future__ import annotations

import numpy as np

from repro.dsl import assembly_from_dict
from repro.scenarios import closed_form_pfail
from repro.scenarios.search_sort_closed_forms import (
    pfail_search_local,
    pfail_search_remote,
)

from inputs import Model

CLOSED_FORMS = {"local": pfail_search_local, "remote": pfail_search_remote}


class Oracle:
    """Expected ``Pfail`` for (model, value) pairs."""

    def __init__(self) -> None:
        self._numeric: dict[tuple[str, float], float] = {}

    def prepare(self, model: Model, values) -> None:
        """Compute numeric references for models without a closed form."""
        if model.kind not in ("pipeline", "booking"):
            return
        from repro.core.evaluator import ReliabilityEvaluator

        evaluator = None
        for value in values:
            key = (model.key, float(value))
            if key in self._numeric:
                continue
            if evaluator is None:
                evaluator = ReliabilityEvaluator(assembly_from_dict(model.doc))
            self._numeric[key] = evaluator.pfail(
                model.service, **model.point(value)
            )

    def expected(self, model: Model, values) -> np.ndarray:
        """Reference ``Pfail`` at each value of the model's parameter."""
        grid = np.asarray(values, dtype=float)
        if model.kind in CLOSED_FORMS:
            fixed = model.fixed
            return np.asarray(
                CLOSED_FORMS[model.kind](grid, model.params, fixed["elem"], fixed["res"]),
                dtype=float,
            )
        if model.kind == "recursive":
            return np.full(grid.shape, closed_form_pfail(model.params)[0])
        try:
            return np.array([self._numeric[(model.key, float(v))] for v in grid])
        except KeyError as exc:
            raise RuntimeError(
                f"no numeric reference prepared for {model.key} at {exc}"
            ) from None
