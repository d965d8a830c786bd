"""Span tracing of the mpadmm layers, installed from outside the package.

A `Tracer` replaces chosen module and class attributes of `mpadmm` with
timing wrappers.  The package looks these attributes up at call time, so
every call made while the tracer is installed records a span: name,
start, end, parent span and an optional note computed from the
arguments.  Spans stay in memory; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _u_rows(V, Z, *args, **kwargs):
    return Z.shape[0]


def _v_cols(U, masks, *args, **kwargs):
    return len(masks.col_rows)


def _f1_shape(F1, F2, k, *args, **kwargs):
    return (F1.shape[0], F1.shape[1], k)


def targets(mpadmm) -> list:
    """(owner, attribute, span name, note) for every traced boundary.

    `next_u64` is deliberately absent: it runs once per random draw.
    """
    admm, base, data, obj, rng = (mpadmm.admm, mpadmm.baselines,
                                  mpadmm.data, mpadmm.objective, mpadmm.rng)
    out = [(data, "generate_synthetic", "data.generate_synthetic", None),
           (data.PartialMatrix, "to_dense_zero_filled",
            "data.to_dense_zero_filled", None)]
    out += [(rng.Xoshiro256pp, name, "rng." + name, None)
            for name in ("uniform_matrix", "normal_matrix",
                         "sample_without_replacement")]
    out += [(admm, "solve", "admm.solve", None),
            (admm.ObservationMasks, "from_partial", "admm.masks", None),
            (admm, "update_U", "admm.update_U", _u_rows),
            (admm, "update_V", "admm.update_V", _v_cols)]
    out += [(admm, name, "admm." + name, None)
            for name in ("update_P", "update_Z",
                         "update_duals", "primal_residuals", "dual_residual")]
    out += [(admm, "truncated_svd", "linalg.truncated_svd", None),
            (admm, "symmetric_eig_topk_factored", "linalg.eig_factored",
             _f1_shape),
            (admm, "build_pgram_operator", "linalg.pgram_build", None),
            (admm, "apply_projection", "linalg.apply_projection", None),
            (obj, "objective_svd", "objective.objective_svd", None),
            (obj, "evaluate", "objective.evaluate", None)]
    out += [(base, name, "baselines." + name, None)
            for name in ("iterative_svd", "soft_impute", "scaled_gd",
                         "scaled_gd_gradients", "scaled_gd_loss")]
    out += [(base, "soft_threshold_svd", "linalg.soft_threshold_svd", None),
            (base, "ols_alpha", "objective.ols_alpha", None)]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn: Callable, name: str,
              note: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        note(*args, **kwargs) if note else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def install(self, entries) -> None:
        for owner, attr, name, note in entries:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, note))
            else:
                new = self._wrap(raw, name, note)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- queries -------------------------------------------------------

    def select(self, name: str, parent: Optional[str] = None) -> list:
        return [s for s in self.spans if s.name == name and
                (parent is None or
                 (s.parent >= 0 and self.spans[s.parent].name == parent))]

    def busy(self, name: str, parent: Optional[str] = None) -> float:
        return sum(s.duration for s in self.select(name, parent))

    def calls(self, name: str, parent: Optional[str] = None) -> int:
        return len(self.select(name, parent))

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus the time their direct
        children cover (overlapping children are merged first)."""
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span.name != name:
                continue
            kids = sorted((c.start, c.end) for c in self.spans
                          if c.parent == idx)
            covered, edge = 0.0, span.start
            for start, end in kids:
                start = max(start, edge)
                if end > start:
                    covered += end - start
                    edge = end
            total += span.duration - covered
        return total
