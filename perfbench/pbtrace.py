"""Layer spans recorded from outside the program, by wrapping public entry points.

:class:`LayerTracer` replaces each layer's entry point with a timing wrapper
and restores the original on :meth:`LayerTracer.uninstall`.  It patches
the binding the caller actually uses: ``engine.session`` imports
``run_trial``, ``run_specs_vectorized`` and ``plan_specs`` by name, so those
are patched in the session module (and in ``engine.trial`` / ``engine.pool``
for the other callers); ``trial_key`` is imported by the session at call
time, so the ``store.keys`` attribute is the one to patch.  Methods are
patched on their class.

Spans nest through a per-thread stack; each records its parent so self time
(:func:`pbmath.self_times`) can subtract the union of its children.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

from pbmath import Span


class LayerTracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        items: Callable[[tuple, Any], int] | None = None,
        info: Callable[[tuple, Any], tuple] | None = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span of ``layer``.

        ``items(args, result)`` counts the work items in one call (queries,
        specs, rows); ``info(args, result)`` keeps extra per-call facts.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)  # reserve the index; filled on exit
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = Span(
                    index=index,
                    parent=parent,
                    layer=layer,
                    name=f"{layer}.{attribute}",
                    start=start,
                    end=end,
                    items=items(args, result) if items is not None and result is not None else 1,
                    info=info(args, result) if info is not None and result is not None else (),
                )

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install_repro_layers(self) -> None:
        """Wrap the entry points of every layer the benchmark attributes time to."""
        import repro.engine.pool as pool_module
        import repro.engine.session as session_module
        import repro.engine.trial as trial_module
        import repro.store.keys as keys_module
        from repro.geometry.kernel import GammaKernel
        from repro.store.backend import SqliteResultStore

        def batch_size(args: tuple, _result: Any) -> int:
            return len(args[1])  # the sequence after ``self``

        self.wrap(GammaKernel, "point", "kernel")
        self.wrap(GammaKernel, "points_batch", "kernel", items=batch_size)
        self.wrap(GammaKernel, "points_multi", "kernel", items=batch_size)
        for module in (session_module, pool_module):
            self.wrap(module, "run_specs_vectorized", "vectorized",
                      items=lambda args, _result: len(args[0]))

        def trial_facts(_args: tuple, result: Any) -> tuple:
            return (result.messages_sent or 0, result.rounds or 0)

        for module in (session_module, trial_module):
            self.wrap(module, "run_trial", "object", info=trial_facts)
        self.wrap(session_module, "plan_specs", "session")
        self.wrap(keys_module, "trial_key", "session")
        self.wrap(SqliteResultStore, "put_rows", "store", items=batch_size)
        self.wrap(SqliteResultStore, "get_rows", "store", items=batch_size)
        self.wrap(SqliteResultStore, "contains_keys", "store", items=batch_size)
        self.wrap(SqliteResultStore, "claim_keys", "store", items=batch_size)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def mark(self) -> int:
        """Index of the next span: spans recorded after a mark form one phase."""
        return len(self.spans)
