"""One timing mechanism for the benchmark: operations and nested spans.

Every operation is timed with ``time.perf_counter``, traced or not; its
duration feeds the end-to-end metrics. With tracing on, ``span`` also records
each call into a layer as a span (name, start, end, parent span, operation id,
tags). Spans stay in memory until the run ends.
"""

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    workload: str
    tags: dict = field(default_factory=dict)
    child_ms: float = 0.0  # time covered by direct child spans

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def self_ms(self) -> float:
        return self.ms - self.child_ms



class Recorder:
    """Operation timings, pass/fail bookkeeping and (optionally) spans."""

    def __init__(self, trace: bool = False, workload: str = ""):
        self.trace = trace
        self.workload = workload
        self.spans: list[Span | None] = []
        self.op_ms: list[float] = []
        self.failed_kinds: list[str] = []
        self.round_ends: list[int] = []  # len(op_ms) after each round
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._child_ms: dict[int, float] = {}
        self._op: int | None = None

    @property
    def attempted(self) -> int:
        return len(self.op_ms)

    @property
    def failed(self) -> int:
        return len(self.failed_kinds)

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        """Record the enclosed block as a span; a no-op unless tracing.

        Yields the span's tag dict, so the block can add what it learned
        (a verdict, say) after the call returns.
        """
        if not self.trace:
            yield {}
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the index so children can name their parent
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield tags
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = Span(name, start, end, parent, self._op, self.workload, tags,
                        self._child_ms.pop(index, 0.0))
            if parent is not None:
                self._child_ms[parent] = self._child_ms.get(parent, 0.0) + span.ms
            self.spans[index] = span

    @contextlib.contextmanager
    def op(self, kind: str):
        """Time one operation. Its duration is kept even if the block raises."""
        self._op = len(self.op_ms)
        start = time.perf_counter()
        try:
            with self.span("op", kind=kind):
                yield
        finally:
            self.op_ms.append((time.perf_counter() - start) * 1e3)
            self._op = None

    def end_round(self) -> None:
        self.round_ends.append(len(self.op_ms))

    def rounds(self) -> list[list[float]]:
        """Operation times grouped by round."""
        starts = [0] + self.round_ends[:-1]
        return [self.op_ms[a:b] for a, b in zip(starts, self.round_ends)]

    def fail_op(self, kind: str) -> None:
        """Count the last operation as failed: a known fault, not a broken check."""
        self.failed_kinds.append(kind)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.errors.append(what)
        return ok

    def close(self, actual, expected, tol: float, what: str) -> bool:
        """Check |actual - expected| <= tol; NaN or a missing value fails."""
        try:
            diff = abs(float(actual) - float(expected))
        except (TypeError, ValueError):
            return self.check(False, f"{what}: got {actual!r}, want {expected!r}")
        return self.check(diff <= tol, f"{what}: got {actual!r}, want {expected!r} (|diff| {diff:.3g} > {tol:.0e})")

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]
