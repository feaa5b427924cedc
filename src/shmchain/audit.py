"""Overhead audit engine.

Two halves. The static half holds per-step cost models for fourteen data
plane variants (legacy chain pipelines a-h, shared-memory chain pipelines
alpha/beta/gamma/delta, and the two unified handoff designs) and answers
``predict`` and ``extrapolate`` queries from them. The dynamic half is an
append-only ledger the instrumented pipelines write into, plus ``verify``,
which checks measured per-trace totals against the model.

Event category semantics used by every instrumented site:

* copy: any CPU duplication of payload bytes (emulated DMA is not a copy)
* interrupt: a wakeup that makes a blocked context runnable; each event hop
  records one, the model's per-hop cost, though the event transport signals
  its eventfd only when the receiver is actually blocked
* context switch: a blocking receive returning on the audited path
* protocol task: one pass of the host transport stack at broker ingress/egress
* serde task: one HTTP parse or serialize
* l2l3 task: one L2/L3 forwarding decision outside the chain functions

What a crossing between two event-driven functions costs is decided here,
for the ``beta`` and ``delta`` models and the chains that run them. Each
stage routes its own survivors and sends them straight into the next
function's inbox from its own thread, as eBPF's SK_MSG redirect runs inside
the sender's own send; no thread sits between two functions. So:

* a descriptor move costs the receiver's wakeup, one interrupt and one
  context switch, charged to the step into the receiver (``to_fn``);
* the sender's side costs nothing (``from_fn`` is zero), because the send
  runs in the sender's own context. A from-function step is never recorded
  on its own, as no receive stands behind it;
* ``beta``'s ingress is the NIC's delivery interrupt only: the hop into
  the first function is that function's ``to_fn``;
* every egress step is what it was with a router between the functions.

Per trace, ``beta`` then costs 2+N interrupts and 1+N context switches for
N functions, and ``delta`` 3+N and 2+N; through a router each function
cost two crossings, 3+2N interrupts and 2+2N context switches in both.
"""

from __future__ import annotations

import csv
import threading
from collections import Counter
from dataclasses import dataclass, field, fields

from .errors import IncompleteTrace, UnknownModel

COPIES = "copies"
INTERRUPTS = "interrupts"
CONTEXT_SWITCHES = "context_switches"
PROTOCOL_TASKS = "protocol_tasks"
SERDE_TASKS = "serde_tasks"
L2L3_TASKS = "l2l3_tasks"

CATEGORIES = (COPIES, INTERRUPTS, CONTEXT_SWITCHES,
              PROTOCOL_TASKS, SERDE_TASKS, L2L3_TASKS)


@dataclass(frozen=True)
class CostVector:
    copies: int = 0
    interrupts: int = 0
    context_switches: int = 0
    protocol_tasks: int = 0
    serde_tasks: int = 0
    l2l3_tasks: int = 0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(*(getattr(self, c) + getattr(other, c) for c in CATEGORIES))

    def scaled(self, n: int) -> "CostVector":
        return CostVector(*(getattr(self, c) * n for c in CATEGORIES))

    def get(self, category: str) -> int:
        if category not in CATEGORIES:
            raise KeyError(category)
        return getattr(self, category)

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in CATEGORIES}


ZERO = CostVector()


def _cv(copies=0, interrupts=0, ctx=0, protocol=0, serde=0, l2l3=0) -> CostVector:
    return CostVector(copies, interrupts, ctx, protocol, serde, l2l3)


@dataclass(frozen=True)
class PipelineModel:
    """Per-step cost model of one data plane variant.

    Chain models carry six steps in pipeline order for the reference
    two-function chain: ingress, four descriptor movements within the chain
    (to fn-1, from fn-1, to fn-2, from fn-2), egress. Handoff models carry a
    single step. The chain steps are uniform per function, which is what
    makes closed-form extrapolation to other chain lengths possible.
    """

    model_id: str
    title: str
    categories: tuple[str, ...]
    steps: tuple[CostVector, ...]
    kind: str = "chain"  # "chain" | "handoff"
    group: str = ""

    def totals(self) -> CostVector:
        total = ZERO
        for step in self.steps:
            total = total + step
        return total

    @property
    def ingress(self) -> CostVector:
        return self.steps[0]

    @property
    def egress(self) -> CostVector:
        return self.steps[-1]

    def per_function(self) -> CostVector:
        """Cost added by each chain function (descriptor in plus out)."""
        if self.kind != "chain":
            return ZERO
        return self.steps[1] + self.steps[2]


def _chain(model_id, title, categories, group, ingress, to_fn, from_fn, egress):
    return PipelineModel(
        model_id, title, categories,
        (ingress, to_fn, from_fn, to_fn, from_fn, egress),
        kind="chain", group=group,
    )


_L2L3_CATS = (COPIES, INTERRUPTS, CONTEXT_SWITCHES)
_L4L7_CATS = CATEGORIES
_SHM_L4L7_CATS = (COPIES, INTERRUPTS, CONTEXT_SWITCHES, PROTOCOL_TASKS, SERDE_TASKS)
_UNIFIED_CATS = (INTERRUPTS, COPIES, CONTEXT_SWITCHES)

# Legacy chain pipelines: every packet is copied on each move between the
# switching component and a function; kernel-path variants add an interrupt
# and a context switch per crossing, and the L4/L7 variants pay protocol and
# serde work at every function boundary.
_MODELS = [
    _chain("a", "kernel vSwitch + virtio-user/vhost-net + TUN/TAP + VM",
           _L2L3_CATS, "l2l3_legacy",
           ingress=_cv(interrupts=1), to_fn=_cv(copies=1, interrupts=1, ctx=1),
           from_fn=_cv(copies=1, interrupts=1, ctx=1), egress=ZERO),
    _chain("b", "kernel vSwitch + virtio-user/vhost-net + TUN/TAP + container",
           _L2L3_CATS, "l2l3_legacy",
           ingress=_cv(interrupts=1), to_fn=_cv(copies=1, interrupts=1, ctx=1),
           from_fn=_cv(copies=1, interrupts=1, ctx=1), egress=ZERO),
    _chain("e", "userspace vSwitch + virtio-user/vhost-user + VM",
           _L2L3_CATS, "l2l3_legacy",
           ingress=ZERO, to_fn=_cv(copies=1), from_fn=_cv(copies=1), egress=ZERO),
    _chain("f", "userspace vSwitch + virtio-user/vhost-user + container",
           _L2L3_CATS, "l2l3_legacy",
           ingress=ZERO, to_fn=_cv(copies=1), from_fn=_cv(copies=1), egress=ZERO),
    _chain("c", "kernel vSwitch + virtio-net/vhost-net + TUN/TAP + VM",
           _L4L7_CATS, "l4l7_legacy",
           ingress=_cv(interrupts=1),
           to_fn=_cv(copies=2, interrupts=2, ctx=2, protocol=1, serde=1, l2l3=2),
           from_fn=_cv(copies=2, interrupts=2, ctx=2, protocol=1, serde=1, l2l3=1),
           egress=_cv(l2l3=1)),
    _chain("d", "kernel vSwitch + veth + container",
           _L4L7_CATS, "l4l7_legacy",
           ingress=_cv(interrupts=1),
           to_fn=_cv(copies=1, interrupts=2, ctx=1, protocol=1, serde=1, l2l3=1),
           from_fn=_cv(copies=1, interrupts=2, ctx=1, protocol=1, serde=1),
           egress=_cv(l2l3=1)),
    _chain("g", "userspace vSwitch + virtio-net/vhost-user + VM",
           _L4L7_CATS, "l4l7_legacy",
           ingress=ZERO,
           to_fn=_cv(copies=2, interrupts=2, ctx=1, protocol=1, serde=1, l2l3=2),
           from_fn=_cv(copies=2, interrupts=2, ctx=1, protocol=1, serde=1, l2l3=1),
           egress=_cv(l2l3=1)),
    _chain("h", "userspace vSwitch + virtio-user/vhost-net + TUN/TAP + veth + container",
           _L4L7_CATS, "l4l7_legacy",
           ingress=ZERO,
           to_fn=_cv(copies=2, interrupts=3, ctx=2, protocol=1, serde=1, l2l3=1),
           from_fn=_cv(copies=2, interrupts=3, ctx=2, protocol=1, serde=1),
           egress=_cv(l2l3=1)),
    # Shared-memory chains: descriptors move, payload stays put.
    _chain("alpha", "polling NIC bypass + polling descriptor rings",
           _L2L3_CATS, "l2l3_shm",
           ingress=ZERO, to_fn=ZERO, from_fn=ZERO, egress=ZERO),
    _chain("beta", "event-driven NIC path + event-driven descriptor hops",
           _L2L3_CATS, "l2l3_shm",
           ingress=_cv(interrupts=1),
           to_fn=_cv(interrupts=1, ctx=1), from_fn=ZERO,
           egress=_cv(interrupts=1, ctx=1)),
    _chain("gamma", "kernel-stack broker + polling descriptor rings",
           _SHM_L4L7_CATS, "l4l7_shm",
           ingress=_cv(copies=2, interrupts=2, ctx=1, protocol=1, serde=1),
           to_fn=ZERO, from_fn=ZERO,
           egress=_cv(copies=2, interrupts=1, ctx=1, protocol=1, serde=1)),
    _chain("delta", "kernel-stack broker + event-driven descriptor hops",
           _SHM_L4L7_CATS, "l4l7_shm",
           ingress=_cv(copies=2, interrupts=2, ctx=1, protocol=1, serde=1),
           to_fn=_cv(interrupts=1, ctx=1), from_fn=ZERO,
           egress=_cv(copies=2, interrupts=1, ctx=1, protocol=1, serde=1)),
    # Plane-to-plane bridging alternatives.
    PipelineModel("unified_hw", "NIC-switch handoff between planes",
                  _UNIFIED_CATS, (_cv(copies=1, interrupts=2, ctx=1),),
                  kind="handoff", group="unified"),
    PipelineModel("unified_sw", "virtio-user/vhost-net + TUN/TAP handoff",
                  _UNIFIED_CATS, (_cv(copies=2, interrupts=2, ctx=2),),
                  kind="handoff", group="unified"),
]

MODELS: dict[str, PipelineModel] = {m.model_id: m for m in _MODELS}

_ALIASES = {"α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta"}

MODEL_GROUPS = {
    "l2l3_legacy": ("a", "b", "e", "f"),
    "l4l7_legacy": ("c", "d", "g", "h"),
    "unified": ("unified_hw", "unified_sw"),
    "l2l3_shm": ("alpha", "beta"),
    "l4l7_shm": ("gamma", "delta"),
}


def get_model(model_id: str) -> PipelineModel:
    key = _ALIASES.get(model_id, model_id)
    try:
        return MODELS[key]
    except KeyError:
        raise UnknownModel(model_id) from None


def predict(model_id: str) -> PipelineModel:
    """Per-step cost vectors and totals for the reference chain length."""
    return get_model(model_id)


def extrapolate(model_id: str, chain_len: int) -> CostVector:
    """Closed-form totals for a chain of ``chain_len`` functions.

    Fixed ingress/egress vectors plus the per-function vector times the
    function count; equals ``predict`` totals at the reference length of two.
    Handoff models have no chain, so their totals are length-independent.
    """
    if chain_len < 1:
        raise ValueError("chain_len must be >= 1")
    model = get_model(model_id)
    if model.kind == "handoff":
        return model.totals()
    return model.ingress + model.egress + model.per_function().scaled(chain_len)


# ---------------------------------------------------------------------------
# Runtime ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerRecord:
    trace_id: object
    step: int
    category: str
    amount: int


class AuditLedger:
    """Append-only per-(trace, step) event counters.

    ``record`` is safe from any context; aggregation is exact integer
    arithmetic over the raw records.
    """

    def __init__(self):
        self._records: list[LedgerRecord] = []
        self._totals: dict[object, dict[str, int]] = {}
        self._completed: dict[object, str] = {}
        self._lock = threading.Lock()

    def record(self, trace_id, step: int, category: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("amount must be >= 0")
        if category not in CATEGORIES:
            raise KeyError(category)
        with self._lock:
            self._records.append(LedgerRecord(trace_id, step, category, amount))
            per = self._totals.setdefault(trace_id, {})
            per[category] = per.get(category, 0) + amount

    def record_vector(self, trace_id, step: int, cost: CostVector) -> None:
        for category in CATEGORIES:
            amount = cost.get(category)
            if amount:
                self.record(trace_id, step, category, amount)

    def record_hop(self, trace_id, step: int) -> None:
        self.record(trace_id, step, INTERRUPTS, 1)
        self.record(trace_id, step, CONTEXT_SWITCHES, 1)

    def complete(self, trace_id, outcome: str = "egress") -> None:
        with self._lock:
            self._completed[trace_id] = outcome
            self._totals.setdefault(trace_id, {})

    def is_complete(self, trace_id) -> bool:
        with self._lock:
            return trace_id in self._completed

    def completed_ids(self, outcome: str | None = None) -> list:
        with self._lock:
            if outcome is None:
                return list(self._completed)
            return [t for t, o in self._completed.items() if o == outcome]

    def trace_total(self, trace_id) -> CostVector:
        with self._lock:
            per = self._totals.get(trace_id, {})
            return CostVector(**{c: per.get(c, 0) for c in CATEGORIES})

    def record_count(self) -> int:
        with self._lock:
            return len(self._records)

    def dump_csv(self, path) -> None:
        with self._lock:
            records = list(self._records)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trace_id", "step", "category", "amount"])
            for rec in records:
                writer.writerow([rec.trace_id, rec.step, rec.category, rec.amount])

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._totals.clear()
            self._completed.clear()


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class CategoryCheck:
    category: str
    predicted: int
    measured: int
    passed: bool

    @property
    def delta(self) -> int:
        return self.measured - self.predicted


@dataclass
class VerificationReport:
    model_id: str
    chain_len: int
    trace_count: int
    checks: list[CategoryCheck]
    stray: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and not self.stray

    def as_dict(self) -> dict:
        return {
            "model": self.model_id,
            "chain_len": self.chain_len,
            "traces": self.trace_count,
            "passed": self.passed,
            "categories": {
                c.category: {"predicted": c.predicted, "measured": c.measured,
                             "passed": c.passed, "delta": c.delta}
                for c in self.checks
            },
            "stray": self.stray,
        }

    def render_text(self) -> str:
        lines = [f"model {self.model_id} over {self.trace_count} traces "
                 f"(chain length {self.chain_len})"]
        for c in self.checks:
            mark = "ok" if c.passed else f"FAIL delta={c.delta:+d}"
            lines.append(f"  {c.category:<18} predicted {c.predicted:>3} "
                         f"measured {c.measured:>3}  {mark}")
        for cat, measured in self.stray.items():
            lines.append(f"  {cat:<18} predicted   0 measured {measured:>3}  FAIL stray")
        return "\n".join(lines)


def verify(ledger: AuditLedger, model_id: str, trace_ids=None,
           chain_len: int = 2) -> VerificationReport:
    """Compare measured per-trace modal totals against the model.

    The mode of the per-trace totals is used per category, which sheds
    warmup or shutdown stragglers without averaging away real discrepancies.
    """
    model = get_model(model_id)
    expected = extrapolate(model_id, chain_len)
    if trace_ids is None:
        trace_ids = ledger.completed_ids("egress")
    trace_ids = list(trace_ids)
    if not trace_ids:
        raise IncompleteTrace("no traces to verify")
    missing = [t for t in trace_ids if not ledger.is_complete(t)]
    if missing:
        raise IncompleteTrace(f"{len(missing)} traces not complete, e.g. {missing[0]}")

    totals = [ledger.trace_total(t) for t in trace_ids]
    checks = []
    for category in model.categories:
        mode_value = Counter(t.get(category) for t in totals).most_common(1)[0][0]
        predicted = expected.get(category)
        checks.append(CategoryCheck(category, predicted, mode_value,
                                    mode_value == predicted))
    stray = {}
    for category in CATEGORIES:
        if category in model.categories:
            continue
        mode_value = Counter(t.get(category) for t in totals).most_common(1)[0][0]
        if mode_value != 0:
            stray[category] = mode_value
    return VerificationReport(model.model_id, chain_len, len(trace_ids), checks, stray)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_STEP_HEADERS = ("in", "out", "to-f1", "fr-f1", "to-f2", "fr-f2")
# printed column order: the two steps outside the chain, then the four within
_STEP_ORDER = (0, 5, 1, 2, 3, 4)


def render_model_table(model_ids) -> str:
    """Aligned text table of per-step costs, rows grouped by category."""
    models = [get_model(m) for m in model_ids]
    categories: list[str] = []
    for model in models:
        for cat in model.categories:
            if cat not in categories:
                categories.append(cat)
    lines = []
    if all(m.kind == "handoff" for m in models):
        width = max(len(m.model_id) for m in models) + 2
        header = " " * 18 + "".join(f"{m.model_id:>{width}}" for m in models)
        lines.append(header)
        for cat in categories:
            row = f"{cat:<18}" + "".join(
                f"{m.totals().get(cat):>{width}}" for m in models)
            lines.append(row)
        return "\n".join(lines)

    head = f"{'category':<18}{'model':<8}" + "".join(f"{h:>7}" for h in _STEP_HEADERS)
    head += f"{'total':>7}"
    lines.append(head)
    for cat in categories:
        for model in models:
            cells = [model.steps[i].get(cat) for i in _STEP_ORDER]
            row = f"{cat:<18}{model.model_id:<8}" + "".join(f"{c:>7}" for c in cells)
            row += f"{model.totals().get(cat):>7}"
            lines.append(row)
    return "\n".join(lines)


def predict_as_dict(model_id: str) -> dict:
    model = get_model(model_id)
    return {
        "model": model.model_id,
        "title": model.title,
        "kind": model.kind,
        "categories": list(model.categories),
        "steps": [s.as_dict() for s in model.steps],
        "totals": model.totals().as_dict(),
    }
