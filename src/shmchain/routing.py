"""Routing and descriptor-filter tables shared by both chain planes."""

from __future__ import annotations

import threading

from .descriptors import EGRESS
from .errors import CycleDetected

ALLOW = "allow"
DENY = "deny"


class RoutingTable:
    """current function -> next hop (function id or EGRESS); acyclic."""

    def __init__(self):
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()

    def set_route(self, from_fn: str, to: str) -> None:
        with self._lock:
            candidate = dict(self._entries)
            candidate[from_fn] = to
            # walk from the new edge; revisiting from_fn closes a loop
            seen = {from_fn}
            cur = to
            while cur != EGRESS:
                if cur in seen:
                    raise CycleDetected(f"{from_fn} -> {to} closes a loop")
                seen.add(cur)
                nxt = candidate.get(cur)
                if nxt is None:
                    break
                cur = nxt
            # swap wholesale so concurrent routing steps never see a torn table
            self._entries = candidate

    def next_hop(self, fn_id: str) -> str | None:
        return self._entries.get(fn_id)


class FilterTable:
    """(src_fn, dst_fn) -> allow/deny with a deny default.

    Lookups are total: pairs without an explicit rule get the default. Planes
    install an allow rule alongside each route, so deny rules are the
    explicit exceptions, exactly like an admission list.
    """

    def __init__(self, default: str = DENY):
        if default not in (ALLOW, DENY):
            raise ValueError(default)
        self._rules: dict[tuple[str, str], str] = {}
        self._default = default
        self._lock = threading.Lock()

    def set(self, src_fn: str, dst_fn: str, verdict: str) -> None:
        if verdict not in (ALLOW, DENY):
            raise ValueError(f"verdict must be allow or deny, got {verdict!r}")
        with self._lock:
            rules = dict(self._rules)
            rules[(src_fn, dst_fn)] = verdict
            self._rules = rules

    def allow(self, src_fn: str, dst_fn: str) -> None:
        self.set(src_fn, dst_fn, ALLOW)

    def deny(self, src_fn: str, dst_fn: str) -> None:
        self.set(src_fn, dst_fn, DENY)

    def check(self, src_fn: str, dst_fn: str) -> bool:
        return self._rules.get((src_fn, dst_fn), self._default) == ALLOW
