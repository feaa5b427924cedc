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


# the rules of a source that has none; never written
_NO_RULES: dict[str, bool] = {}


class FilterTable:
    """(src, dst) -> allow/deny with a deny default.

    Lookups are total: pairs without an explicit rule get the default. Planes
    install an allow rule alongside each route, so deny rules are the
    explicit exceptions, exactly like an admission list.

    The rules are kept per source, ``src -> {dst: allowed}``, so a check
    makes two dict lookups and builds no key tuple.
    """

    def __init__(self, default: str = DENY):
        if default not in (ALLOW, DENY):
            raise ValueError(default)
        self._rules: dict[str, dict[str, bool]] = {}
        self._default = default == ALLOW
        self._lock = threading.Lock()

    def set(self, src: str, dst: str, verdict: str) -> None:
        if verdict not in (ALLOW, DENY):
            raise ValueError(f"verdict must be allow or deny, got {verdict!r}")
        with self._lock:
            rules = dict(self._rules)
            rules[src] = {**rules.get(src, _NO_RULES), dst: verdict == ALLOW}
            # swap wholesale so concurrent checks never see a torn table
            self._rules = rules

    def allow(self, src: str, dst: str) -> None:
        self.set(src, dst, ALLOW)

    def deny(self, src: str, dst: str) -> None:
        self.set(src, dst, DENY)

    def check(self, src: str, dst: str) -> bool:
        return self._rules.get(src, _NO_RULES).get(dst, self._default)
