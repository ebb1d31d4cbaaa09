"""Device events and the platform event bus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class Event:
    """A state-change event as delivered to SmartApp handlers.

    ``subject`` is a device id, ``"location"`` or ``"app"``; ``name`` the
    attribute that changed.  ``is_state_change`` is False for repeated
    reports of an unchanged value (SmartThings delivers those only to
    subscribers that asked for them; we do not deliver them at all).

    Not frozen, and so not hashable: the monitor builds one per
    ingested event and a frozen constructor costs about three times as
    much.  Nothing mutates an event after publishing it.
    """

    subject: str
    name: str
    value: object
    timestamp: float
    display_name: str = ""
    is_state_change: bool = True


@dataclass(slots=True)
class _Subscription:
    subject: str
    attribute: str
    value_filter: str | None
    callback: Callable[[Event], None]
    owner: str


class EventBus:
    """Dispatches events to subscribed app handlers.

    Mirrors the SmartThings cloud: the platform listens to all data
    reported by sensors and broadcasts related events to subscribers
    (paper §II-A).

    Ordering contract: ``publish`` returns matching handlers in
    *subscription order* (oldest subscription first), and taps run in
    *registration order* — deterministic regardless of hash seed, since
    both live in plain lists.  ``publish`` iterates a snapshot of the
    subscription and tap lists, so ``unsubscribe_owner`` (or a new
    ``subscribe``) called from inside a handler or tap affects only
    *later* publishes: the in-flight event is still delivered to every
    subscriber matched at publish time.
    """

    def __init__(self) -> None:
        self._subscriptions: list[_Subscription] = []
        self._taps: list[tuple[str, Callable[[Event], None]]] = []
        self.history: list[Event] = []

    def subscribe(
        self,
        subject: str,
        attribute: str,
        callback: Callable[[Event], None],
        owner: str,
        value_filter: str | None = None,
    ) -> None:
        self._subscriptions.append(
            _Subscription(subject, attribute, value_filter, callback, owner)
        )

    def add_tap(self, callback: Callable[[Event], None], owner: str) -> None:
        """Register a wiretap receiving *every* published event.

        Taps are how passive observers (the runtime interference
        monitor, trace recorders) see the full stream without
        enumerating subjects.  They are invoked synchronously inside
        ``publish``, in registration order, *before* the matched
        handlers are returned to the home, and are removed by
        ``unsubscribe_owner`` like ordinary subscriptions.
        """
        self._taps.append((owner, callback))

    def unsubscribe_owner(self, owner: str) -> None:
        """Drop all of ``owner``'s subscriptions and taps.

        Safe to call from inside a handler or tap: the publish in
        flight iterates a snapshot, so the owner still receives the
        current event; subsequent publishes exclude it.
        """
        self._subscriptions = [
            sub for sub in self._subscriptions if sub.owner != owner
        ]
        self._taps = [tap for tap in self._taps if tap[0] != owner]

    def publish(self, event: Event) -> list[Callable[[Event], None]]:
        """Record the event and return the matching handlers (the home
        invokes them so commands can interleave deterministically)."""
        self.history.append(event)
        for _owner, tap in tuple(self._taps):
            tap(event)
        matched: list[Callable[[Event], None]] = []
        for sub in tuple(self._subscriptions):
            if sub.subject != event.subject or sub.attribute != event.name:
                continue
            if sub.value_filter is not None and str(event.value) != sub.value_filter:
                continue
            matched.append(sub.callback)
        return matched

    def subscriptions_of(self, owner: str) -> list[tuple[str, str]]:
        return [
            (sub.subject, sub.attribute)
            for sub in self._subscriptions
            if sub.owner == owner
        ]
