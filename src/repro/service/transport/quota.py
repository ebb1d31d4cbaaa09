"""Per-tenant quotas and admission control (DESIGN.md §13).

Two independent gates stand between a decoded request and the fair
scheduler:

* **Token-bucket quotas** bound each tenant's sustained request *rate*.
  Every tenant gets a :class:`TokenBucket` (from its
  :class:`TenantQuota`); a request that finds the bucket empty is
  rejected with :class:`~repro.service.errors.QuotaExceededError` —
  retryable once the bucket refills.  ``rate=0`` buckets never refill,
  which makes quota accounting exact (the fairness battery uses this).
* **Max-inflight admission control** bounds how much *work* may be
  queued or executing at once — per tenant and server-wide.  A request
  over either bound is rejected with
  :class:`~repro.service.errors.UnavailableError` before it can queue,
  so a flooding tenant saturates its own allowance, not the server's
  memory.

Both gates run at intake, before any service state is touched; a
rejected request costs one bucket consult and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's serving allowance.

    ``rate`` is the sustained requests/second refill, ``burst`` the
    bucket depth (momentary requests above the rate), ``max_inflight``
    how many of the tenant's requests may be queued or executing at
    once, and ``weight`` the tenant's share in the weighted-fair
    scheduler (2.0 = twice the service of a weight-1.0 tenant under
    contention)."""

    rate: float = 50.0
    burst: int = 100
    max_inflight: int = 32
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


class TokenBucket:
    """The classic token bucket, on a monotonic (injectable) clock.

    Starts full at ``burst`` tokens and refills continuously at
    ``rate`` tokens/second; :meth:`try_acquire` either takes a token or
    reports the bucket empty.  ``clock`` is injectable so tests can
    drive exact accounting without sleeping."""

    __slots__ = ("rate", "burst", "_tokens", "_last", "_clock")

    def __init__(
        self, rate: float, burst: int, clock=time.monotonic
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def try_acquire(self, cost: float = 1.0) -> bool:
        now = self._clock()
        if self.rate > 0.0:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
        self._last = now
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate}, burst={self.burst}, "
            f"tokens={self._tokens:.2f})"
        )


class AdmissionController:
    """Quota + inflight bookkeeping for every tenant of one server.

    Not thread-safe by design: the server confines it to the event
    loop, where every intake decision is made.  ``admit`` classifies a
    request as ``"ok"``, ``"quota"`` (token bucket empty) or
    ``"inflight"`` (tenant or server at its max-inflight bound); an
    admitted request must be paired with exactly one :meth:`release`
    once its response is written."""

    def __init__(
        self,
        default_quota: TenantQuota,
        tenant_quotas: dict[str, TenantQuota] | None = None,
        max_inflight_total: int = 1024,
        clock=time.monotonic,
    ) -> None:
        self.default_quota = default_quota
        self.tenant_quotas = dict(tenant_quotas or {})
        self.max_inflight_total = max_inflight_total
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[str, int] = {}
        self.inflight_total = 0

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.tenant_quotas.get(tenant, self.default_quota)

    def _bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.quota_for(tenant)
            bucket = self._buckets[tenant] = TokenBucket(
                quota.rate, quota.burst, clock=self._clock
            )
        return bucket

    def admit(self, tenant: str) -> str:
        if not self._bucket_for(tenant).try_acquire():
            return "quota"
        if self.inflight_total >= self.max_inflight_total:
            return "inflight"
        if self._inflight.get(tenant, 0) >= self.quota_for(tenant).max_inflight:
            return "inflight"
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self.inflight_total += 1
        return "ok"

    def release(self, tenant: str) -> None:
        remaining = self._inflight.get(tenant, 0) - 1
        if remaining > 0:
            self._inflight[tenant] = remaining
        else:
            self._inflight.pop(tenant, None)
        self.inflight_total = max(0, self.inflight_total - 1)
