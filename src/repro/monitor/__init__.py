"""Runtime interference monitoring (DESIGN.md §16).

Sliding-window analytics over live (or recorded) smart-home event
streams: confirmation of statically predicted CAI threats, anomaly
rules the solver cannot see, and the evidence observations that feed
back into the handling policies.
"""

from repro.monitor.engine import MonitorEngine, Observation, observation_key
from repro.monitor.rules import (
    KIND_ANOMALY,
    KIND_CONFIRMED,
    KIND_CONTRADICTED,
    CommandLoopRule,
    ConfirmationRule,
    Finding,
    MonitorRule,
    OffHoursRule,
    PowerAnomalyRule,
    ThreatEvidence,
    ToggleSpamRule,
    compile_confirmations,
    default_anomaly_rules,
    threat_key,
)
from repro.monitor.windows import RollingBaseline

__all__ = [
    "MonitorEngine",
    "Observation",
    "observation_key",
    "MonitorRule",
    "ConfirmationRule",
    "ToggleSpamRule",
    "PowerAnomalyRule",
    "OffHoursRule",
    "CommandLoopRule",
    "Finding",
    "ThreatEvidence",
    "compile_confirmations",
    "default_anomaly_rules",
    "threat_key",
    "KIND_CONFIRMED",
    "KIND_CONTRADICTED",
    "KIND_ANOMALY",
    "RollingBaseline",
]
