"""Rule extraction facade (the paper's Rule Extractor module, Fig. 6).

Wraps the symbolic executor with app-name inference, a persistent rule
database interface (offline extraction; see
:class:`repro.config.recorder.RuleRecorder` for the online side) and the
pre-fix/strict behaviour used to reproduce the coverage numbers of
§VIII-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ParseError, parse
from repro.lang.errors import LexError
from repro.rules.model import RuleSet
from repro.symex.engine import SymbolicExecutionError, SymbolicExecutor


class ExtractionError(Exception):
    """The app could not be analysed (parse failure or unsupported
    construct)."""


@dataclass(slots=True)
class ExtractionReport:
    """Outcome of one extraction, with diagnostics."""

    ruleset: RuleSet
    warnings: list[str] = field(default_factory=list)


class RuleExtractor:
    """Extracts and caches rule sets for SmartApp sources.

    The extractor is the platform-specific part of HomeGuard; it exposes
    an API for querying rules of an app by name (backed by the cache)
    and on-demand extraction for custom apps.
    """

    def __init__(self, strict_device_types: bool = False) -> None:
        self._strict = strict_device_types
        self._cache: dict[str, ExtractionReport] = {}

    def extract(self, source: str, app_name: str | None = None) -> RuleSet:
        return self.extract_with_report(source, app_name).ruleset

    def extract_with_report(
        self, source: str, app_name: str | None = None
    ) -> ExtractionReport:
        try:
            module = parse(source)
        except (ParseError, LexError) as exc:
            raise ExtractionError(f"cannot parse app: {exc}") from exc
        try:
            executor = SymbolicExecutor(
                module,
                app_name=app_name or "",
                strict_device_types=self._strict,
            )
            ruleset = executor.run()
        except SymbolicExecutionError as exc:
            raise ExtractionError(str(exc)) from exc
        report = ExtractionReport(ruleset=ruleset, warnings=executor.warnings)
        self._cache[ruleset.app_name] = report
        return report

    def rules_of(self, app_name: str) -> RuleSet | None:
        """Query the rules of a previously extracted app (the backend
        database lookup the HomeGuard app performs, §VII-B)."""
        report = self._cache.get(app_name)
        return report.ruleset if report else None


def extract_rules(source: str, app_name: str | None = None) -> RuleSet:
    """One-shot extraction convenience wrapper."""
    return RuleExtractor().extract(source, app_name)
