"""Incremental detection pipeline (layer 3, DESIGN.md §4).

Maintains the inverted :class:`~repro.detector.index.RuleIndex` across
app installations so that installing app N+1 only examines
index-selected candidate pairs, never the O(N²) all-pairs scan.  The
pipeline mirrors the companion app's review flow:

* :meth:`DetectionPipeline.detect` signs the new app's rules, queries
  the index for candidates, and returns the threat report *without*
  changing the installed state (the rules are staged);
* :meth:`DetectionPipeline.commit` / :meth:`DetectionPipeline.discard`
  apply the user's one-time decision (keep vs delete/reconfigure);
* :meth:`DetectionPipeline.add_ruleset` is detect+commit in one step —
  the store-audit building block;
* :meth:`DetectionPipeline.remove_ruleset` un-indexes an app and purges
  every cached solve involving it.

For every corpus the pipeline reports exactly the same threat set as
the brute-force :meth:`DetectionEngine.detect_rulesets` baseline (the
index returns a provable superset of each threat class's candidates,
and the engine's exact pairwise tests run unchanged on them).

With a :class:`~repro.constraints.dispatch.SolverDispatcher` configured
(``dispatcher=`` / ``workers=``), detection switches to the plan/execute
mode of DESIGN.md §9: :meth:`detect` plans every candidate pair of the
install before dispatching one solve batch, and :meth:`audit_store`
plans across *all* apps of the audit and dispatches one store-wide
batch — the fan-out point that lets process workers absorb the solver
loop (and, with pooled backends, the planning passes too: the engine
shards the pair list into chunks workers plan and solve independently,
DESIGN.md §10).  Candidate pairs are prescreened with
:func:`~repro.detector.signature.may_interfere` before any of that
happens, so provably inert pairs never reach planning.  Threat
reports, caches and persisted stores are identical to the inline path
for every backend and worker count.
"""

from __future__ import annotations

from typing import Iterable

from repro.constraints.builder import DeviceResolver
from repro.constraints.dispatch import SolverDispatcher, make_dispatcher
from repro.detector.engine import DetectionEngine
from repro.detector.index import RuleIndex, ShardedRuleIndex
from repro.detector.signature import RuleSignature, may_interfere
from repro.detector.types import ThreatReport
from repro.rules.model import RuleSet


class DetectionPipeline:
    """Signature -> index -> candidate detection over installed apps."""

    def __init__(
        self,
        resolver: DeviceResolver,
        include_intra_app: bool = True,
        index: RuleIndex | ShardedRuleIndex | None = None,
        dispatcher: SolverDispatcher | int | str | None = None,
        shared_cache=None,
    ) -> None:
        # ``shared_cache`` is an optional cross-tenant solve-cache
        # backend (DESIGN.md §12), owned by whoever created it — the
        # pipeline never closes it.
        self.engine = DetectionEngine(resolver, shared_cache=shared_cache)
        # Any object with the RuleIndex query/maintenance interface
        # works; multi-home fleets pass a ShardedRuleIndex so lookups
        # (and persisted snapshots) stay per home.
        self.index = RuleIndex() if index is None else index
        self.include_intra_app = include_intra_app
        # None keeps the inline solve path; anything else (a dispatcher
        # instance, a worker count, or a "process:4"-style spec) routes
        # detection through plan/execute batches.
        self.dispatcher = make_dispatcher(dispatcher)
        self._installed: dict[str, list[RuleSignature]] = {}
        self._staged: dict[str, list[RuleSignature]] = {}
        # Apps that ever passed through the engine: anything else has no
        # cached state, so invalidation can skip the cache scans.
        self._seen: set[str] = set()
        #: Bumped by every call that can change the installed signatures
        #: or the solve caches: a store tip at this count has no diff.
        self.changes = 0

    # ------------------------------------------------------------------
    # State

    def installed_apps(self) -> list[str]:
        return sorted(self._installed)

    @property
    def stats(self):
        return self.engine.stats

    def installed_signatures(self) -> dict[str, list[RuleSignature]]:
        """Installed signatures per app, in installation order — the
        state a :class:`~repro.detector.store.DetectionStore` snapshots."""
        return {app: list(sigs) for app, sigs in self._installed.items()}

    def close(self) -> None:
        """Release dispatcher workers, if any were started."""
        if self.dispatcher is not None:
            self.dispatcher.close()

    # ------------------------------------------------------------------
    # Detection

    def _stage(self, ruleset: RuleSet) -> list[RuleSignature]:
        sigs = self.engine.signatures.sign_ruleset(ruleset)
        self._staged[ruleset.app_name] = sigs
        self._seen.add(ruleset.app_name)
        self.changes += 1
        return sigs

    def _candidate_pairs(
        self, sigs: list[RuleSignature], app_name: str
    ) -> list[tuple[RuleSignature, RuleSignature]]:
        """The exact pair sequence one install examines, in the order
        the inline path solves them (index candidates per rule, then
        the app's own intra-app pairs).

        Index candidates are prescreened with :func:`may_interfere`
        (DESIGN.md §10): a single-key index collision is necessary but
        not sufficient for a threat, and pairs the constant-time
        intersection tests prove inert are dropped here — before any
        planning pass walks them or a constraint term is built.  The
        prune is exact (a pruned pair performs no solver lookup and
        reports no threat), so threat sets, solver calls and caches are
        unchanged; ``prescreen_pruned_pairs`` / ``planned_pairs`` are
        attributed here, exactly once per examined candidate."""
        stats = self.engine.stats
        pairs: list[tuple[RuleSignature, RuleSignature]] = []
        for sig in sigs:

            def prescreen(other: RuleSignature, _sig=sig) -> bool:
                if may_interfere(_sig, other):
                    return True
                stats.prescreen_pruned_pairs += 1
                return False

            for other in self.index.candidates(
                sig, exclude_app=app_name, prescreen=prescreen
            ):
                pairs.append((sig, other))
        if self.include_intra_app:
            for i, sig_a in enumerate(sigs):
                for sig_b in sigs[i + 1:]:
                    if may_interfere(sig_a, sig_b):
                        pairs.append((sig_a, sig_b))
                    else:
                        stats.prescreen_pruned_pairs += 1
        stats.planned_pairs += len(pairs)
        return pairs

    def detect(self, ruleset: RuleSet) -> ThreatReport:
        """Detect threats between a (new or updated) app and every
        installed app, plus the app's own rule pairs.

        The app's signatures are *staged*; call :meth:`commit` to make
        them part of the installed index, or :meth:`discard` to drop
        them.  The app's own previously installed rules are excluded, so
        re-reviewing an installed app matches the brute-force run over
        "all installed apps except itself".

        With a dispatcher configured the install's candidate pairs are
        planned first and solved as one batch (DESIGN.md §9).
        """
        sigs = self._stage(ruleset)
        report = ThreatReport(app_name=ruleset.app_name)
        pairs = self._candidate_pairs(sigs, ruleset.app_name)
        if self.dispatcher is None:
            for sig_a, sig_b in pairs:
                report.threats.extend(self.engine.detect_signed(sig_a, sig_b))
        else:
            for threats in self.engine.detect_signed_batch(
                pairs, self.dispatcher
            ):
                report.threats.extend(threats)
        return report

    # ------------------------------------------------------------------
    # Installation state changes

    def commit(self, app_name: str, ruleset: RuleSet | None = None) -> None:
        """Install the staged rules of ``app_name`` into the index,
        replacing any previous installation of the same app.  When
        nothing is staged (e.g. a decision replayed after the staging
        was dropped), ``ruleset`` is signed fresh as a fallback."""
        sigs = self._staged.pop(app_name, None)
        if sigs is None:
            if ruleset is None:
                return
            sigs = self.engine.signatures.sign_ruleset(ruleset)
        if self._installed.pop(app_name, None) is not None:
            # Replace in the index only; the staged signatures (and the
            # solves just performed for them) reflect the current
            # configuration and stay valid.
            self.index.remove_app(app_name)
        self._installed[app_name] = sigs
        self._seen.add(app_name)
        self.changes += 1
        self.index.add_ruleset(sigs)

    def discard(self, app_name: str) -> None:
        """Drop staged (not yet committed) rules of an app."""
        self._staged.pop(app_name, None)

    def add_ruleset(self, ruleset: RuleSet) -> ThreatReport:
        """Detect and immediately install — one incremental audit step."""
        report = self.detect(ruleset)
        self.commit(ruleset.app_name)
        return report

    def restore_ruleset(self, ruleset: RuleSet) -> None:
        """Install an app *without* running detection — the warm-start
        path (DESIGN.md §8).

        Used when a persisted store already holds this exact
        installation (fingerprint-validated): the rules are re-signed
        under the current bindings (cheap, no solver) and indexed, so
        later installs see the app as a candidate partner while its
        past reviews stay served from the imported solve caches."""
        # Exactly a commit with nothing staged; drop any leftover
        # staging first so the fresh ruleset is what gets signed.
        self.discard(ruleset.app_name)
        self.commit(ruleset.app_name, ruleset)

    def remove_ruleset(self, app_name: str) -> None:
        """Uninstall an app: un-index its rules and purge cached solves
        involving them (a reinstall may carry a new configuration)."""
        if self._installed.pop(app_name, None) is None:
            return
        self.changes += 1
        self.index.remove_app(app_name)
        self.engine.invalidate_app(app_name)

    def invalidate_app(self, app_name: str) -> None:
        """Forget cached signatures/solves for an app whose resolver
        bindings (configuration) may have changed, keeping it installed.

        If the app is installed, its rules are re-signed under the
        current bindings and re-indexed, so detection against it keeps
        tracking the recorded configuration (exactly like the
        brute-force flow, which re-derived identities every review)."""
        if app_name not in self._seen:
            return  # nothing cached: skip the cache scans entirely
        self.changes += 1
        self.engine.invalidate_app(app_name)
        sigs = self._installed.get(app_name)
        if sigs:
            self.index.remove_app(app_name)
            fresh = self.engine.signatures.sign_ruleset(
                RuleSet(app_name=app_name, rules=[s.rule for s in sigs])
            )
            self._installed[app_name] = fresh
            self.index.add_ruleset(fresh)

    # ------------------------------------------------------------------
    # Store-scale audit

    def audit_store(self, rulesets: Iterable[RuleSet]) -> list[ThreatReport]:
        """Audit a whole repository by incremental installation; the
        union of the reports covers every rule pair exactly once.

        With a dispatcher configured, staging/indexing still proceeds
        app by app (candidate selection needs the growing index) but
        the solver work of the *entire* audit is planned first and
        dispatched as one store-wide batch — the batch is the fan-out
        point for thread/process workers, and the resulting reports,
        caches and store bytes match the inline audit exactly."""
        if self.dispatcher is None:
            return [self.add_ruleset(ruleset) for ruleset in rulesets]
        stats = self.engine.stats
        pruned_before = stats.prescreen_pruned_pairs
        planned_before = stats.planned_pairs
        all_pairs: list[tuple[RuleSignature, RuleSignature]] = []
        spans: list[tuple[str, int, int]] = []
        for ruleset in rulesets:
            sigs = self._stage(ruleset)
            start = len(all_pairs)
            all_pairs.extend(self._candidate_pairs(sigs, ruleset.app_name))
            spans.append((ruleset.app_name, start, len(all_pairs)))
            self.commit(ruleset.app_name)
        try:
            threat_lists = self.engine.detect_signed_batch(
                all_pairs, self.dispatcher
            )
        except Exception:
            # A failed dispatch (e.g. a broken worker pool) must not
            # leave this audit's apps installed-but-unaudited: the
            # serial path only ever commits fully audited apps, so
            # un-index everything staged here before propagating.  The
            # prescreen counters attributed while staging are unwound
            # too, so a retried audit doesn't double-count them.
            for app_name, _start, _end in reversed(spans):
                self.remove_ruleset(app_name)
            stats.prescreen_pruned_pairs = pruned_before
            stats.planned_pairs = planned_before
            raise
        reports: list[ThreatReport] = []
        for app_name, start, end in spans:
            report = ThreatReport(app_name=app_name)
            for threats in threat_lists[start:end]:
                report.threats.extend(threats)
            reports.append(report)
        return reports
