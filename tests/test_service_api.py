"""HomeGuardService behavior: multi-tenant sessions, the ServiceError
taxonomy, pluggable handling policies, persistence provenance, and
lifecycle (close idempotency — incl. after a failed restore)."""

import pytest

from repro.corpus import app_by_name
from repro.detector.types import ThreatType
from repro.rules.extractor import RuleExtractor
from repro.service import (
    AuditRequest,
    AutoDenyPolicy,
    ChainedPolicy,
    DecisionRequest,
    DuplicateHomeError,
    HomeGuardService,
    InstallRequest,
    InteractivePolicy,
    InvalidRequestError,
    SessionDecidedError,
    SeverityThresholdPolicy,
    UnknownAppError,
    UnknownHomeError,
    UnknownSessionError,
)

COMFORT_TV = dict(
    app_name="ComfortTV",
    devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
    values={"threshold1": 30},
)
COLD_DEFENDER = dict(
    app_name="ColdDefender",
    devices={"tv2": "TV", "window2": "Window"},
    values={"weather": "rainy"},
)


def fresh_service(**kwargs):
    kwargs.setdefault("workers", None)
    service = HomeGuardService(**kwargs)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    return service


def make_home(service, home_id, policy=None, store_path=None):
    service.create_home(home_id, policy=policy, store_path=store_path)
    service.register_device(home_id, "TV", "tv")
    service.register_device(home_id, "Temp", "temperatureSensor")
    service.register_device(home_id, "Window", "windowOpener")
    return home_id


def test_interactive_session_lifecycle():
    service = fresh_service()
    make_home(service, "h1")
    session = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    assert session.pending and session.decision is None
    assert session.report.clean
    assert service.installed_apps("h1") == []  # nothing until the decision
    decided = service.decide(
        DecisionRequest(home_id="h1", session_id=session.session_id,
                        decision="keep")
    )
    assert decided.status == "decided" and decided.decision == "keep"
    assert decided.decided_by is None  # a user decision, not a policy's
    assert service.installed_apps("h1") == ["ComfortTV"]

    second = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert any(t.type == "AR" for t in second.report.threats)
    assert second.report.threats[0].description  # human-readable text rides along
    service.decide(
        DecisionRequest(home_id="h1", session_id=second.session_id,
                        decision="delete")
    )
    assert service.installed_apps("h1") == ["ComfortTV"]
    assert [s.session_id for s in service.sessions("h1")] == [
        session.session_id, second.session_id,
    ]


def test_one_time_decisions_cannot_be_replayed():
    service = fresh_service()
    make_home(service, "h1")
    session = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    service.decide(
        DecisionRequest(home_id="h1", session_id=session.session_id,
                        decision="keep")
    )
    with pytest.raises(SessionDecidedError):
        service.decide(
            DecisionRequest(home_id="h1", session_id=session.session_id,
                            decision="delete")
        )


def test_error_taxonomy_on_bad_requests():
    service = fresh_service()
    make_home(service, "h1")
    with pytest.raises(UnknownHomeError):
        service.install(InstallRequest(home_id="h9", app_name="ComfortTV"))
    with pytest.raises(UnknownAppError):
        service.install(InstallRequest(home_id="h1", app_name="Ghost"))
    with pytest.raises(UnknownSessionError):
        service.decide(DecisionRequest(home_id="h1", session_id="h1/s9",
                                       decision="keep"))
    with pytest.raises(DuplicateHomeError):
        service.create_home("h1")
    # A session id from another home does not leak across tenants.
    make_home(service, "h2")
    session = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    with pytest.raises(UnknownSessionError):
        service.decide(DecisionRequest(home_id="h2",
                                       session_id=session.session_id,
                                       decision="keep"))


def test_install_with_custom_source():
    service = HomeGuardService(workers=None)
    service.create_home("h1")
    source = '''
input "c1", "capability.contactSensor"
input "l1", "capability.switch"
def installed() { subscribe(c1, "contact.open", h) }
def h(evt) { l1.on() }
'''
    session = service.install(
        InstallRequest(home_id="h1", app_name="Custom", source=source,
                       devices={"c1": "contactSensor", "l1": "switch"})
    )
    assert session.report.rules
    service.decide(DecisionRequest(home_id="h1",
                                   session_id=session.session_id,
                                   decision="keep"))
    assert service.installed_apps("h1") == ["Custom"]


CUSTOM_SOURCE = '''
input "c1", "capability.contactSensor"
input "l1", "capability.switch"
def installed() { subscribe(c1, "contact.open", h) }
def h(evt) { l1.on() }
'''


def test_custom_source_name_collisions_are_rejected():
    """The shared backend is keyed by app name across tenants: a
    different source under a taken name must fail loudly instead of
    silently reviewing against someone else's rules."""
    from repro.service import InvalidRequestError

    service = fresh_service()
    service.create_home("a")
    service.create_home("b")
    first = service.install(InstallRequest(
        home_id="a", app_name="Monitor", source=CUSTOM_SOURCE,
        devices={"c1": "contactSensor", "l1": "switch"},
    ))
    assert first.report.rules
    # Same name, different app: rejected for any tenant (incl. the
    # submitting one), nothing recorded.
    hijack = CUSTOM_SOURCE.replace("l1.on()", "l1.off()")
    for home_id in ("b", "a"):
        with pytest.raises(InvalidRequestError, match="unique name"):
            service.install(InstallRequest(
                home_id=home_id, app_name="Monitor", source=hijack,
                devices={"c1": "contactSensor", "l1": "switch"},
            ))
    # A store app's name is taken too.
    with pytest.raises(InvalidRequestError, match="unique name"):
        service.install(InstallRequest(
            home_id="b", app_name="ComfortTV", source=hijack,
        ))
    # Resubmitting the identical source is fine — that's a reinstall
    # (possessing the source demonstrates knowledge of the app).
    again = service.install(InstallRequest(
        home_id="b", app_name="Monitor", source=CUSTOM_SOURCE,
        devices={"c1": "contactSensor", "l1": "switch"},
    ))
    assert again.report.rules == first.report.rules
    # ...and the resubmitting home joins the owners: its later
    # no-source requests (reconfigures) resolve like the original
    # submitter's do.
    for home_id in ("b", "a"):
        renamed = service.install(InstallRequest(
            home_id=home_id, app_name="Monitor",
            devices={"c1": "contactSensor", "l1": "switch"},
        ))
        assert renamed.report.rules == first.report.rules


def test_custom_apps_are_private_to_the_submitting_home():
    """Naming another tenant's custom app *without* its source must
    look exactly like a nonexistent app — no rules leak, no existence
    leak — while the owner and public store apps resolve normally."""
    from repro.config.uri import ConfigPayload, encode_uri
    from repro.config.messaging import FcmHttpTransport

    service = fresh_service()
    service.create_home("a")
    service.create_home("b")
    service.install(InstallRequest(
        home_id="a", app_name="SecretApp", source=CUSTOM_SOURCE,
        devices={"c1": "contactSensor", "l1": "switch"},
    ))
    # Tenant B, no source: same error as a nonexistent app.
    with pytest.raises(UnknownAppError):
        service.install(InstallRequest(home_id="b", app_name="SecretApp"))
    # The transport intake path is guarded too (and wraps the raw
    # LookupError of a never-extracted app into the taxonomy).  A bad
    # payload after a good one still reports the sessions that were
    # opened before it blew up.
    transport = FcmHttpTransport()
    service.connect_transport("b", transport)
    service.register_device("b", "TV", "tv")
    service.register_device("b", "Temp", "temperatureSensor")
    service.register_device("b", "Window", "windowOpener")
    bound, types = service.home("b").bind_inputs(COMFORT_TV["devices"])
    transport.send(encode_uri(ConfigPayload(
        app_name="ComfortTV", devices=bound, values={"threshold1": "30"},
    )), None)
    transport.send(encode_uri(ConfigPayload(app_name="SecretApp")), None)
    with pytest.raises(UnknownAppError) as excinfo:
        service.review_pending("b", device_types=types)
    opened = excinfo.value.details["opened_sessions"]
    assert len(opened) == 1
    assert service.session(opened[0]).app_name == "ComfortTV"
    transport.send(encode_uri(ConfigPayload(app_name="NeverExtracted")), None)
    with pytest.raises(UnknownAppError):
        service.review_pending("b")
    # The owner keeps using its app by name; public apps stay public.
    owner = service.install(InstallRequest(home_id="a", app_name="SecretApp"))
    assert owner.report.rules
    public = service.install(InstallRequest(
        home_id="b", app_name="ComfortTV",
        devices={"tv1": "tv", "tSensor": "temperatureSensor",
                 "window1": "windowOpener"},
        values={"threshold1": 30},
    ))
    assert public.report.app_name == "ComfortTV"


def test_decided_sessions_are_evicted_beyond_the_retention_bound():
    service = fresh_service(policy=AutoDenyPolicy())
    service.max_decided_sessions = 3
    make_home(service, "h1")
    ids = []
    for i in range(5):
        # Alternate the two demo apps so every install really runs.
        spec = COMFORT_TV if i % 2 == 0 else COLD_DEFENDER
        ids.append(service.install(
            InstallRequest(home_id="h1", **spec)
        ).session_id)
    assert [s.session_id for s in service.sessions("h1")] == ids[-3:]
    with pytest.raises(UnknownSessionError):
        service.session(ids[0])
    assert service.session(ids[-1]).status == "decided"


def test_auto_deny_policy_handles_threats_without_a_user():
    service = fresh_service(policy=AutoDenyPolicy())
    make_home(service, "h1")
    clean = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    assert clean.status == "decided" and clean.decision == "keep"
    assert clean.decided_by == "auto-deny"
    dirty = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert dirty.decision == "delete" and dirty.decided_by == "auto-deny"
    assert service.installed_apps("h1") == ["ComfortTV"]
    # Decided sessions cannot be re-decided by the tenant either.
    with pytest.raises(SessionDecidedError):
        service.decide(DecisionRequest(home_id="h1",
                                       session_id=dirty.session_id,
                                       decision="keep"))


def test_severity_threshold_policy_keeps_below_the_line():
    # AR ranks 4 in the default severity map: a threshold of 5 keeps
    # the racy install automatically, a threshold of 4 deletes it.
    lenient = fresh_service(policy=SeverityThresholdPolicy(threshold=5))
    make_home(lenient, "h1")
    lenient.install(InstallRequest(home_id="h1", **COMFORT_TV))
    kept = lenient.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert kept.decision == "keep" and not kept.report.clean
    assert lenient.installed_apps("h1") == ["ColdDefender", "ComfortTV"]

    strict = fresh_service(policy=SeverityThresholdPolicy(threshold=4))
    make_home(strict, "h1")
    strict.install(InstallRequest(home_id="h1", **COMFORT_TV))
    denied = strict.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert denied.decision == "delete"


def test_severity_threshold_can_escalate_to_the_user():
    service = fresh_service(
        policy=SeverityThresholdPolicy(threshold=4, above=None)
    )
    make_home(service, "h1")
    clean = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    assert clean.decision == "keep"  # below the line: auto-kept
    risky = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert risky.pending  # at/above the line: a human decides
    service.decide(DecisionRequest(home_id="h1",
                                   session_id=risky.session_id,
                                   decision="reconfigure"))
    assert service.installed_apps("h1") == ["ComfortTV"]


def test_chained_policy_first_verdict_wins():
    policy = ChainedPolicy(
        SeverityThresholdPolicy(threshold=3, above=None),  # keep the safe
        AutoDenyPolicy(),                                  # deny the rest
    )
    service = fresh_service(policy=policy)
    make_home(service, "h1")
    clean = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    assert clean.decision == "keep"
    dirty = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert dirty.decision == "delete" and dirty.decided_by == "chained"


def test_per_home_policy_overrides_service_default():
    service = fresh_service(policy=AutoDenyPolicy())
    make_home(service, "auto")
    make_home(service, "manual", policy=InteractivePolicy())
    auto = service.install(InstallRequest(home_id="auto", **COMFORT_TV))
    manual = service.install(InstallRequest(home_id="manual", **COMFORT_TV))
    assert auto.status == "decided"
    assert manual.pending


def test_policy_verdicts_persist_as_provenance(tmp_path):
    service = fresh_service(policy=AutoDenyPolicy(),
                            store_root=tmp_path / "fleet")
    make_home(service, "h1")
    service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    denied = service.install(InstallRequest(home_id="h1", **COLD_DEFENDER))
    assert denied.decided_by == "auto-deny"

    # A fresh process restores the decision history with the deciding
    # policy's name attached — the frontend blob carries the verdict
    # provenance exactly like user decisions.
    restarted = fresh_service(store_root=tmp_path / "fleet")
    restarted.create_home("h1")
    assert restarted.restore("h1") == ["ComfortTV"]
    home = restarted.home("h1")
    assert [(r.app_name, r.decision, r.decided_by) for r in home.reviews] == [
        ("ComfortTV", "keep", "auto-deny"),
        ("ColdDefender", "delete", "auto-deny"),
    ]
    assert restarted.detection_stats("h1").solver_calls == 0


def test_transport_intake_via_review_pending():
    from repro.config.messaging import FcmHttpTransport
    from repro.config.uri import ConfigPayload, encode_uri

    service = fresh_service()
    make_home(service, "h1")
    transport = FcmHttpTransport()
    service.connect_transport("h1", transport)
    home = service.home("h1")
    bound, types = home.bind_inputs(COMFORT_TV["devices"])
    transport.send(
        encode_uri(ConfigPayload(
            app_name="ComfortTV", devices=bound,
            values={"threshold1": "30"},
        )),
        target=None,
    )
    sessions = service.review_pending("h1", device_types=types)
    assert [s.app_name for s in sessions] == ["ComfortTV"]
    assert sessions[0].pending


def test_audit_request_covers_installed_apps():
    service = fresh_service()
    make_home(service, "h1")
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(home_id="h1",
                                       session_id=session.session_id,
                                       decision="keep"))
    reports = service.audit(AuditRequest(home_id="h1"))
    assert sorted(r.app_name for r in reports) == ["ColdDefender",
                                                   "ComfortTV"]
    assert any(t.type == "AR" for r in reports for t in r.threats)
    only = service.audit(AuditRequest(home_id="h1", apps=("ComfortTV",)))
    assert [r.app_name for r in only] == ["ComfortTV"]


def test_shared_backend_extracts_once_for_all_homes():
    class CountingExtractor(RuleExtractor):
        def __init__(self):
            super().__init__()
            self.extractions = 0

        def extract(self, source, app_name=None):
            self.extractions += 1
            return super().extract(source, app_name)

    extractor = CountingExtractor()
    service = HomeGuardService(extractor=extractor, workers=None)
    service.preload([app_by_name("ComfortTV")])
    make_home(service, "h1")
    make_home(service, "h2")
    for home_id in ("h1", "h2"):
        session = service.install(
            InstallRequest(home_id=home_id, **COMFORT_TV)
        )
        service.decide(DecisionRequest(home_id=home_id,
                                       session_id=session.session_id,
                                       decision="keep"))
    assert extractor.extractions == 1  # offline phase ran once, not per home


def test_remove_home_drops_its_pending_sessions():
    service = fresh_service()
    make_home(service, "h1")
    make_home(service, "h2")
    s1 = service.install(InstallRequest(home_id="h1", **COMFORT_TV))
    s2 = service.install(InstallRequest(home_id="h2", **COMFORT_TV))
    service.remove_home("h1")
    assert service.homes() == ["h2"]
    with pytest.raises(UnknownHomeError):
        service.installed_apps("h1")
    assert [s.session_id for s in service.sessions()] == [s2.session_id]
    with pytest.raises(UnknownSessionError):
        service.session(s1.session_id)


def test_unknown_device_label_or_type_is_an_invalid_request(tmp_path):
    # A device value that is neither a registered label nor a device
    # type is a typed request error, raised before anything registers:
    # the home stays unchanged and its next flush writes nothing.
    service = fresh_service(store_root=tmp_path)
    service.create_home("h1")
    home = service.home("h1")
    with pytest.raises(InvalidRequestError) as excinfo:
        service.install(InstallRequest(
            home_id="h1", app_name="ColdDefender",
            devices={"tv2": "tv", "window2": "Window"}, values={},
        ))
    assert excinfo.value.code == "invalid-request"
    assert excinfo.value.details == {"input": "window2", "device": "Window"}
    with pytest.raises(InvalidRequestError, match="nosuchtype"):
        service.register_device("h1", "Lamp", "nosuchtype")
    assert home.home_devices == {} and home.frontend_state == {}
    home.flush_store()
    assert home.pipeline.stats.store_bytes_written == 0
    assert not (tmp_path / "h1").exists()
    service.close()


# ----------------------------------------------------------------------
# Lifecycle: close() idempotency, incl. after a failed restore


def test_service_close_is_idempotent_and_releases_workers():
    service = fresh_service(workers="process:2")
    make_home(service, "h1")
    # Two conflicting installs: the second one has a candidate pair, so
    # its batch goes to the pooled backend as a plan chunk.
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(home_id="h1",
                                       session_id=session.session_id,
                                       decision="keep"))
    assert service.dispatcher._executor is not None  # the pool started
    service.close()
    assert service.dispatcher._executor is None
    service.close()  # idempotent: no error, nothing to release twice
    assert service.dispatcher._executor is None


def test_close_idempotent_after_failed_restore(tmp_path):
    """Satellite regression: a restore that blows up mid-load must not
    leave process-pool workers dangling — close() still releases them,
    and calling it again (or before any dispatch) is safe."""
    store_path = tmp_path / "store"
    seed = fresh_service()
    make_home(seed, "h1", store_path=store_path)
    session = seed.install(InstallRequest(home_id="h1", **COMFORT_TV))
    seed.decide(DecisionRequest(home_id="h1", session_id=session.session_id,
                                decision="keep"))
    seed.close()
    seed.close()  # close twice on the serial path: also a no-op

    service = fresh_service(workers="process:2")
    make_home(service, "h1", store_path=store_path)
    # Force the shared pool to start (two conflicting installs give
    # the dispatcher a real plan chunk), then make the next load explode.
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(home_id="h1",
                                       session_id=session.session_id,
                                       decision="keep"))
    assert service.dispatcher._executor is not None

    def exploding_load(*args, **kwargs):
        raise RuntimeError("disk went away mid-restore")

    home = service.home("h1")
    home.store.load = exploding_load
    with pytest.raises(RuntimeError, match="disk went away"):
        home.load_store()
    service.close()  # must still release the pool despite the failed restore
    assert service.dispatcher._executor is None
    service.close()  # and stay callable
    assert service.dispatcher._executor is None


def test_close_before_any_dispatch_is_safe():
    service = HomeGuardService(workers="auto")
    service.create_home("h1")
    service.close()
    service.close()


def test_concurrent_close_from_many_threads_is_safe():
    """The fleet server's drain path closes the service from its event
    loop thread while a ``with`` block may close it from the main
    thread — both orderings must be safe, every time (regression for
    the transport's ``own_service`` shutdown)."""
    import threading

    service = fresh_service(workers="thread:2", solve_cache="lru")
    make_home(service, "h1")
    # Start the pool with real work so close() has something to release.
    for spec in (COMFORT_TV, COLD_DEFENDER):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(home_id="h1",
                                       session_id=session.session_id,
                                       decision="keep"))
    assert service.dispatcher._executor is not None

    errors = []

    def closer():
        try:
            service.close()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=closer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert service.dispatcher._executor is None
    service.close()  # still idempotent afterwards


def test_service_context_manager_closes():
    with fresh_service(workers="thread:2") as service:
        make_home(service, "h1")
        for spec in (COMFORT_TV, COLD_DEFENDER):
            session = service.install(
                InstallRequest(home_id="h1", **spec)
            )
            service.decide(DecisionRequest(home_id="h1",
                                           session_id=session.session_id,
                                           decision="keep"))
        assert service.dispatcher._executor is not None
    assert service.dispatcher._executor is None
