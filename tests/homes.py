"""Shared setup for tests that drive one home through HomeGuardService.

``new_home`` builds a service with one registered home; ``install``
runs a corpus app through the typed ``install``/``decide`` path and
hands back the home's live :class:`~repro.service.home.InstallReview`,
so tests can inspect real ``Threat`` objects (types, rules, chains).
"""

from repro.corpus import app_by_name
from repro.service import DecisionRequest, HomeGuardService, InstallRequest

HOME = "home"


def new_home(devices=(), store_path=None):
    """A service with one home ``HOME`` and ``devices`` registered as
    ``(label, type)`` pairs."""
    service = HomeGuardService()
    service.create_home(HOME, store_path=store_path)
    for label, type_name in devices:
        service.register_device(HOME, label, type_name)
    return service


def install(service, app_name, devices=None, values=None, decision="keep"):
    """Install a corpus app (extracted on first use; ``values`` default
    to the app's own) and apply the one-time ``decision``."""
    app = app_by_name(app_name)
    if service.extractor.rules_of(app_name) is None:
        service.preload([app])
    session = service.install(InstallRequest(
        home_id=HOME, app_name=app_name, devices=devices or {},
        values=values or app.values,
    ))
    review = service.home(HOME).reviews[-1]
    service.decide(DecisionRequest(
        home_id=HOME, session_id=session.session_id, decision=decision,
    ))
    return review
