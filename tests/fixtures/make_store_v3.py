"""Write the ``store_v3`` fixture: one home's store in format v3.

Format v3 journal records carry the whole frontend blob; v4 journals
frontend ops instead and must still load v3 stores
(``tests/test_store_engine.py::test_v3_store_loads_under_v4``).  Run
this from the root of a checkout of the last commit that wrote v3
stores (git commit 8331ae3), pointing it at this directory::

    PYTHONPATH=src python <repo>/tests/fixtures/make_store_v3.py \\
        <repo>/tests/fixtures/store_v3

It drives a home through two kept installs, a DELETE and a re-keep and
three monitor batches without compaction, so the journal holds commit,
remove and frontend records, and writes the parsed store state next to
the store as ``canonical_state.json``.
"""

import json
import random
import shutil
import sys
from pathlib import Path

from repro.corpus import app_by_name
from repro.detector import DetectionStore
from repro.runtime.events import Event
from repro.service import DecisionRequest, HomeGuardService, InstallRequest

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


def main(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    service = HomeGuardService(workers=None, store_root=out)
    service.preload([app_by_name("ComfortTV"), app_by_name("ColdDefender")])
    service.create_home("h1")
    service.home("h1").store.journal_max_records = 10**6
    tv = service.register_device("h1", "TV", "tv").device_id
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener").device_id
    for spec, decision in (
        (COMFORT_TV, "keep"), (COLD_DEFENDER, "keep"),
        (COLD_DEFENDER, "delete"), (COLD_DEFENDER, "keep"),
    ):
        session = service.install(InstallRequest(home_id="h1", **spec))
        service.decide(DecisionRequest(
            home_id="h1", session_id=session.session_id, decision=decision,
        ))
    rng = random.Random(3)
    clock = 0.0
    for batch in range(3):
        events = []
        for _ in range(8):
            clock += rng.uniform(1, 900)
            subject, name = rng.choice(
                [(window, "switch"), (tv, "switch")]
            )
            events.append(Event(
                subject=subject, name=name,
                value=rng.choice(["on", "off"]), timestamp=clock,
            ))
        service.home("h1").ingest_events(events, batch_id=f"b{batch}")
    service.close()
    snapshot = DetectionStore(out / "h1").load()
    assert snapshot.schema == 3
    state = json.dumps(
        {
            "apps": snapshot.apps,
            "shards": {
                env: snapshot.shards[env] for env in sorted(snapshot.shards)
            },
            "frontend": snapshot.frontend,
        },
        default=str,
    )
    (out / "canonical_state.json").write_text(state, "utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
