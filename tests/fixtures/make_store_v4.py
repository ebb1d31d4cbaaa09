"""Write the ``store_v4`` fixture: one home's store in format v4.

Format v4 journal records carry frontend section ops and append cache
deltas at the end of their shard's sections; v5 keeps those sections
sorted by key and must still load v4 stores
(``tests/test_store_engine.py::test_v3_and_v4_stores_load_under_v5``).
Run this from the root of a checkout of the last commit that wrote v4
stores (git commit 78e14ab), pointing it at this directory::

    PYTHONPATH=src python <repo>/tests/fixtures/make_store_v4.py \\
        <repo>/tests/fixtures/store_v4

It drives a home through three kept installs, a DELETE, a late device
registration, a re-keep and three monitor batches without compaction,
so the journal holds commit, remove and frontend records with every
section op, and writes the parsed store state next to the store as
``canonical_state.json``.
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

SPECS = {
    "ComfortTV": dict(
        devices={"tv1": "TV", "tSensor": "Temp", "window1": "Window"},
        values={"threshold1": 30},
    ),
    "ColdDefender": dict(
        devices={"tv2": "TV", "window2": "Window"},
        values={"weather": "rainy"},
    ),
    "ModeAwareHeater": dict(
        devices={"heater1": "Heater", "tSensor": "Temp"},
        values={"tooCold": 62, "occupiedMode": "Home"},
    ),
}


def main(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    service = HomeGuardService(workers=None, store_root=out)
    service.preload([app_by_name(name) for name in SPECS])
    service.create_home("h1")
    service.home("h1").store.journal_max_records = 10**6
    tv = service.register_device("h1", "TV", "tv").device_id
    service.register_device("h1", "Temp", "temperatureSensor")
    window = service.register_device("h1", "Window", "windowOpener").device_id
    service.register_device("h1", "Heater", "heater")
    steps = (
        ("ComfortTV", "keep"), ("ColdDefender", "keep"),
        ("ModeAwareHeater", "keep"), ("ColdDefender", "delete"),
        ("ColdDefender", "keep"),
    )
    for number, (name, decision) in enumerate(steps):
        if number == 3:
            service.register_device("h1", "Lamp", "switch")
        session = service.install(
            InstallRequest(home_id="h1", app_name=name, **SPECS[name])
        )
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
    assert snapshot.schema == 4
    meta = json.loads((out / "h1" / "meta.json").read_text("utf-8"))
    assert meta["generation"] == 0  # one seed, then journal records only
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
