"""Equivalence: the indexed pipeline must report the exact same threat
set as the brute-force all-pairs scan, over every corpus scenario.

The brute-force :meth:`DetectionEngine.detect_rulesets` is the paper's
reference semantics; :class:`DetectionPipeline` reaches the same pairs
through signature/index candidate selection.  Both the threat sets
(type, rule pair, direction) and the solver-call counts must agree —
the index may only skip pairs no candidate test could ever pass.
"""

import pytest

from repro.constraints import TypeBasedResolver
from repro.corpus import (
    demo_apps,
    device_controlling_apps,
    malicious_apps,
)
from repro.detector import DetectionEngine, DetectionPipeline
from repro.rules.extractor import RuleExtractor


def _threat_key(threat):
    return (threat.type.value, threat.rule_a.rule_id, threat.rule_b.rule_id)


def _extract_corpus(apps):
    extractor = RuleExtractor()
    rulesets, hints, values = [], {}, {}
    for app in apps:
        rulesets.append(extractor.extract(app.source, app.name))
        hints[app.name] = app.type_hints
        values[app.name] = app.values
    return rulesets, hints, values


def _brute_force(rulesets, hints, values):
    engine = DetectionEngine(
        TypeBasedResolver(type_hints=hints, values=values)
    )
    threats = set()
    for i, ruleset in enumerate(rulesets):
        report = engine.detect_rulesets(ruleset, rulesets[:i])
        threats.update(map(_threat_key, report.threats))
    return threats, engine.stats


def _indexed(rulesets, hints, values):
    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values)
    )
    threats = set()
    for report in pipeline.audit_store(rulesets):
        threats.update(map(_threat_key, report.threats))
    return threats, pipeline.stats


@pytest.mark.parametrize(
    "corpus",
    [
        "demo",
        pytest.param("benign+generated+malicious", marks=pytest.mark.slow),
    ],
)
def test_pipeline_matches_brute_force(corpus):
    if corpus == "demo":
        apps = list(demo_apps())
    else:
        # device_controlling_apps() = handwritten benign + generated.
        apps = list(device_controlling_apps()) + list(malicious_apps())
    rulesets, hints, values = _extract_corpus(apps)
    brute_threats, brute_stats = _brute_force(rulesets, hints, values)
    indexed_threats, indexed_stats = _indexed(rulesets, hints, values)
    assert indexed_threats == brute_threats
    # The pipeline solves exactly the pairs the brute-force run solves —
    # candidate selection only skips pairs with no possible threat.
    assert indexed_stats.solver_calls == brute_stats.solver_calls
    # ... while examining no more (typically far fewer) pairs.
    assert indexed_stats.pairs_examined <= brute_stats.pairs_examined


def test_pipeline_incremental_matches_one_shot():
    # Installing apps one by one must accumulate the same threat set as
    # auditing the whole store in one pipeline.
    apps = list(demo_apps())
    rulesets, hints, values = _extract_corpus(apps)

    one_shot, _ = _indexed(rulesets, hints, values)

    pipeline = DetectionPipeline(
        TypeBasedResolver(type_hints=hints, values=values)
    )
    accumulated = set()
    for ruleset in rulesets:
        report = pipeline.add_ruleset(ruleset)
        accumulated.update(map(_threat_key, report.threats))
    assert accumulated == one_shot


def test_pipeline_remove_ruleset_restores_state():
    apps = list(demo_apps())
    rulesets, hints, values = _extract_corpus(apps)
    resolver = TypeBasedResolver(type_hints=hints, values=values)

    # Baseline: first two apps only.
    baseline = DetectionPipeline(resolver)
    base_threats = set()
    for report in baseline.audit_store(rulesets[:2]):
        base_threats.update(map(_threat_key, report.threats))

    # Install three, remove the third, re-detect the second: the report
    # must match a home that never saw the third app.
    pipeline = DetectionPipeline(resolver)
    pipeline.audit_store(rulesets[:3])
    pipeline.remove_ruleset(rulesets[2].app_name)
    assert pipeline.installed_apps() == sorted(
        rs.app_name for rs in rulesets[:2]
    )
    report = pipeline.detect(rulesets[1])
    replay = DetectionPipeline(resolver)
    replay.add_ruleset(rulesets[0])
    expected = replay.detect(rulesets[1])
    assert set(map(_threat_key, report.threats)) == set(
        map(_threat_key, expected.threats)
    )
