"""Prescreen soundness properties (DESIGN.md §10).

:func:`repro.detector.signature.may_interfere` prunes candidate pairs
before planning walks them or a constraint term is built.  The prune
must be *exact*: a pruned pair, handed to the brute-force
:meth:`DetectionEngine.detect_pair`, yields zero threats and zero
solver calls — otherwise the prescreen would silently change reported
threat sets.  These properties are asserted pair-by-pair over the
demo corpus and the generated (device-controlling + malicious)
corpora, for every unordered rule pair — not just the index-selected
candidates the pipeline would examine.
"""

import pytest

from repro.constraints import TypeBasedResolver
from repro.corpus import demo_apps, device_controlling_apps, malicious_apps
from repro.detector import DetectionEngine, DetectionPipeline, may_interfere
from repro.rules.extractor import RuleExtractor


def _corpus(apps):
    extractor = RuleExtractor()
    rulesets, hints, values = [], {}, {}
    for app in apps:
        rulesets.append(extractor.extract(app.source, app.name))
        hints[app.name] = app.type_hints
        values[app.name] = app.values
    return rulesets, TypeBasedResolver(type_hints=hints, values=values)


def _corpus_by_name(name):
    if name == "demo":
        return _corpus(list(demo_apps()))
    return _corpus(list(device_controlling_apps()) + list(malicious_apps()))


@pytest.mark.parametrize("corpus_name", ["demo", "generated"])
def test_pruned_pairs_yield_zero_threats_under_brute_force(corpus_name):
    rulesets, resolver = _corpus_by_name(corpus_name)
    engine = DetectionEngine(resolver)
    rules = [rule for ruleset in rulesets for rule in ruleset.rules]
    sigs = [engine.signatures.sign(rule) for rule in rules]

    pruned = kept = 0
    for i, sig_a in enumerate(sigs):
        for sig_b in sigs[i + 1:]:
            if may_interfere(sig_a, sig_b):
                kept += 1
                continue
            pruned += 1
            calls_before = engine.stats.solver_calls
            threats = engine.detect_signed(sig_a, sig_b)
            assert threats == [], (
                f"prescreen pruned a threat-bearing pair "
                f"{sig_a.rule_id} / {sig_b.rule_id}: {threats}"
            )
            # Exactness, not just soundness: a pruned pair would not
            # have touched the solver either.
            assert engine.stats.solver_calls == calls_before, (
                f"pruned pair {sig_a.rule_id} / {sig_b.rule_id} "
                f"performed solver work"
            )
    # The property must not hold vacuously: both populations exist.
    assert pruned > 0, "prescreen pruned nothing on this corpus"
    assert kept > 0, "prescreen kept nothing on this corpus"


def test_may_interfere_is_symmetric():
    rulesets, resolver = _corpus_by_name("generated")
    engine = DetectionEngine(resolver)
    sigs = [
        engine.signatures.sign(rule)
        for ruleset in rulesets
        for rule in ruleset.rules
    ]
    for i, sig_a in enumerate(sigs):
        for sig_b in sigs[i + 1:]:
            assert may_interfere(sig_a, sig_b) == may_interfere(
                sig_b, sig_a
            ), (sig_a.rule_id, sig_b.rule_id)


@pytest.mark.parametrize(
    "corpus_name", ["demo", pytest.param("generated", marks=pytest.mark.slow)]
)
def test_prescreened_pipeline_reports_brute_force_threat_set(corpus_name):
    # End to end: the prescreened pipeline's threat set still equals
    # the brute-force scan (which never prescreens), and the engine
    # examined exactly the planned (post-prescreen) pairs.
    rulesets, resolver = _corpus_by_name(corpus_name)

    def keys(threats):
        return {
            (t.type.value, t.rule_a.rule_id, t.rule_b.rule_id)
            for t in threats
        }

    brute = DetectionEngine(resolver)
    brute_threats = set()
    for i, ruleset in enumerate(rulesets):
        brute_threats |= keys(
            brute.detect_rulesets(ruleset, rulesets[:i]).threats
        )

    pipeline = DetectionPipeline(resolver)
    pipeline_threats = set()
    for report in pipeline.audit_store(rulesets):
        pipeline_threats |= keys(report.threats)

    assert pipeline_threats == brute_threats
    assert pipeline.stats.solver_calls == brute.stats.solver_calls
    assert pipeline.stats.pairs_examined == pipeline.stats.planned_pairs
    if corpus_name == "generated":
        # The demo corpus's few index candidates all genuinely
        # interfere; the larger corpus must show real pruning on top
        # of index selection.
        assert pipeline.stats.prescreen_pruned_pairs > 0
