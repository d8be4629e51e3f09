"""Tests of the benchmark itself: seeded inputs, the correctness gate, and
agreement between the traced and the plain run.

    python -m pytest bench -q
"""

import dataclasses
import json
import random
from itertools import islice

import pytest

import run
import tracing
import workloads
from monorev import catalog, completeness, derivation, oracle
from monorev.presentation import instantiate_window
from monorev.words import Letter, Word


def first_passes(workload, seed, n=2):
    return list(islice(workload.passes(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_workload(name):
    workload = workloads.WORKLOADS[name]()
    assert first_passes(workload, 7) == first_passes(workload, 7)
    assert first_passes(workload, 7) != first_passes(workload, 8)


def test_quotient_pairs_are_the_agreement_test_set():
    # Drawn exactly as test_reversal_oracle_agreement draws them.
    gens = instantiate_window(catalog.load("d4:new"), 2).alphabet.finite_generators()
    rng = random.Random(workloads.QUOTIENT_BASE_SEED)
    expected = []
    for _ in range(workloads.QUOTIENT_PAIRS):
        u = Word(tuple(Letter(rng.choice(gens)) for _ in range(rng.randint(1, 4))))
        v = Word(tuple(Letter(rng.choice(gens)) for _ in range(rng.randint(1, 4))))
        expected.append((str(u), str(v)))
    assert workloads.quotient_base_pairs() == expected


def test_relabelling_keeps_step_counts():
    workload = workloads.QuotientRandom()
    ops = [next(workload.passes(seed))[:6] for seed in (1, 2)]
    assert ops[0] != ops[1]
    steps = []
    for batch in ops:
        _, failed, messages, counts = run.gate(workload, run.run_batches(workload, [batch]))
        assert failed == 0, messages
        steps.append(counts["reversing.steps"])
    assert steps[0] == steps[1]


def test_elliptic_triple_counts_match_the_pinned_ones():
    pinned = {"d4": 395, "e6": 685, "e7": 890, "e8": 1143}
    assert {k: workloads.elliptic_triples(r, 3) for k, r in workloads.RANKS.items()} == pinned


def test_gate_rejects_wrong_verdicts(monkeypatch):
    cert_wl = workloads.CertifyElliptic()
    real = completeness.certify
    monkeypatch.setattr(completeness, "certify",
                        lambda p, **kw: dataclasses.replace(real(p, **kw), claim="cancellative-up-to"))
    rec = run.run_batches(cert_wl, [[("certify", "d4:yamada", 3)]])
    assert run.gate(cert_wl, rec)[1] == 1

    quot = workloads.QuotientRandom()
    op = ("quotient", "s1 t(0)", "t(0) s1")  # not equal: s1 and t(0) braid
    assert quot.check(op, ("Empty", 2, (0, 0))) is not None
    assert quot.check(op, ("Terminal", 2, (0, 0))) is None


def test_times_are_per_operation_medians_at_reference_speed():
    ops = [("a",), ("b",), ("a",), ("b",), ("c",), ("a",)]
    assert run.median_times(ops, [0.3, 0.5, 0.2, 0.7, 0.1, 0.9]) == [0.1, 0.3, 0.6]
    # a machine running at half the reference speed reads at reference speed
    ref = run.REFERENCE_S
    assert run.scaled(0.4, 2 * ref, 2 * ref) == pytest.approx(0.2)
    assert run.scaled(0.4, ref, 3 * ref) == pytest.approx(0.2)


def test_wrong_oracle_answer_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads.OracleWindow, "tail", 0)  # two passes suffice
    monkeypatch.setattr(oracle, "monoid_equal", lambda *a, **k: False)
    status = run.main(["--workload", "oracle-window", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 8  # 4 derivations a pass


def traced_and_plain(workload, batch):
    plain = run.run_batches(workload, [batch])
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_batches(workload, [batch], tracer=tracer)
    metrics, absent = tracer.metrics(traced.wall, plain.wall)
    assert absent == []
    _, failed, messages, counts = run.gate(workload, plain)
    assert failed == 0, messages
    return metrics, counts


@pytest.mark.parametrize("name, size, key", [
    ("quotient-random", 6, "reversing.steps"),
    ("certify-elliptic", None, "completeness.cube_checks"),
    ("oracle-window", None, "oracle.words_checked"),
])
def test_traced_counts_equal_plain_counts(name, size, key):
    workload = workloads.WORKLOADS[name]()
    batch = next(workload.passes(3))
    if name == "certify-elliptic":
        batch = [("certify", "d4:new", 3), ("certify", "e6:yamada", 3)]
    batch = batch[:size]
    metrics, counts = traced_and_plain(workload, batch)
    assert counts[key] > 0
    assert metrics[key] == counts[key]
    again, _ = traced_and_plain(workload, batch)
    counted = [k for k, unit in tracing.UNITS.items() if unit in ("count", "letters")]
    assert {k: again[k] for k in counted} == {k: metrics[k] for k in counted}


def test_self_times_cover_the_traced_wall():
    workload = workloads.OracleWindow()
    metrics, _ = traced_and_plain(workload, next(workload.passes(1)))
    parts = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    parts += metrics["tracing.self_s"] + metrics["tracing.uncovered_s"]
    assert parts == pytest.approx(metrics["tracing.wall_s"])
    assert metrics["tracing.uncovered_s"] >= 0


def test_missing_hook_reports_absent_metrics(monkeypatch):
    monkeypatch.delattr(derivation, "verify_script")
    tracer = tracing.Tracer()
    with tracer:
        pass
    metrics, absent = tracer.metrics(1.0, 1.0)
    assert tracer.missing == ["monorev.derivation.verify_script"]
    assert absent == ["derivation.verify_ms"]
    assert "derivation.verify_ms" not in metrics and "reversing.steps" in metrics


def test_benchmark_json_matches_the_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: run.UNITS[k] for k in run.END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
