"""Journal lifecycle: rotation, tamper chaining, compaction.

The replay contract — feeding the journal back through a fresh plane
reproduces the decision JSONL byte-for-byte — must survive the two
lifecycle mechanisms a long-running service needs: size/age rotation
into numbered segments, and checkpoint compaction that collapses
closed segments while keeping every decision. The tamper chain has to
hold *across* segment boundaries: a line forged so it is internally
consistent is still caught by the first line of the next segment.
"""

import json

import pytest

from repro.core.scg import ScatterModelConfig
from repro.obs.registry import MetricsRegistry
from repro.service import (
    AuditJournal,
    ControlPlane,
    ServiceConfig,
    journal_segments,
    read_journal,
    render_snapshot,
    replay_journal,
    verify_chain,
    verify_replay,
)
from repro.service.audit import _chain_hash


def rotation_config(**overrides) -> ServiceConfig:
    defaults = dict(
        decide_top_k=0,
        scatter=ScatterModelConfig(min_samples=8, min_distinct=4,
                                   quantum=1.0))
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def drive(plane: ControlPlane, journal: AuditJournal,
          rounds: int = 25, per_round: int = 4) -> None:
    """Journal a deterministic cart workload the way the API does:
    record each stimulus only after the plane accepted it."""
    clock = 0.0
    step = 0
    for _round in range(rounds):
        for _scrape in range(per_round):
            clock += 1.0
            step += 1
            q = 1.0 + (step % 12)
            rate = 30.0 * q / (1.0 + q / 8.0)
            body = render_snapshot(clock, {"cart": 0.92}, {"cart": q},
                                   {"cart": rate}, {"cart": 4})
            plane.ingest_metrics(body)
            journal.record("metrics", clock, body)
        record = plane.tick(now=clock)
        journal.record("tick", record.time)


def journaled_run(tmp_path, **journal_kwargs
                  ) -> tuple[ControlPlane, AuditJournal]:
    plane = ControlPlane(rotation_config())
    if journal_kwargs.pop("compact", False):
        journal_kwargs["compact"] = True
        journal_kwargs["checkpoint_provider"] = lambda: (
            plane.checkpoint(), plane.decisions_jsonl().splitlines())
    journal = AuditJournal(tmp_path / "journal.jsonl",
                           **journal_kwargs)
    drive(plane, journal)
    journal.close()
    return plane, journal


# ----------------------------------------------------------------------
# Construction guards
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"segment_bytes": -1},
    {"segment_age": -0.5},
    {"compact": True},  # requires a checkpoint_provider
])
def test_invalid_lifecycle_options_rejected(tmp_path, kwargs):
    with pytest.raises(ValueError):
        AuditJournal(tmp_path / "journal.jsonl", **kwargs)


# ----------------------------------------------------------------------
# Rotation
# ----------------------------------------------------------------------
def test_size_rotation_replays_byte_identical(tmp_path):
    plane, journal = journaled_run(tmp_path, segment_bytes=4096)
    base = tmp_path / "journal.jsonl"
    segments = journal_segments(base)
    assert len(segments) >= 3, "workload must span several segments"
    assert journal.rotations == len(segments)
    assert segments[0].name == "journal.00001.jsonl"

    ok, detail = verify_chain(base)
    assert ok, detail
    # Stitched read covers every recorded entry, in order.
    entries = read_journal(base)
    assert len(entries) == len(journal.entries)
    assert [e.time for e in entries] == [
        e.time for e in journal.entries]

    decisions = tmp_path / "decisions.jsonl"
    decisions.write_text(plane.decisions_jsonl(), encoding="utf-8")
    identical, detail = verify_replay(base, decisions,
                                      rotation_config())
    assert identical, detail


def test_logical_age_rotation(tmp_path):
    plane = ControlPlane(rotation_config())
    journal = AuditJournal(tmp_path / "journal.jsonl",
                           segment_age=10.0)
    drive(plane, journal, rounds=10)
    journal.close()
    segments = journal_segments(tmp_path / "journal.jsonl")
    # 40s of logical time at a 10s span threshold -> several segments.
    assert len(segments) >= 3
    for segment in segments:
        times = [json.loads(line)["time"] for line in
                 segment.read_text().splitlines()]
        assert max(times) - min(times) <= 10.0 + 1e-9


def test_health_and_registry_counters(tmp_path):
    registry = MetricsRegistry()
    plane = ControlPlane(rotation_config())
    journal = AuditJournal(tmp_path / "journal.jsonl",
                           segment_bytes=4096, registry=registry)
    drive(plane, journal)
    health = journal.health()
    assert health["rotations"] == journal.rotations > 0
    assert health["segments"] == len(
        journal_segments(tmp_path / "journal.jsonl")) + 1
    assert health["chain_head"] == journal.chain_head[:16]
    assert (registry.counter("journal.rotations").value
            == float(journal.rotations))
    assert (registry.gauge("journal.segments").snapshot()["value"]
            == float(health["segments"]))
    journal.close()


# ----------------------------------------------------------------------
# Tamper detection
# ----------------------------------------------------------------------
def test_bitflip_in_closed_segment_detected(tmp_path):
    journaled_run(tmp_path, segment_bytes=4096)
    base = tmp_path / "journal.jsonl"
    victim = journal_segments(base)[1]
    text = victim.read_text(encoding="utf-8")
    victim.write_text(text.replace('"kind": "metrics"',
                                   '"kind": "traces"', 1),
                      encoding="utf-8")
    ok, detail = verify_chain(base)
    assert not ok
    assert victim.name in detail


def test_forged_line_caught_across_segment_boundary(tmp_path):
    """Re-chain a tampered final line so it is self-consistent; the
    mismatch must then surface at the next segment's first line."""
    journaled_run(tmp_path, segment_bytes=4096)
    base = tmp_path / "journal.jsonl"
    segments = journal_segments(base)
    victim = segments[1]
    lines = victim.read_text(encoding="utf-8").splitlines()
    previous = (json.loads(lines[-2])["chain"] if len(lines) > 1
                else "")
    forged = json.loads(lines[-1])
    forged.pop("chain")
    forged["time"] = forged["time"] + 1000.0
    forged["chain"] = _chain_hash(
        previous, json.dumps({k: v for k, v in forged.items()
                              if k != "chain"}, sort_keys=True))
    lines[-1] = json.dumps(forged, sort_keys=True)
    victim.write_text("\n".join(lines) + "\n", encoding="utf-8")

    ok, detail = verify_chain(base)
    assert not ok
    successor = segments[2]
    assert detail.startswith(f"{successor.name}:1")


def test_truncated_segment_detected(tmp_path):
    journaled_run(tmp_path, segment_bytes=4096)
    base = tmp_path / "journal.jsonl"
    victim = journal_segments(base)[0]
    lines = victim.read_text(encoding="utf-8").splitlines()
    victim.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    ok, _detail = verify_chain(base)
    assert not ok


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_compaction_preserves_every_decision(tmp_path):
    plane, journal = journaled_run(tmp_path, segment_bytes=4096,
                                   compact=True)
    base = tmp_path / "journal.jsonl"
    assert journal.compactions > 0
    assert journal.entries_dropped > 0
    # Everything before the newest checkpoint has been unlinked.
    segments = journal_segments(base)
    assert len(segments) == 1
    checkpoint_lines = segments[0].read_text().splitlines()
    assert len(checkpoint_lines) == 1
    payload = json.loads(checkpoint_lines[0])
    assert payload["kind"] == "checkpoint"
    body = json.loads(payload["body"])

    live = plane.decisions_jsonl()
    live_lines = live.splitlines()
    # The checkpoint carries every decision made before the cut,
    # verbatim — compaction never drops a decision line.
    assert body["decisions"] == live_lines[:len(body["decisions"])]

    ok, detail = verify_chain(base)
    assert ok, detail
    decisions = tmp_path / "decisions.jsonl"
    decisions.write_text(live, encoding="utf-8")
    identical, detail = verify_replay(base, decisions,
                                      rotation_config())
    assert identical, detail


def test_compacted_and_uncompacted_replays_agree(tmp_path):
    plain_plane, _plain = journaled_run(
        tmp_path / "plain", segment_bytes=4096)
    compact_plane, _compact = journaled_run(
        tmp_path / "compact", segment_bytes=4096, compact=True)
    # Identical stimuli -> identical live decisions either way.
    assert (plain_plane.decisions_jsonl()
            == compact_plane.decisions_jsonl())
    replayed_plain = replay_journal(
        read_journal(tmp_path / "plain" / "journal.jsonl"),
        rotation_config())
    replayed_compact = replay_journal(
        read_journal(tmp_path / "compact" / "journal.jsonl"),
        rotation_config())
    assert (replayed_plain.decisions_jsonl()
            == replayed_compact.decisions_jsonl()
            == plain_plane.decisions_jsonl())


def test_compacted_replay_continues_live(tmp_path):
    """A replayed-from-checkpoint plane keeps producing the same
    decisions as the original when both see the same new stimuli."""
    plane = ControlPlane(rotation_config())
    journal = AuditJournal(
        tmp_path / "journal.jsonl", segment_bytes=4096, compact=True,
        checkpoint_provider=lambda: (
            plane.checkpoint(), plane.decisions_jsonl().splitlines()))
    drive(plane, journal, rounds=20)
    journal.close()
    twin = replay_journal(read_journal(tmp_path / "journal.jsonl"),
                          rotation_config())
    clock = plane.now
    for index in range(8):
        clock += 1.0
        q = 2.0 + (index % 9)
        body = render_snapshot(clock, {"cart": 0.92}, {"cart": q},
                               {"cart": 30.0 * q / (1.0 + q / 8.0)},
                               {"cart": 4})
        plane.ingest_metrics(body)
        twin.ingest_metrics(body)
    plane.tick(now=clock)
    twin.tick(now=clock)
    assert twin.decisions_jsonl() == plane.decisions_jsonl()


def version1_recommendation(rec) -> dict:
    """The flat recommendation body a version-1 checkpoint stored."""
    verdict = rec.decision
    return {"service": verdict.target, "allocation": verdict.after,
            "before": verdict.before, "method": rec.method,
            "threshold": verdict.threshold, "round": rec.round,
            "time": rec.time,
            **{key: getattr(verdict, key) for key in (
                "samples", "max_concurrency", "poly_degree", "fit_r2",
                "knee_concurrency", "knee_rate")}}


def test_version1_checkpoint_restores_and_replays(tmp_path, capsys):
    """A journal compacted into a version-1 checkpoint — a budget window
    without processing-time evidence, flat recommendations — restores,
    and replays byte-identically through ``repro service replay``. The
    live session continues on a plane restarted from that checkpoint,
    as a service upgraded across the format change would."""
    from repro.cli import main
    from repro.tracing.export import export_traces
    from repro.tracing.span import Span

    config = rotation_config()
    live = [ControlPlane(config)]
    converted: list[int] = []

    def version1_checkpoint():
        plane = live[0]
        state = plane.checkpoint()
        assert state["version"] == 2 and any(state["processing"])
        del state["processing"]
        state["version"] = 1
        state["recommendations"] = {
            name: version1_recommendation(rec)
            for name, rec in plane.recommendations.items()}
        converted.append(len(state["recommendations"]))
        lines = plane.decisions_jsonl().splitlines()
        restarted = ControlPlane(config)
        restarted.restore(json.loads(json.dumps(state)))
        restarted.seed_decisions(lines)
        assert (restarted.recommendation_dicts()
                == plane.recommendation_dicts())
        live[0] = restarted
        return state, lines

    journal = AuditJournal(tmp_path / "journal.jsonl", segment_bytes=4096,
                           compact=True,
                           checkpoint_provider=version1_checkpoint)
    for step in range(1, 81):
        q = 1.0 + (step % 12)
        body = render_snapshot(float(step), {"cart": 0.92}, {"cart": q},
                               {"cart": 30.0 * q / (1.0 + q / 8.0)},
                               {"cart": 13})
        live[0].ingest_metrics(body)
        journal.record("metrics", float(step), body)
        if step % 4 == 0:
            root = Span(trace_id=step, service="front-end",
                        operation="request", arrival=float(step))
            root.started = root.arrival
            cart = Span(trace_id=step, service="cart", operation="cart",
                        arrival=root.arrival + 0.01, parent=root)
            cart.started = cart.arrival + 0.002
            cart.departure = cart.started + 0.05
            root.departure = cart.departure + 0.01
            batch = export_traces([root])
            live[0].ingest_traces(batch)
            journal.record("traces", live[0].now, batch)
            record = live[0].tick(now=float(step))
            journal.record("tick", record.time)
    journal.close()
    assert journal.compactions > 0 and converted[-1] == 1

    base = tmp_path / "journal.jsonl"
    (checkpoint,) = [entry for entry in read_journal(base)
                     if entry.kind == "checkpoint"]
    state = json.loads(checkpoint.body)["state"]
    assert state["version"] == 1 and "processing" not in state
    assert state["budgets"]
    ok, detail = verify_chain(base)
    assert ok, detail

    decisions = tmp_path / "decisions.jsonl"
    decisions.write_text(live[0].decisions_jsonl(), encoding="utf-8")
    assert main(["service", "replay", "--journal", str(base),
                 "--decisions", str(decisions), "--decide-top-k", "0",
                 "--min-samples", "8", "--min-distinct", "4",
                 "--exclude", ""]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_restore_rejects_unknown_checkpoint_version():
    state = ControlPlane(rotation_config()).checkpoint()
    state["version"] = 3
    with pytest.raises(ValueError, match="unsupported checkpoint"):
        ControlPlane(rotation_config()).restore(state)
