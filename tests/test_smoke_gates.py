"""The smoke-gate registry, the ``repro smoke`` verb and the replay primitive.

Table-driven over :data:`repro.validate.smoke.GATES`. The fast gates run
for real; the slow ones are covered by CI's ``smoke`` matrix. The
failure path — a diverging rerun, a failing gate-level check — is driven
by monkeypatching ``run_cell`` inside the smoke module, since no healthy
tree can produce it.
"""

import dataclasses
import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main
from repro.validate import smoke
from repro.validate.smoke import (
    GATES,
    SMOKE_SCHEMA,
    SmokeReport,
    cell_ok,
    mix_smoke_cell,
    render_report,
    replay,
    run_gate,
)

GATE_NAMES = ["check", "mix", "stability", "fluid", "fixedk", "farm", "flaws"]

#: fingerprint(run_cell(mix_smoke_cell())) recorded at the parent commit
#: (1359943), before the gates moved onto replay().
MIX_FINGERPRINT = {
    "runtime": 0.0932137066666621,
    "mean_latency": 0.00028621990417846733,
    "p99_latency": 0.00162181009735893,
    "packets_delivered": 6427,
    "retransmits": 514,
    "rtos": 4,
    "syn_retries": 0,
    "events": 25770,
    "queue": {
        "arrivals": 6427, "departures": 6427, "drops_tail": 0,
        "drops_early": 0, "marks": 0, "protected": 0, "ect_drops": 0,
        "ack_drops": 0, "syn_drops": 0,
    },
}

CELL_KEYS = {"label", "identical_plain_rerun", "identical_armed_rerun",
             "validation_ok", "violation_count", "fingerprint", "detail"}


def assert_v1_shape(report):
    """The one ``repro.smoke/v1`` gate-report shape."""
    assert set(report) == {"schema", "gate", "ok", "wall_s", "cells",
                           "checks", "detail"}
    assert report["schema"] == SMOKE_SCHEMA
    assert report["gate"] in GATES
    assert isinstance(report["ok"], bool)
    assert report["wall_s"] >= 0.0
    for cell in report["cells"]:
        assert set(cell) == CELL_KEYS
        assert isinstance(cell["label"], str)
        for flag in ("identical_plain_rerun", "identical_armed_rerun",
                     "validation_ok"):
            assert isinstance(cell[flag], bool)
        assert isinstance(cell["violation_count"], int)
        assert set(cell["fingerprint"]) == set(MIX_FINGERPRINT)
        assert isinstance(cell["detail"], dict)
    assert all(isinstance(k, str) and isinstance(v, bool)
               for k, v in report["checks"].items())
    assert report["ok"] == (bool(report["cells"] or report["checks"])
                            and all(cell_ok(c) for c in report["cells"])
                            and all(report["checks"].values()))
    json.dumps(report)  # JSON-safe


class TestRegistry:
    def test_gates_are_the_seven_in_ci_order(self):
        assert list(GATES) == GATE_NAMES

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_every_gate_has_a_name_and_a_one_line_description(self, name):
        gate = GATES[name]
        assert gate.name == name
        assert gate.description and "\n" not in gate.description
        assert callable(gate.body)

    def test_help_lists_every_gate(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["smoke", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for gate in GATES.values():
            assert gate.name in out and gate.description in out

    def test_ci_matrix_runs_every_gate(self):
        ci = (pathlib.Path(__file__).parents[1] / ".github" / "workflows"
              / "ci.yml").read_text()
        matrix = ci[ci.index("        gate:\n"):]
        matrix = matrix[:matrix.index("    steps:\n")]
        assert re.findall(r"^ +- (\w+)$", matrix, re.M) == list(GATES)
        assert "repro smoke ${{ matrix.gate }}" in ci

    def test_verb_takes_only_names_json_quiet(self):
        args = build_parser().parse_args(
            ["smoke", "mix", "farm", "--json", "out.json", "--quiet"])
        assert args.names == ["mix", "farm"]
        assert args.json == "out.json" and args.quiet
        assert set(vars(args)) == {"command", "handler", "names", "json",
                                   "quiet"}
        assert build_parser().parse_args(["smoke"]).names == []

    def test_unknown_gate_exits_2_naming_the_valid_ones(self, capsys):
        assert main(["smoke", "mix", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        for name in GATE_NAMES:
            assert name in err

    @pytest.mark.parametrize("verb", ["mix", "check", "stability", "fixedk",
                                      "flaws", "farm"])
    def test_old_smoke_flags_are_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([verb, "--smoke"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_fluid_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fluid"])
        capsys.readouterr()


class TestFastGatesForReal:
    def test_mix_and_farm_through_the_verb(self, tmp_path, capsys):
        path = tmp_path / "smoke.json"
        rc = main(["smoke", "mix", "farm", "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gate mix: OK" in out and "gate farm: OK" in out
        assert "smoke: 2/2 gates OK" in out
        assert "DIVERGED" not in out and "FAILED" not in out

        doc = json.loads(path.read_text())
        assert doc["schema"] == SMOKE_SCHEMA and doc["ok"] is True
        mix, farm = doc["gates"]
        assert_v1_shape(mix)
        assert_v1_shape(farm)

        (cell,) = mix["cells"]
        assert cell["label"] == mix_smoke_cell().label()
        assert cell["fingerprint"] == MIX_FINGERPRINT
        assert cell_ok(cell) and cell["violation_count"] == 0

        assert [c["label"] for c in farm["cells"]] == [
            "a/plain", "a/shared", "b/plain"]
        assert all(cell_ok(c) for c in farm["cells"])
        assert farm["checks"] == dict.fromkeys(
            ["streamed_progress", "deduped_shared_cell",
             "three_entries_cached", "dedup_visible_in_stream",
             "bit_identical_to_local", "resubmission_cache_served",
             "clean_shutdown"], True)


def _perturbing_run_cell(monkeypatch, perturb):
    """Patch smoke.run_cell: ``perturb(nth_call, armed)`` says whether to
    bump one counter of that run's metrics."""
    real = smoke.run_cell
    calls = []

    def fake(config, **kwargs):
        cell = real(config, **kwargs)
        calls.append(kwargs)
        if perturb(len(calls), kwargs.get("checks") is not None):
            cell = dataclasses.replace(cell, metrics=dataclasses.replace(
                cell.metrics, retransmits=cell.metrics.retransmits + 1))
        return cell

    monkeypatch.setattr(smoke, "run_cell", fake)
    return calls


class TestFailurePath:
    def test_healthy_replay_runs_plain_plain_armed(self, monkeypatch):
        calls = _perturbing_run_cell(monkeypatch, lambda n, armed: False)
        record, first = replay(mix_smoke_cell(), block="workloads")
        assert [c.get("checks") is not None for c in calls] == [
            False, False, True]
        assert cell_ok(record)
        assert record["fingerprint"] == MIX_FINGERPRINT
        assert record["detail"]["workloads"] == first.manifest["workloads"]

    def test_second_plain_run_diverging(self, monkeypatch):
        _perturbing_run_cell(monkeypatch, lambda n, armed: n == 2)
        record, _first = replay(mix_smoke_cell())
        assert record["identical_plain_rerun"] is False
        assert record["identical_armed_rerun"] is True
        assert record["validation_ok"] and not cell_ok(record)

    def test_only_the_armed_run_diverging(self, monkeypatch):
        _perturbing_run_cell(monkeypatch, lambda n, armed: armed)
        record, _first = replay(mix_smoke_cell())
        assert record["identical_plain_rerun"] is True
        assert record["identical_armed_rerun"] is False
        assert not cell_ok(record)

    def test_block_divergence_is_caught_too(self, monkeypatch):
        real = smoke.run_cell
        seen = []

        def fake(config, **kwargs):
            cell = real(config, **kwargs)
            seen.append(cell)
            if len(seen) == 2:
                cell.manifest["workloads"]["rpc"]["queries_completed"] += 1
            return cell

        monkeypatch.setattr(smoke, "run_cell", fake)
        assert replay(mix_smoke_cell())[0]["identical_plain_rerun"] is True
        del seen[:]
        record, _ = replay(mix_smoke_cell(), block="workloads")
        assert record["identical_plain_rerun"] is False

    def test_diverged_gate_still_writes_its_report_and_exits_1(
            self, monkeypatch, tmp_path, capsys):
        _perturbing_run_cell(monkeypatch, lambda n, armed: armed)
        path = tmp_path / "smoke.json"
        rc = main(["smoke", "mix", "--json", str(path), "--quiet"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "armed DIVERGED" in out and "plain identical" in out
        assert "gate mix: FAILED" in out
        doc = json.loads(path.read_text())
        assert doc["ok"] is False
        (mix,) = doc["gates"]
        assert_v1_shape(mix)
        assert mix["ok"] is False
        assert mix["cells"][0]["identical_armed_rerun"] is False

    def test_failing_gate_level_check_flips_ok(self):
        report = SmokeReport("mix")
        report.replay("pinned", mix_smoke_cell())
        report.check("holds", True)
        assert report.finish()["ok"] is True
        report.check("expected_regime", False)
        doc = report.finish()
        assert_v1_shape(doc)
        assert doc["ok"] is False and all(cell_ok(c) for c in doc["cells"])
        text = render_report(doc)
        assert "expected_regime" in text and "FAILED" in text
        assert "gate mix: FAILED" in text

    def test_a_gate_that_checked_nothing_is_not_ok(self):
        assert SmokeReport("mix").finish()["ok"] is False

    def test_failing_gate_check_through_the_verb(self, monkeypatch, capsys):
        def body(report):
            report.replay("pinned", mix_smoke_cell())
            report.check("regime_as_pinned", False)

        monkeypatch.setitem(GATES, "mix", GATES["mix"]._replace(body=body))
        assert main(["smoke", "mix", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "check regime_as_pinned" in out and "gate mix: FAILED" in out
        assert run_gate("mix")["checks"] == {"regime_as_pinned": False}
