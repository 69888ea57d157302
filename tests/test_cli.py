"""Command-line behavior: exit codes, file outputs, determinism."""

import ast
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from lp3pss import cli
from lp3pss.cli import main
from lp3pss.scenario import (
    ALWAYS_FLIP,
    RANDOM_FLIP,
    STUCK_AT,
    AdversaryProfile,
    Behavior,
    ChurnConfig,
    CountRange,
)
from lp3pss.sim import MAX_POPULATION, SensingConfig, SimulationConfig, run_simulation

ROOT = Path(__file__).resolve().parents[1]


def test_simulate_writes_report_and_transcript(tmp_path):
    report = tmp_path / "r.json"
    transcript = tmp_path / "t.jsonl"
    code = main(
        ["simulate", "--n", "6", "--rounds", "4", "--seed", "42",
         "--out", str(report), "--transcript", str(transcript)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["rounds"]) == 4
    assert doc["leakage"]["verdict"] == "conforms"
    assert transcript.read_text().count("\n") > 0


def test_simulate_prints_the_reports_error_rates(tmp_path, capsys):
    assert main(["simulate", "--n", "6", "--rounds", "4", "--seed", "42", "--churn-mu", "0.5",
                 "--loss-prob", "0.1", "--out", str(tmp_path / "r.json")]) == 0
    second = capsys.readouterr().out.splitlines()[1]
    config = SimulationConfig(
        SensingConfig(n=6, rounds=4, seed=42, report_loss_prob=0.1), churn=ChurnConfig(mu=0.5)
    )
    rates = json.loads(run_simulation(config).report_json())["error_rates"]
    # the same values as the report's; the report's keys are sorted, the printout's are not
    prefix = "leakage: conforms; error rates: "
    assert second.startswith(prefix) and ast.literal_eval(second[len(prefix):]) == rates
    assert second == (
        "leakage: conforms; error rates: {'q_f': {'estimate': 0.0, 'ci95': "
        "[0.0, 0.5614970317550454], 'trials': 3}, 'q_m': "
        "{'estimate': 0.0, 'ci95': [0.0, 0.7934506856227626], 'trials': 1}}"
    )


def test_simulate_is_byte_deterministic(tmp_path):
    paths = [tmp_path / name for name in ("a.json", "b.json")]
    for path in paths:
        args = ["simulate", "--n", "7", "--rounds", "6", "--seed", "5",
                "--churn-mu", "0.5", "--out", str(path)]
        assert main(args) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_with_config_file(tmp_path):
    config = {
        "sensing": {"n": 5, "rounds": 3, "seed": 1},
        "adversary": {"1": {"kind": "always-flip"}},
        "output": {},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["adversary"]["1"]["kind"] == "always-flip"


def test_simulate_survives_draws_that_overflow(tmp_path):
    # a finite sigma this large passes the parser and overflows draws to +-inf
    config = {"sensing": {"n": 3, "rounds": 2, "tau": 3000}, "channel": {"sigma": 1.7e308}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "r.json")]) == 0


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sensing": {"n": -3, "rounds": 1, "seed": 1}}))
    code = main(["simulate", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "sensing.n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, flags",
    [
        ([1, 2], []),
        ({"sensing": "x"}, []),
        ({"sensing": {"n": 2}, "churn": "x"}, ["--churn-mu", "0.5"]),
        ({"sensing": {"n": 2}, "output": "x"}, []),
        ({"sensing": {"n": 2}, "output": {"transcript": 5}}, []),
    ],
)
def test_simulate_rejects_misshapen_config(tmp_path, capsys, doc, flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "r.json"), *flags])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"sensing": {"p_f": "0.1"}}, "sensing.p_f"),
        ({"sensing": {"p_f": float("nan")}}, "sensing.p_f"),
        ({"sensing": {"n": 2.5}}, "sensing.n"),
        ({"sensing": {"n": True}}, "sensing.n"),
        ({"sensing": {"tau": 1.5}}, "sensing.tau"),
        ({"channel": {"mu0": "a"}}, "channel.mu0"),
        ({"channel": {"sigma": -1}}, "channel: sigma"),
        ({"channel": {"sigma": float("nan")}}, "channel.sigma"),
        ({"channel": {"mu0": 5000, "mu1": 4000}}, "channel: need mu0 < mu1"),
        ({"channel": {"mu0": 5000, "mu1": 4000, "sigma": 100}}, "channel: need mu0 < mu1"),
        ({"sensing": {"p_f": 0.5, "p_m": 0.5}}, "sensing.p_f"),
        ({"churn": {"join": [1, "a"]}}, "churn.join"),
        ({"churn": {"leave": [2, 1]}}, "churn.leave"),
        ({"adversary": {"1": {"kind": "stuck-at", "stuck_bit": True}}}, "adversary.1.stuck_bit"),
        ({"churn": {"mu": 1.0, "join": [0, 10**20], "leave": [0, 0]}}, "churn.join"),
        ({"churn": {"mu": 1.0, "join": [0, 0], "leave": [2**63, 2**63]}}, "churn.leave"),
        ({"adversary": {"1": {"kind": "always-flip"}, "01": {"kind": "stuck-at"}}}, "adversary.01"),
        ({"adversary": {"1_0": {"kind": "always-flip"}}}, "adversary.1_0"),
        ({"adversary": {" 2": {"kind": "always-flip"}}}, "adversary. 2"),
        ({"adversary": {"0": {"kind": "always-flip"}}}, "adversary.0"),
        ({"adversary": {"-3": {"kind": "always-flip"}}}, "adversary.-3"),
        ({"output": {"transcirpt": "t.jsonl"}}, "output.transcirpt: unknown field"),
        ({"output": {"transcript": ""}}, "output.transcript"),
        ({"sensing": {"p_f": 1e-320}}, "sensing.p_f: 1e-320 is too small"),
        ({"sensing": {"p_m": 1e-17}}, "sensing.p_m: 1e-17 is too small"),
        ({"channel": {"step_dbm": -5}}, "channel.step_dbm: must be > 0"),
        ({"channel": {"step_dbm": 0}}, "channel.step_dbm: must be > 0"),
    ],
)
def test_simulate_rejects_ill_typed_or_unusable_field(tmp_path, capsys, doc, field):
    doc = {**doc, "sensing": {"n": 3, "rounds": 2, **doc.get("sensing", {})}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: ") and field in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "3", "--rounds", "2", "--seed", "1", "--out", "r.json", "--config", "c.json"],
        ["simulate", "--n", str(MAX_POPULATION + 1), "--rounds", "1", "--seed", "1", "--out", "r.json"],
        ["bench", "--n", str(MAX_POPULATION + 1), "--beta", "0", "--seed", "1"],
        ["attack", "--scheme", "lp3pss", "--n", str(MAX_POPULATION + 1)],
        ["attack", "--scheme", "baseline", "--n", str(MAX_POPULATION + 1)],
    ],
    ids=["huge-join", "simulate-n", "bench-n", "attack-lp3pss-n", "attack-baseline-n"],
)
def test_a_population_past_the_cap_is_refused_before_the_run(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"sensing": {}, "churn": {"mu": 1, "join": [0, 100000000000]}}))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("config error: sensing.n, sensing.rounds, churn.join: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]  # no report file


def test_simulate_rejects_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"sensing": {"n": 3, "tag": "\xff\xfe"}}')
    code = main(["simulate", "--config", str(cfg_path), "--seed", "1",
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: ") and "not UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--transcript", "--out", "--config"])
def test_simulate_refuses_an_empty_path_before_the_run(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    paths = {"--out": "r.json", "--transcript": "t.jsonl", flag: ""}
    argv = ["simulate", "--n", "3", "--rounds", "2", "--seed", "1"]
    assert main([*argv, *(arg for item in paths.items() for arg in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert f"argument {flag}: expected a path, got an empty string" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []  # no report file, no transcript


@pytest.mark.parametrize(
    "argv, flag",
    [(["costs", "--out", ""], "--out"), (["verify", "--transcript", ""], "--transcript")],
    ids=["costs-out", "verify-transcript"],
)
def test_costs_and_verify_refuse_an_empty_path_before_any_work(tmp_path, monkeypatch, capsys, argv, flag):
    # Path("") would be the working directory, and open() would name "."
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a path, got an empty string" in captured.err
    assert "Traceback" not in captured.err and "'.'" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, config_transcript, named, reason",
    [
        (["--out", "nodir/r.json"], None, "nodir/r.json", "No such file or directory"),
        (["--out", "r.json", "--transcript", "nodir/t.jsonl"], None, "nodir/t.jsonl", "No such file or directory"),
        (["--out", "r.json", "--transcript", "d"], None, "d", "Is a directory"),
        (["--out", "d"], None, "d", "Is a directory"),
        (["--out", "r.json"], "d", "d", "Is a directory"),
        (["--out", "r.json"], "nodir/t.jsonl", "nodir/t.jsonl", "No such file or directory"),
        (["--out", "f.txt/r.json"], None, "f.txt/r.json", "Not a directory"),
        (["--out", "r.json", "--transcript", "f.txt/t.jsonl"], None, "f.txt/t.jsonl", "Not a directory"),
        # a symlink is checked where it leads: a loop, and a link into a missing directory
        (["--out", "r.json", "--transcript", "loop"], None, "loop", "Too many levels of symbolic links"),
        (["--out", "loop"], None, "loop", "Too many levels of symbolic links"),
        (["--out", "dangling"], None, "dangling", "No such file or directory"),
    ],
    ids=[
        "out-no-dir", "transcript-no-dir", "transcript-dir", "out-dir", "config-transcript-dir", "config-no-dir",
        "out-under-file", "transcript-under-file", "transcript-link-loop", "out-link-loop", "out-dangling-link",
    ],
)
def test_simulate_refuses_an_unwritable_path_before_the_run(
    tmp_path, monkeypatch, capsys, flags, config_transcript, named, reason
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "f.txt").write_text("")
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "dangling").symlink_to("nodir/r.json")
    argv = ["simulate", "--n", "3", "--rounds", "2", "--seed", "1", *flags]
    if config_transcript is not None:
        (tmp_path / "c.json").write_text(json.dumps({"sensing": {}, "output": {"transcript": config_transcript}}))
        argv += ["--config", "c.json"]
    before = sorted(tmp_path.iterdir())
    ran = []
    monkeypatch.setattr(cli, "run_simulation", lambda config: ran.append(config))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ran  # nothing ran
    assert captured.err.startswith("error: ") and reason in captured.err and repr(named) in captured.err
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.iterdir()) == before  # no report file, no transcript
    assert list((tmp_path / "d").iterdir()) == []


@pytest.mark.parametrize(
    "flags, config_transcript, named",
    [
        (["--out", "same.json", "--transcript", "./same.json"], None, ("same.json", "--transcript")),
        (["--out", "d/../r.json", "--transcript", "r.json"], None, ("d/../r.json", "--transcript")),
        (["--out", "./r.json"], "r.json", ("r.json", "output.transcript")),
        (["--out", "old.json", "--transcript", "link.json"], None, ("old.json", "link.json")),
    ],
    ids=["dot-slash", "dot-dot", "config-transcript", "symlink-to-existing"],
)
def test_simulate_refuses_one_file_for_report_and_transcript(
    tmp_path, monkeypatch, capsys, flags, config_transcript, named
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "old.json").write_text("old")
    (tmp_path / "link.json").symlink_to("old.json")
    argv = ["simulate", "--n", "3", "--rounds", "2", "--seed", "1", *flags]
    if config_transcript is not None:
        (tmp_path / "c.json").write_text(json.dumps({"sensing": {}, "output": {"transcript": config_transcript}}))
        argv += ["--config", "c.json"]
    before = sorted(tmp_path.iterdir())
    ran = []
    monkeypatch.setattr(cli, "run_simulation", lambda config: ran.append(config))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ran  # nothing ran
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "name one file" in captured.err and all(name in captured.err for name in named)
    assert sorted(tmp_path.iterdir()) == before  # no report file, no transcript
    assert (tmp_path / "old.json").read_text() == "old"


def test_simulate_keeps_an_existing_output_file_until_the_run_writes_it(tmp_path):
    report = tmp_path / "r.json"
    report.write_text("old")
    argv = ["simulate", "--n", "3", "--rounds", "2", "--seed", "1", "--out", str(report)]
    assert main([*argv, "--transcript", str(tmp_path / "nodir" / "t.jsonl")]) == 2
    assert report.read_text() == "old"
    assert main(argv) == 0
    assert json.loads(report.read_text())["leakage"]["verdict"] == "conforms"


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["simulate", "--n", "5", "--out", "x.json"]) == 2  # no --seed
    assert main(["frobnicate"]) == 2


def test_bench_green_path(capsys):
    assert main(["bench", "--n", "10,20", "--beta", "0,2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 4


def test_bench_rejects_negative_joins_before_running(capsys):
    assert main(["bench", "--n", "10", "--beta", "0,-1", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no row runs, not even the good beta's
    assert captured.err.startswith("config error: beta")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["costs", "--schemes", ","], "--schemes"),
        (["costs", "--n", ","], "--n"),
        (["bench", "--n", ",", "--seed", "3"], "--n"),
        (["bench", "--beta", ",", "--seed", "3"], "--beta"),
    ],
)
def test_empty_list_flag_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "c.csv"
    if argv[0] == "costs":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert f"argument {flag}: expected at least one" in captured.err
    assert not out.exists()


def test_attack_subcommand_both_schemes(capsys):
    assert main(["attack", "--scheme", "baseline", "--n", "6", "--seed", "2"]) == 0
    assert main(["attack", "--scheme", "lp3pss", "--n", "6", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "recovered" in out


@pytest.mark.parametrize(("n", "joins", "leaves"), [(6, 0, 1), (1, 1, 0)])
def test_attack_on_lp3pss_runs_one_real_membership_change(monkeypatch, capsys, n, joins, leaves):
    # the DLP check must see a stream in which somebody left (or joined)
    runs = []

    def recording_run(config):
        runs.append(run_simulation(config))
        return runs[-1]

    monkeypatch.setattr(cli, "run_simulation", recording_run)
    assert main(["attack", "--scheme", "lp3pss", "--n", str(n), "--seed", "2"]) == 0
    (result,) = runs
    first, second = result.rounds
    assert (len(second.joins), len(second.leaves)) == (joins, leaves)
    assert set(first.roster) ^ set(second.roster) == {*second.joins, *second.leaves}
    assert capsys.readouterr().out == (
        "SRLP: exposed users: []\n"
        "DLP: recovered = None (no RSS aggregate in any entity view)\n"
    )


def test_costs_csv_layout(tmp_path):
    out = tmp_path / "costs.csv"
    code = main(["costs", "--schemes", "lp3pss,ppss,pdaft,lpos", "--n", "10,100,500",
                 "--out", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {(r["scheme"], r["n"]) for r in rows}
    assert len(cells) == 12  # every (scheme, n) combination is present
    assert rows[0].keys() == {"scheme", "n", "entity", "primitive", "count", "comm_bits"}


def test_costs_unknown_scheme(tmp_path, capsys):
    code = main(["costs", "--schemes", "rot13", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "argument --schemes: unknown scheme(s): rot13" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--n", "-1"], "n"),
        (["--n", "10,0"], "n"),
        (["--mu", "2"], "mu"),
        (["--blck", "0"], "blck_bits"),
        (["--gamma", "0"], "gamma"),
        (["--y", "0"], "y"),
        (["--beta", "-3"], "beta"),
        (["--beta", "nan"], "beta"),
        (["--beta", "inf"], "beta"),
    ],
)
def test_costs_rejects_bad_value(tmp_path, capsys, flags, field):
    out = tmp_path / "c.csv"
    code = main(["costs", "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"config error: {field} must")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma", "1100"],  # PPSS's 2^(gamma-1) overflows a float
        ["--n", "1" + "0" * 400],  # too large to convert to a float
        ["--beta", "1e308", "--schemes", "ppss"],  # a finite beta whose bits are infinite
    ],
    ids=["gamma", "n", "beta"],
)
def test_costs_refuses_overflowing_parameters(tmp_path, capsys, flags):
    out = tmp_path / "c.csv"
    code = main(["costs", "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("config error: ") and "overflow" in err
    assert not out.exists()


def test_verify_clean_and_tampered_transcripts(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--n", "5", "--rounds", "3", "--seed", "7",
                 "--out", str(tmp_path / "r.json"), "--transcript", str(transcript)]) == 0
    assert main(["verify", "--transcript", str(transcript)]) == 0

    leaked = json.dumps(
        {"round": 1, "entity": "FC", "direction": "received", "tag": "PLAINTEXT_VALUE",
         "size_bytes": 0, "meta": {"kind": "rss", "user": 2, "value": 1234}}
    )
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(transcript.read_text() + leaked + "\n")
    capsys.readouterr()
    assert main(["verify", "--transcript", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION at FC" in out


@pytest.mark.parametrize("parties", [5, "U1 and FC", {"U1": 0}])
def test_verify_flags_key_material_whose_parties_are_not_a_list(tmp_path, capsys, parties):
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--n", "3", "--rounds", "2", "--seed", "7",
                 "--out", str(tmp_path / "r.json"), "--transcript", str(transcript)]) == 0
    key_line = json.dumps(
        {"round": 1, "entity": "U1", "direction": "received", "tag": "KEY_MATERIAL",
         "size_bytes": 0, "meta": {"parties": parties}}
    )
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(transcript.read_text() + key_line + "\n")
    capsys.readouterr()
    assert main(["verify", "--transcript", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert "VIOLATION at U1" in captured.out and "key material" in captured.out
    assert captured.err == ""


def test_verify_judges_a_user_name_past_the_int_digit_limit_an_unknown_entity(tmp_path, capsys):
    # int() refuses more than 4300 digits, and user_name cannot write such a
    # name: a well-formed line is a violation, not a malformed transcript
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--n", "3", "--rounds", "2", "--seed", "7",
                 "--out", str(tmp_path / "r.json"), "--transcript", str(transcript)]) == 0
    entity = "U" + "1" * 5000
    line = json.dumps(
        {"round": 1, "entity": entity, "direction": "received", "tag": "PLAINTEXT_VALUE",
         "size_bytes": 0, "meta": {"kind": "rss", "user": 1, "value": 1234}}
    )
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(transcript.read_text() + line + "\n")
    capsys.readouterr()
    assert main(["verify", "--transcript", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert f"VIOLATION at {entity} (round 1): unknown entity {entity!r}" in captured.out
    assert captured.err == ""


def test_verify_malformed_transcript(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["verify", "--transcript", str(bad)]) == 2
    assert main(["verify", "--transcript", str(tmp_path / "missing.jsonl")]) == 2

    # JSON that parses but is not an event record, appended to a good transcript
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--n", "4", "--rounds", "2", "--seed", "7",
                 "--out", str(tmp_path / "r.json"), "--transcript", str(transcript)]) == 0
    good_lines = transcript.read_text()
    good = json.loads(good_lines.splitlines()[0])
    wrong_shapes = [
        "[1]",
        "5",
        json.dumps({**good, "meta": "s"}),
        json.dumps({**good, "entity": 7}),
        json.dumps({**good, "size_bytes": "z"}),
        json.dumps({**good, "round": True}),
        json.dumps({**good, "tag": "SECRET"}),
        json.dumps({**good, "tag": [good["tag"]]}),
        json.dumps({k: v for k, v in good.items() if k != "meta"}),
        json.dumps(good) + " {}",
        "[" * 100_000,
        # only space, tab, CR and LF are JSON whitespace
        "\xa0" + json.dumps(good),
        json.dumps(good) + "\xa0",
        "\x0c" + json.dumps(good),
        "\u2028" + json.dumps(good),
        "\x1c",
        "\x1f",
        "\x85",
    ]
    lineno = good_lines.count("\n") + 1
    for line in wrong_shapes:
        bad.write_text(good_lines + line + "\n")
        capsys.readouterr()
        assert main(["verify", "--transcript", str(bad)]) == 2, line[:40]
        err = capsys.readouterr().err
        assert f"malformed transcript: transcript line {lineno} is malformed" in err


@pytest.mark.parametrize(
    "keep, reason",
    [
        (lambda rec: rec["entity"] != "FC", "missing fusion center or gateway log"),
        (lambda rec: rec["entity"] != "GW", "missing fusion center or gateway log"),
        (lambda rec: rec["entity"].startswith("U"), "missing fusion center or gateway log"),
        (
            lambda rec: not (rec["entity"] == "FC" and rec["meta"].get("op") == "aead_dec"),
            "no decided round",
        ),
    ],
    ids=["no-fc", "no-gw", "users-only", "no-decided-round"],
)
def test_verify_rejects_incomplete_transcript(tmp_path, capsys, keep, reason):
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--n", "4", "--rounds", "2", "--seed", "7",
                 "--out", str(tmp_path / "r.json"), "--transcript", str(transcript)]) == 0
    lines = transcript.read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.jsonl"
    partial.write_text("".join(line for line in lines if keep(json.loads(line))))
    capsys.readouterr()
    assert main(["verify", "--transcript", str(partial)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot check transcript: incomplete transcript: {reason}\n"


LEAKED_RSS = json.dumps(
    {"round": 1, "entity": "FC", "direction": "received", "tag": "PLAINTEXT_VALUE",
     "size_bytes": 0, "meta": {"kind": "rss", "user": 2, "value": 1234}}
)


def simulated_transcript(tmp_path, n=4, rounds=2):
    transcript = tmp_path / f"t{n}x{rounds}.jsonl"
    assert main(["simulate", "--n", str(n), "--rounds", str(rounds), "--seed", "7",
                 "--out", str(tmp_path / "r.json"), "--transcript", str(transcript)]) == 0
    return transcript


def test_verify_prints_nothing_when_a_violation_precedes_a_malformed_line(tmp_path, capsys):
    lines = simulated_transcript(tmp_path).read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(LEAKED_RSS + "\n" + "".join(lines) + "{not json\n")
    capsys.readouterr()
    assert main(["verify", "--transcript", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"malformed transcript: transcript line {len(lines) + 2} is malformed: "
    )


def test_verify_prints_no_verdicts_for_a_violating_incomplete_transcript(tmp_path, capsys):
    lines = simulated_transcript(tmp_path).read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.jsonl"
    partial.write_text("".join(line for line in lines if json.loads(line)["entity"] != "GW")
                       + LEAKED_RSS + "\n")
    capsys.readouterr()
    assert main(["verify", "--transcript", str(partial)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cannot check transcript: incomplete transcript: missing fusion center or gateway log\n"
    )


def test_verify_memory_does_not_grow_with_the_transcript(tmp_path, capsys):
    short, long = (simulated_transcript(tmp_path, n=10, rounds=rounds) for rounds in (20, 200))
    assert main(["verify", "--transcript", str(short)]) == 0  # warm every lazy cache
    peaks = []
    for transcript in (short, long):
        tracemalloc.start()
        try:
            assert main(["verify", "--transcript", str(transcript)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_verify_gives_the_same_verdicts_on_stream_and_entity_order(tmp_path, capsys):
    # a transcript is written in stream order; verify groups events by entity
    # itself, so the same lines stable-sorted by entity read the same, clean
    # or with violations at the fusion center, the gateway and a user
    config = SimulationConfig(
        SensingConfig(n=8, rounds=6, seed=11, report_loss_prob=0.1),
        churn=ChurnConfig(mu=0.8, join_count=CountRange(1, 2), leave_count=CountRange(0, 1)),
        adversary=AdversaryProfile(
            {1: Behavior(STUCK_AT, stuck_bit=1), 2: Behavior(ALWAYS_FLIP), 3: Behavior(RANDOM_FLIP, flip_prob=0.5)}
        ),
    )
    fh = io.StringIO()
    run_simulation(config).recorder.dump_transcript(fh)
    lines = fh.getvalue().splitlines(keepends=True)
    leaks = [
        LEAKED_RSS,
        LEAKED_RSS.replace('"FC"', '"GW"').replace('"round": 1', '"round": 4'),
        LEAKED_RSS.replace('"FC"', '"U4"').replace('"round": 1', '"round": 2'),
    ]
    transcript = tmp_path / "t.jsonl"
    for injected in ([], leaks):
        stream = list(lines)
        for i, leak in enumerate(injected, start=1):
            stream.insert(i * len(stream) // 4, leak + "\n")
        by_entity = sorted(stream, key=lambda line: json.loads(line)["entity"])
        assert by_entity != stream
        outcomes = []
        for order in (stream, by_entity):
            transcript.write_text("".join(order))
            code = main(["verify", "--transcript", str(transcript)])
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        code, out, _ = outcomes[0]
        assert code == (1 if injected else 0)
        assert [entity for entity in ("FC", "GW", "U4") if f"VIOLATION at {entity} " in out] == (
            ["FC", "GW", "U4"] if injected else []
        )


# Every draw a run makes: churn with joins and leaves, three adversary
# kinds, lost reports, and the baseline attack's scenario.
NO_NUMPY_RUN = """
import json, sys
from pathlib import Path
from lp3pss.cli import main

out = Path(sys.argv[1])
config = out / "cfg.json"
config.write_text(json.dumps({
    "sensing": {"n": 8, "rounds": 6, "report_loss_prob": 0.2},
    "churn": {"mu": 1.0, "join": [0, 2], "leave": [1, 2]},
    "adversary": {"1": {"kind": "always-flip"}, "2": {"kind": "random-flip", "flip_prob": 0.5},
                  "3": {"kind": "stuck-at", "stuck_bit": 0}},
}))
assert main(["simulate", "--config", str(config), "--seed", "3",
             "--out", str(out / "r.json"), "--transcript", str(out / "t.jsonl")]) == 0
assert main(["verify", "--transcript", str(out / "t.jsonl")]) == 0
assert main(["attack", "--scheme", "baseline", "--n", "5", "--seed", "4"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "numpy")))
"""


def test_a_run_never_imports_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    report = json.loads((tmp_path / "r.json").read_text())
    assert report and (tmp_path / "t.jsonl").stat().st_size > 0
