"""End-to-end command-line runs: artifacts, exit codes, verify and replay."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import celab
from celab.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, build_parser, main
from celab.config import ENGINES
from celab.expansion import ExpansionEngine
from celab.trace import KINDS, TraceEvent, TraceFormatError, read_trace

LEMMA2_CONFIG = {
    "engine": "lemma2",
    "stages": 120,
    "alpha": {"kind": "constant_target", "limit": "2/3", "rate": "1/2"},
    "eta": {"kind": "constant_target", "limit": "1/2", "rate": "1/2"},
    "suite": [
        {"index": 0, "role": "L", "kind": "constant_target",
         "limit": "1/3", "rate": "1/2"},
        {"index": 1, "role": "R", "kind": "constant_target",
         "limit": "1/4", "rate": "1/2"},
    ],
}

PROP3_CONFIG = {
    "engine": "prop3",
    "stages": 100,
    "suite": [
        {"index": 0, "role": "L", "kind": "tracker", "lag": 0,
         "start": "1/32"},
        {"index": 1, "role": "R", "kind": "tracker", "lag": 1,
         "start": "31/32"},
    ],
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestEngineRuns:
    def test_run_lemma2_green(self, tmp_path, capsys):
        cfg = write_config(tmp_path, LEMMA2_CONFIG)
        rc = main(["run-lemma2", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] V1" in out and "[FAIL]" not in out
        assert (tmp_path / "lemma2.trace.jsonl").exists()
        assert (tmp_path / "lemma2.report.txt").exists()
        report = json.loads((tmp_path / "lemma2.report.json").read_text())
        assert report["all_green"] is True

    def test_run_prop3_green(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PROP3_CONFIG)
        rc = main(["run-prop3", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] W1" in out and "[FAIL]" not in out
        assert (tmp_path / "prop3.trace.jsonl").exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, PROP3_CONFIG)
        dest = tmp_path / "artifacts"
        monkeypatch.setenv("CELAB_OUT_DIR", str(dest))
        assert main(["run-prop3", "--config", cfg]) == EXIT_OK
        assert (dest / "prop3.trace.jsonl").exists()

    def test_out_dir_that_cannot_be_made_is_config_error(self, tmp_path, capsys, monkeypatch):
        # refused before the engine runs a stage, from the flag or the environment
        cfg = write_config(tmp_path, LEMMA2_CONFIG)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        runs = []
        monkeypatch.setitem(ENGINES, "lemma2", ENGINES["lemma2"]._replace(engine=runs.append))
        for out, env in ((blocker, None), (blocker / "sub", None), (None, blocker)):
            if env is not None:
                monkeypatch.setenv("CELAB_OUT_DIR", str(env))
            argv = ["run-lemma2", "--config", cfg] + (["--out-dir", str(out)] if out else [])
            assert main(argv) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot make output directory {out or env}: ")
        assert runs == []

    @pytest.mark.parametrize("blocked", ["trace.jsonl", "report.txt", "report.json"])
    def test_output_file_that_cannot_be_written_is_config_error(self, tmp_path, capsys,
                                                                monkeypatch, blocked):
        # the trace is opened before stage 1: a blocked trace path stops the
        # run before any stage, a blocked report after the whole run
        cfg = write_config(tmp_path, LEMMA2_CONFIG)
        path = tmp_path / f"lemma2.{blocked}"
        path.mkdir()
        steps = []

        class Counted(ExpansionEngine):
            def step(self):
                steps.append(self.s + 1)
                super().step()

        monkeypatch.setitem(ENGINES, "lemma2", ENGINES["lemma2"]._replace(engine=Counted))
        assert main(["run-lemma2", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: cannot write {path}: ")
        stages = 0 if blocked == "trace.jsonl" else LEMMA2_CONFIG["stages"]
        assert steps == list(range(1, stages + 1))

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(PROP3_CONFIG).encode("utf-16-le"))
        assert main(["run-prop3", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff")

    def test_engine_config_mismatch_is_config_error(self, tmp_path, capsys):
        for payload, command in ((PROP3_CONFIG, "run-lemma2"),
                                 (LEMMA2_CONFIG, "run-prop3")):
            cfg = write_config(tmp_path, payload)
            assert main([command, "--config", cfg,
                         "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err.startswith("config error: config engine is ")
        assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_hard_cap_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(PROP3_CONFIG, stages=20_000,
                                          hard_cap=50_000))
        assert main(["run-prop3", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "hard_cap" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload, key", [
        ({"engine": "prop3", "stages": 100, "suites": PROP3_CONFIG["suite"]}, "suites"),
        (dict(PROP3_CONFIG, suite=[{"index": 0, "role": "L", "kind": "tracker", "lags": 3,
                                    "start": "1/32"}]), "lags"),
    ], ids=["suites", "lags"])
    def test_misspelt_key_is_config_error(self, tmp_path, capsys, payload, key):
        # ignored, either key would leave a run that passes: prop3 with no
        # adversaries, or a tracker with lag 0
        cfg = write_config(tmp_path, payload)
        assert main(["run-prop3", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"unknown key '{key}'" in err
        assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_cli_names_no_engine(self):
        # every engine reaches the CLI through the one table in config.py
        from pathlib import Path

        from celab import cli
        from celab.config import ENGINES

        source = Path(cli.__file__).read_text()
        assert [name for name in ENGINES if name in source] == []

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run-lemma2", "--config", str(tmp_path / "ghost.json"),
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_bad_rational_is_config_error(self, tmp_path):
        broken = dict(LEMMA2_CONFIG, alpha={"kind": "constant_target",
                                            "limit": "0.66"})
        cfg = write_config(tmp_path, broken)
        assert main(["run-lemma2", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR


class TestVerifyAndReplay:
    def run_lemma2(self, tmp_path):
        cfg = write_config(tmp_path, LEMMA2_CONFIG)
        assert main(["run-lemma2", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        return tmp_path / "lemma2.trace.jsonl"

    def test_verify_green_trace(self, tmp_path, capsys):
        trace = self.run_lemma2(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == EXIT_OK
        assert "[PASS] V4" in capsys.readouterr().out

    def test_verify_tampered_final_names_invariant(self, tmp_path, capsys):
        trace = self.run_lemma2(tmp_path)
        lines = trace.read_text().splitlines()
        final = json.loads(lines[-1])
        final["beta"] = "9/8"  # forge a total at/above 1
        lines[-1] = json.dumps(final)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "[PASS] V1" in out  # V1 reads the trace's beta, not the final record's
        assert ("first violated invariant: V0 final record is the folded trace's: "
                "final record's 'beta' is not the folded trace's") in out

    def test_replay_green_trace(self, tmp_path, capsys):
        trace = self.run_lemma2(tmp_path)
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == EXIT_OK
        assert "bit-exactly" in capsys.readouterr().out

    def test_replay_detects_event_tampering(self, tmp_path, capsys):
        trace = self.run_lemma2(tmp_path)
        lines = trace.read_text().splitlines()
        # tamper the last beta event: the replayed final state must disagree
        # with the recorded snapshot
        for n in range(len(lines) - 1, -1, -1):
            d = json.loads(lines[n])
            if d.get("event_kind") == "beta":
                d["new_value"] = "1/999"
                lines[n] = json.dumps(d)
                break
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == EXIT_CHECK_FAILED
        assert "mismatch" in capsys.readouterr().out

    def test_prop3_replay_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PROP3_CONFIG)
        assert main(["run-prop3", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        trace = tmp_path / "prop3.trace.jsonl"
        assert main(["replay", "--trace", str(trace)]) == EXIT_OK
        assert main(["verify", "--trace", str(trace)]) == EXIT_OK

    @pytest.mark.parametrize("config", [LEMMA2_CONFIG, PROP3_CONFIG], ids=["lemma2", "prop3"])
    def test_run_report_is_verify_of_its_trace(self, tmp_path, capsys, config):
        engine = config["engine"]
        assert main([f"run-{engine}", "--config", write_config(tmp_path, config),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        trace = tmp_path / f"{engine}.trace.jsonl"
        assert main(["verify", "--trace", str(trace)]) == EXIT_OK
        assert (tmp_path / f"{engine}.report.txt").read_text() == capsys.readouterr().out
        _, events, final = read_trace(trace)
        report = json.loads(json.dumps(ENGINES[engine].verify(events, final).to_dict()))
        assert json.loads((tmp_path / f"{engine}.report.json").read_text()) == report

    def test_unreadable_trace_is_config_error(self, tmp_path):
        assert main(["verify", "--trace",
                     str(tmp_path / "ghost.jsonl")]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("command", ["verify", "replay"])
    @pytest.mark.parametrize("header", [
        {"record": "header", "engine": "lemma5", "stages": 1},
        {"record": "header", "stages": 1},
    ], ids=["unknown-engine", "no-engine"])
    def test_unknown_trace_engine_is_config_error(self, tmp_path, capsys,
                                                  command, header):
        trace = tmp_path / "odd.trace.jsonl"
        trace.write_text(json.dumps(header) + "\n"
                         + json.dumps({"record": "final", "stage": 0}) + "\n")
        assert main([command, "--trace", str(trace)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: trace header names unknown engine")


class TestSolovayCommands:
    ALPHA = json.dumps({"kind": "constant_target", "limit": "1/2", "rate": "1/2"})
    BETA = json.dumps({"kind": "constant_target", "limit": "1/3", "rate": "1/2"})

    def test_check_holds(self, capsys):
        rc = main(["solovay", "check", "--clause", "c", "--q", "3/4",
                   "--alpha", self.ALPHA, "--beta", self.BETA])
        assert rc == EXIT_OK
        assert "holds" in capsys.readouterr().out

    def test_check_fails_with_stage(self, capsys):
        rc = main(["solovay", "check", "--clause", "c", "--q", "1/2",
                   "--alpha", self.ALPHA, "--beta", self.BETA])
        assert rc == EXIT_CHECK_FAILED
        assert "fails at s=0" in capsys.readouterr().out

    def test_clause_b_notes_diagnostic(self, capsys):
        rc = main(["solovay", "check", "--clause", "b", "--q", "1/1",
                   "--alpha", self.ALPHA, "--beta", self.BETA])
        assert rc == EXIT_OK
        assert "horizon proxy" in capsys.readouterr().out

    def test_speedup_prints_exact_values(self, capsys):
        rc = main(["solovay", "speedup", "--p", "2/1", "--stages", "3",
                   "--alpha", self.ALPHA, "--beta", self.BETA])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all("/" in line for line in lines)  # p/q form, no decimals

    def test_nonpositive_p_is_config_error(self):
        assert main(["solovay", "speedup", "--p", "0/1",
                     "--alpha", self.ALPHA, "--beta", self.BETA]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("argv", [
    ["omega", "enumerate", "--machine", "pair", "--length", "6"],
    ["solovay", "check", "--clause", "a", "--q", "1/1",
     "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
    ["solovay", "speedup", "--p", "2/1",
     "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
], ids=["omega-enumerate", "solovay-check", "solovay-speedup"])
def test_negative_stages_is_config_error(argv, capsys):
    assert main([*argv, "--stages", "-3"]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --stages must be >= 0, got -3\n"


@pytest.mark.parametrize("argv, message", [
    (["solovay", "check", "--clause", "a", "--q", "1/0",
      "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
     "bad rational '1/0' for --q"),
    (["solovay", "speedup", "--p", "1/0",
      "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
     "bad rational '1/0' for --p"),
    (["solovay", "check", "--clause", "a", "--q", "3/4",
      "--alpha", "[1]", "--beta", TestSolovayCommands.BETA],
     "stream spec [1] is not a JSON object"),
    (["solovay", "check", "--clause", "b", "--q", "1/2", "--stages", "5", "--horizon", "3",
      "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
     "--horizon must be >= 6, got 3\n"),
    (["solovay", "check", "--clause", "b", "--q", "1/2", "--stages", "5", "--horizon", "5",
      "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
     "--horizon must be >= 6, got 5\n"),
    (["solovay", "check", "--clause", "a", "--q", "0",
      "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
     "--q must be positive, got 0\n"),
    (["solovay", "speedup", "--p=-1/2",
      "--alpha", TestSolovayCommands.ALPHA, "--beta", TestSolovayCommands.BETA],
     "--p must be positive, got -1/2\n"),
], ids=["zero-q", "zero-p", "list-stream-spec", "horizon-below", "horizon-equal",
        "nonpositive-q", "negative-p"])
def test_malformed_solovay_input_is_config_error(argv, message, capsys):
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")


def test_one_parser_serves_every_call():
    # built once per process; a parse leaves nothing behind for the next one
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["omega", "enumerate", "--length", "6", "--stages", "3"])
    verify = parser.parse_args(["verify", "--trace", "t.jsonl"])
    again = parser.parse_args(["omega", "enumerate", "--length", "7", "--stages", "4"])
    assert vars(verify) == {"command": "verify", "trace": "t.jsonl", "func": verify.func}
    assert (first.length, first.stages, first.machine) == (6, 3, "pair")
    assert (again.length, again.stages, again.machine) == (7, 4, "pair")
    with pytest.raises(SystemExit):
        parser.parse_args(["verify"])
    assert parser.parse_args(["replay", "--trace", "u"]).trace == "u"


def test_non_object_suite_entry_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(PROP3_CONFIG, suite=["x"]))
    assert main(["run-prop3", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: suite entry 0 'x' is not a JSON object\n"


@pytest.mark.parametrize("payload, message", [
    ([1], "config [1] is not a JSON object"),
    ("x", "config 'x' is not a JSON object"),
    (dict(PROP3_CONFIG, suite=5), "config: 'suite' 5 is not a JSON array"),
    (dict(PROP3_CONFIG, suite={"index": 0}), "config: 'suite' {'index': 0} is not a JSON array"),
    (dict(PROP3_CONFIG, suite="LR"), "config: 'suite' 'LR' is not a JSON array"),
    ({"stages": 5}, "config: missing field 'engine'"),
    ({"engine": ["lemma2"], "stages": 5},
     "unknown engine ['lemma2']; expected one of ('lemma2', 'prop3')"),
    (dict(PROP3_CONFIG, suite=[{"index": 0, "role": "L", "kind": "omega", "machine": "pair",
                                "max_length": 0}]), "max_length must be >= 1, got 0"),
], ids=["list", "string", "suite-number", "suite-object", "suite-string", "no-engine",
        "engine-list", "omega-length-0"])
def test_config_shape_is_config_error(tmp_path, capsys, payload, message):
    # each top-level field is read by its own reader, which names it
    cfg = write_config(tmp_path, payload)
    assert main(["run-prop3", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_bad_rational_names_its_suite_entry(tmp_path, capsys):
    suite = [PROP3_CONFIG["suite"][0],
             {"index": 1, "role": "L", "kind": "constant_target", "limit": "x", "rate": "1/2"}]
    cfg = write_config(tmp_path, dict(PROP3_CONFIG, suite=suite))
    assert main(["run-prop3", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(
        "config error: bad rational 'x' for 'limit' in suite[1/L]: ")


def test_huge_omega_length_is_refused_at_once(tmp_path, capsys):
    # counting the programs of length <= 10^6 one shape at a time took minutes
    cfg = write_config(tmp_path, dict(LEMMA2_CONFIG, alpha={
        "kind": "omega", "max_length": 1_000_000}))
    start = time.perf_counter()
    assert main(["run-lemma2", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("config error: max_length 1000000 gives at least "
                                       "8^249999 programs, more than 1048576\n")


def test_clause_b_default_horizon_at_stage_zero(capsys):
    # the default horizon, twice --stages, is at least 1
    assert main(["solovay", "check", "--clause", "b", "--q", "1/2", "--stages", "0",
                 "--alpha", TestSolovayCommands.ALPHA,
                 "--beta", TestSolovayCommands.BETA]) == EXIT_OK
    assert "holds on prefix T=0" in capsys.readouterr().out


class TestOmegaCommand:
    def test_enumerate_prints_tab_separated(self, capsys):
        rc = main(["omega", "enumerate", "--machine", "pair",
                   "--length", "10", "--stages", "3"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "0\t0/1"
        stage, value = lines[1].split("\t")
        assert stage == "1" and "/" in value

    def test_unknown_machine_is_config_error(self):
        assert main(["omega", "enumerate", "--machine", "ghost",
                     "--length", "6", "--stages", "2"]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("flags, fragment", [
        (["--length", "0", "--stages", "3"], "--length must be >= 1"),
        (["--length", "6", "--stages", "-3"], "--stages must be >= 0"),
    ], ids=["length-0", "negative-stages"])
    def test_bad_bounds_are_config_errors(self, flags, fragment, capsys):
        rc = main(["omega", "enumerate", "--machine", "pair", *flags])
        assert rc == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and fragment in captured.err

    def test_oversized_pool_is_config_error(self, capsys):
        # silent at L=40 would seed about 8^9 programs; the count is refused
        # before any is built
        start = time.perf_counter()
        rc = main(["omega", "enumerate", "--machine", "silent",
                   "--length", "40", "--stages", "3"])
        assert time.perf_counter() - start < 5
        assert rc == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: machine silent: max_length 40 gives ")

    def test_kraft_sum_one_is_config_error(self, tmp_path, capsys):
        # the two trivial codes 0 and 1 both halt at stage 1: 1/2 + 1/2 = 1
        machine = tmp_path / "full.machine"
        machine.write_text("sub unit trivial\ndispatch 0 unit\ndispatch 1 unit\n")
        rc = main(["omega", "enumerate", "--machine", str(machine),
                   "--length", "4", "--stages", "3"])
        assert rc == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == "0\t0/1\n"
        assert captured.err == f"config error: machine {machine}: Kraft sum reached 1\n"

    @pytest.mark.parametrize("subs", [
        "sub c halt inc0 inc1 inc2 djz0 djz1 jmp nop\n"
        "sub d nop inc0 inc1 djz0 halt djz1 jmp inc2\n"
        "dispatch 0 c\ndispatch 0 d\n",
        "sub u trivial\nsub v trivial\ndispatch 0 u\ndispatch 0 v\n",
    ], ids=["two-counters", "two-trivial"])
    def test_repeated_dispatch_code_is_config_error(self, tmp_path, capsys, subs):
        # one program string would run on two interpreters: the two
        # counters' halts 010000 and 010100 made Omega read 1/32 with exit 0
        machine = tmp_path / "repeated.machine"
        machine.write_text(subs)
        rc = main(["omega", "enumerate", "--machine", str(machine),
                   "--length", "6", "--stages", "3"])
        assert rc == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: bad machine file {machine}: "
                                "dispatch codes not prefix-free: '0' vs '0'\n")

    def test_machine_file_is_read_as_utf8(self, tmp_path):
        # the same output under the C locale with Python's UTF-8 mode off,
        # where the default text encoding is ASCII
        machine = tmp_path / "omega.machine"
        machine.write_text("# \u03a9 machine\nsub unit trivial\ndispatch 10 unit\n",
                           encoding="utf-8")
        argv = ["-m", "celab.cli", "omega", "enumerate", "--machine", str(machine),
                "--length", "4", "--stages", "2"]
        ascii_env = dict(module_env(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        runs = [subprocess.run([sys.executable, "-X", mode, *argv], capture_output=True,
                               text=True, env=env, timeout=60)
                for mode, env in (("utf8=0", ascii_env), ("utf8", module_env()))]
        for proc in runs:
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert runs[0].stdout == runs[1].stdout == "0\t0/1\n1\t1/4\n2\t1/4\n"

    def test_kraft_sum_one_in_a_stream_is_config_error(self, tmp_path, capsys):
        # the same machine driving a config's or a flag's omega stream
        machine = tmp_path / "full.machine"
        machine.write_text("sub unit trivial\ndispatch 0 unit\ndispatch 1 unit\n")
        spec = {"kind": "omega", "machine": str(machine), "max_length": 4, "offset": "0",
                "scale": "1/4"}
        cfg = write_config(tmp_path, dict(LEMMA2_CONFIG, alpha=spec))
        for argv in (["run-lemma2", "--config", cfg, "--out-dir", str(tmp_path)],
                     ["solovay", "speedup", "--p", "1", "--stages", "3", "--alpha",
                      json.dumps(spec), "--beta", TestSolovayCommands.BETA]):
            assert main(argv) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == "config error: Kraft sum reached 1\n"


TYPED_CONFIG = dict(LEMMA2_CONFIG, stages=20, suite=[
    {"index": 0, "role": "L", "kind": "constant_target", "limit": "1/3", "rate": "1/2"},
    {"index": 1, "role": "R", "kind": "tracker", "lag": 1, "start": "15/16"},
    {"index": 2, "role": "L", "kind": "omega", "machine": "pair", "max_length": 6},
])


def typed_config(field, value):
    """TYPED_CONFIG with one of its integer fields, or the omega machine,
    set to value."""
    payload = json.loads(json.dumps(TYPED_CONFIG))
    holder = {"stages": payload, "index": payload["suite"][0], "lag": payload["suite"][1],
              "max_length": payload["suite"][2], "machine": payload["suite"][2]}[field]
    holder[field] = value
    return payload


class TestTypedConfigFields:
    def test_integers_accepted(self, tmp_path):
        cfg = write_config(tmp_path, TYPED_CONFIG)
        assert main(["run-lemma2", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("value", [True, "7", 1.5, [3], None],
                             ids=["bool", "string", "float", "list", "null"])
    @pytest.mark.parametrize("field", ["stages", "index", "lag", "max_length"])
    def test_non_integer_is_config_error(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, typed_config(field, value))
        assert main(["run-lemma2", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert f"'{field}' must be an integer, got {value!r}\n" in captured.err
        assert not list(tmp_path.glob("*.trace.jsonl"))

    @pytest.mark.parametrize("machine, message", [
        (None, "bad machine file "), (5, "machine 5 is not a name or a path"),
        ([1], "machine [1] is not a name or a path"),
    ], ids=["directory", "number", "list"])
    def test_unreadable_machine_is_config_error(self, tmp_path, capsys, machine, message):
        machine = str(tmp_path) if machine is None else machine
        cfg = write_config(tmp_path, typed_config("machine", machine))
        assert main(["run-lemma2", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_machine_directory_through_omega_command(self, tmp_path, capsys):
        assert main(["omega", "enumerate", "--machine", str(tmp_path),
                     "--length", "6", "--stages", "2"]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: bad machine file {tmp_path}: ")


def test_values_past_the_int_digit_limit(tmp_path, capsys):
    # rates this close to 1 give exact values of more than 4300 digits, the
    # interpreter's default int <-> str limit; the command lifts the limit
    # while it runs and restores it on return
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    cfg = write_config(tmp_path, dict(LEMMA2_CONFIG, stages=600, alpha={
        "kind": "constant_target", "limit": "2/3", "rate": "99999999/100000000"}, eta={
        "kind": "constant_target", "limit": "1/2", "rate": "99999997/100000000"}, suite=[
        {"index": 0, "role": "L", "kind": "constant_target", "limit": "1/3", "rate": "1/2"},
        {"index": 1, "role": "R", "kind": "tracker", "lag": 1, "start": "15/16"},
    ]))
    trace = str(tmp_path / "lemma2.trace.jsonl")
    assert main(["run-lemma2", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert main(["verify", "--trace", trace]) == EXIT_OK
    assert main(["replay", "--trace", trace]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out
    assert max(map(len, re.findall(r"\d+", Path(trace).read_text()))) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


GOLDENS = Path(__file__).parent / "data"


def module_env() -> dict:
    """The environment for `python -m celab.cli` on the package under test."""
    src = str(Path(celab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_module(trace) -> dict:
    """`python -m celab.cli verify` and `replay` on `trace`, side by side:
    command -> (exit code, stdout, stderr)."""
    procs = {command: subprocess.Popen(
        [sys.executable, "-m", "celab.cli", command, "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=module_env())
        for command in ("verify", "replay")}
    results = {}
    for command, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        results[command] = (proc.returncode, out, err)
    return results


@pytest.mark.parametrize("engine", ["lemma2", "prop3"])
def test_module_entry_point_on_goldens(tmp_path, engine):
    """`python -m celab.cli` exits through `entry()`: 0 on a golden trace,
    1 once its final record claims a stage the events never reach."""
    golden = GOLDENS / f"golden_{engine}.trace.jsonl"
    lines = golden.read_text().splitlines()
    final = json.loads(lines[-1])
    final["stage"] += 1
    tampered = tmp_path / golden.name
    tampered.write_text("\n".join([*lines[:-1], json.dumps(final)]) + "\n")
    for trace, code in ((golden, EXIT_OK), (tampered, EXIT_CHECK_FAILED)):
        for command, (returncode, out, err) in run_module(trace).items():
            assert returncode == code, out + err
            assert err == ""


# name -> (config edit, exit code, stderr) for lemma2 configs with an omega
# stream that once made `run-lemma2` exit 1 with a traceback.  A decreasing
# omega image from offset 1 never reaches 1 after stage 0, so it is not
# held to the open unit interval; an alpha that leaves [0, 1) is a config
# error.
OMEGA_CONFIGS = {
    "R-adversary-from-one": (
        {"suite": [{"index": 0, "role": "R", "kind": "omega", "machine": "pair",
                    "max_length": 10, "offset": "1/1", "scale": "-1/2"}]},
        EXIT_OK, ""),
    "alpha-past-one": (
        {"alpha": {"kind": "omega", "machine": "pair", "max_length": 10,
                   "offset": "19/20", "scale": "1/2"}},
        EXIT_CONFIG_ERROR, "config error: alpha value 329/320 at stage 1 not in [0,1)\n"),
}


@pytest.mark.parametrize("case", list(OMEGA_CONFIGS))
def test_omega_stream_config_never_raises(tmp_path, case):
    # a run that stops on a stream fault leaves the trace written so far,
    # with no final record, in place of an earlier run's trace
    edit, code, stderr = OMEGA_CONFIGS[case]
    cfg = write_config(tmp_path, {**LEMMA2_CONFIG, "stages": 40, **edit})
    trace = tmp_path / "lemma2.trace.jsonl"
    trace.write_bytes((GOLDENS / "golden_lemma2.trace.jsonl").read_bytes())
    proc = subprocess.run(
        [sys.executable, "-m", "celab.cli", "run-lemma2", "--config", cfg,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=module_env(), timeout=120)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (code, stderr)
    if code == EXIT_CONFIG_ERROR:
        header, *events = map(json.loads, trace.read_text().splitlines())
        assert header["record"] == "header"
        # alpha faults at stage 1: stage 0's records, then nothing
        assert [(ev.get("stage"), ev.get("event_kind")) for ev in events] == [
            (0, "alpha"), (0, "eta"), (0, "beta")]
        for returncode, out, err in run_module(trace).values():
            assert (returncode, out) == (EXIT_CONFIG_ERROR, "")
            assert err.startswith(f"config error: cannot read trace {trace}")
            assert "Traceback" not in err


# name -> (golden engine, record, its edit, verify exit, replay exit); the
# record is "final" or (event kind, which of its records), or "lines" for an
# edit of the file's lines as bytes.  One rule for an event line: a record
# whose field breaks its kind's layout, or whose value is not the integer or
# p/q text its kind logs, is refused as the trace is read, and so is a line
# that is not UTF-8 or a framing record (header, final, or another "record")
# between the first and last lines; both commands exit 2 on it, whatever the
# kind and wherever the record.  A tampered final record fails V0/W0 and
# replay.  A header whose "stages" is not the integer stage the events
# reach is refused: a trace cut at a stage boundary, whose final record is
# the replay of the events kept, is consistent but for its header.
TAMPERED = {
    "lemma2-c-requirement-null": ("lemma2", ("c", "first"), {"requirement": None}, 2, 2),
    "lemma2-final-eta-null": ("lemma2", ("eta", "last"), {"new_value": None}, 2, 2),
    "lemma2-last-beta-x": ("lemma2", ("beta", "last"), {"new_value": "x"}, 2, 2),
    "lemma2-last-beta-null": ("lemma2", ("beta", "last"), {"new_value": None}, 2, 2),
    "lemma2-last-alpha-x": ("lemma2", ("alpha", "last"), {"new_value": "x"}, 2, 2),
    "lemma2-middle-alpha-x": ("lemma2", "lines",
                              lambda lines: rechained(lines, "alpha", "middle", "x"), 2, 2),
    "lemma2-last-q-x": ("lemma2", ("q", "last"), {"new_value": "x"}, 2, 2),
    "lemma2-last-beta_i-x": ("lemma2", ("beta_i", "last"), {"new_value": "x"}, 2, 2),
    "lemma2-last-beta_i-old-x": ("lemma2", ("beta_i", "last"), {"old_value": "x"}, 2, 2),
    "lemma2-last-gamma-x": ("lemma2", ("gamma", "last"), {"new_value": "x"}, 2, 2),
    "lemma2-first-delta-two-slashes": ("lemma2", ("delta", "first"), {"new_value": "1/2/3"},
                                       2, 2),
    "prop3-last-alpha-x": ("prop3", ("alpha", "last"), {"new_value": "x"}, 2, 2),
    "prop3-middle-alpha-x": ("prop3", ("alpha", "middle"), {"new_value": "x"}, 2, 2),
    "prop3-first-gamma-x": ("prop3", ("gamma", "first"), {"new_value": "x"}, 2, 2),
    "prop3-last-gamma-x": ("prop3", ("gamma", "last"), {"new_value": "x"}, 2, 2),
    "prop3-gamma-requirement-null": ("prop3", ("gamma", "first"), {"requirement": None}, 2, 2),
    "prop3-define-requirement-null": ("prop3", ("define", "first"), {"requirement": None}, 2, 2),
    "prop3-act-requirement-null": ("prop3", ("act", "first"), {"requirement": None}, 2, 2),
    "prop3-restraint-requirement-null": ("prop3", ("restraint", "first"), {"requirement": None},
                                         2, 2),
    "prop3-define-requirement-negative": ("prop3", ("define", "first"), {"requirement": -1},
                                          2, 2),
    "lemma2-final-beta-x": ("lemma2", "final", {"beta": "x"}, 1, 1),
    "lemma2-final-beta_i-key": ("lemma2", "final", {"beta_i": {"a": "1/16"}}, 1, 1),
    "lemma2-final-beta_i-value": ("lemma2", "final", {"beta_i": {"0": "x"}}, 1, 1),
    "lemma2-final-beta_i-list": ("lemma2", "final", {"beta_i": ["1/16"]}, 1, 1),
    "lemma2-final-no-beta": ("lemma2", "final", {"beta": None}, 1, 1),
    "prop3-final-A-x": ("prop3", "final", {"A": "x"}, 1, 1),
    "prop3-final-stage-text": ("prop3", "final", {"stage": "50"}, 1, 1),
    "prop3-second-header": ("prop3", "lines", lambda lines: [*lines[:100], lines[0],
                                                             *lines[100:]], 2, 2),
    "prop3-event-record-other": ("prop3", ("gamma", "middle"), {"record": "other"}, 2, 2),
    "prop3-final-mid-file": ("prop3", "lines", lambda lines: [*lines[:100], lines[-1],
                                                              *lines[100:]], 2, 2),
    "prop3-byte-ff": ("prop3", "lines", lambda lines: [*lines[:100], lines[100] + b"\xff",
                                                       *lines[101:]], 2, 2),
    "lemma2-cut-at-25": ("lemma2", "lines", lambda lines: cut(lines, 25), 2, 2),
    "prop3-cut-at-25": ("prop3", "lines", lambda lines: cut(lines, 25), 2, 2),
    "prop3-cut-at-25-header-25": ("prop3", "lines",
                                  lambda lines: with_stages(cut(lines, 25), 25), 0, 0),
    "prop3-header-stages-true": ("prop3", "lines", lambda lines: with_stages(lines, True),
                                 2, 2),
    "lemma2-header-stages-text": ("lemma2", "lines", lambda lines: with_stages(lines, "50"),
                                  2, 2),
    "lemma2-header-no-stages": ("lemma2", "lines", lambda lines: with_stages(lines, None),
                                2, 2),
}


def line_of(lines, kind, which) -> int:
    """The line number of the first, middle or last record of `kind`."""
    found = [n for n, line in enumerate(lines) if json.loads(line).get("event_kind") == kind]
    return found[{"first": 0, "middle": len(found) // 2, "last": -1}[which]]


def rechained(lines, kind, which, new) -> list:
    """`lines` with that record's new value set to `new`, and the next
    record of its kind and requirement holding `new` as its old value."""
    n = line_of(lines, kind, which)
    record = {**json.loads(lines[n]), "new_value": new}
    lines = [*lines[:n], json.dumps(record).encode(), *lines[n + 1:]]
    for m in range(n + 1, len(lines)):
        later = json.loads(lines[m])
        if (later.get("event_kind"), later.get("requirement")) == (kind, record["requirement"]):
            lines[m] = json.dumps({**later, "old_value": new}).encode()
            return lines
    raise AssertionError(f"no {kind} record after line {n}")


def cut(lines, stage):
    """The trace's lines cut after `stage`, the final record the replay of
    the events kept; the header still says 50 stages."""
    kept = [line for line in lines[1:-1] if json.loads(line)["stage"] <= stage]
    replay = ENGINES[json.loads(lines[0])["engine"]].replay
    final = replay(TraceEvent.from_dict(json.loads(line)) for line in kept)
    return [lines[0], *kept, json.dumps({"record": "final", **final}).encode()]


def with_stages(lines, stages):
    """The trace's lines with the header's "stages" set to `stages`, or
    dropped for None."""
    header = {k: v for k, v in {**json.loads(lines[0]), "stages": stages}.items()
              if v is not None}
    return [json.dumps(header).encode(), *lines[1:]]


@pytest.mark.parametrize("case", list(TAMPERED))
def test_tampered_golden_never_raises(tmp_path, case):
    engine, record, edit, verify_code, replay_code = TAMPERED[case]
    lines = (GOLDENS / f"golden_{engine}.trace.jsonl").read_bytes().splitlines()
    if record == "lines":
        lines = edit(lines)
    else:
        n = len(lines) - 1 if record == "final" else line_of(lines, *record)
        edited = {**json.loads(lines[n]), **edit}
        lines[n] = json.dumps({k: v for k, v in edited.items()
                               if not (record == "final" and v is None)}).encode()
    trace = tmp_path / "tampered.trace.jsonl"
    trace.write_bytes(b"\n".join(lines) + b"\n")
    results = run_module(trace)
    assert {command: code for command, (code, _, _) in results.items()} == {
        "verify": verify_code, "replay": replay_code}
    for code, out, err in results.values():
        assert "Traceback" not in err
        if code == EXIT_CONFIG_ERROR:
            assert err.startswith(f"config error: cannot read trace {trace}:")
            assert err.count(str(trace)) == 1  # the file is named once
            assert err.count("\n") == 1 and out == ""
        else:
            assert err == ""
    if record == "final":
        tag = "V0" if engine == "lemma2" else "W0"
        assert f"first violated invariant: {tag} final record" in results["verify"][1]


# (golden engine, event kind, edit of its first record); the edited record
# is malformed (a field of the wrong type, or an integer value that is not
# one) and refused as it is read
MALFORMED = {
    "c-new-null": ("lemma2", "c", lambda r: {**r, "new_value": None}),
    "c-new-x": ("lemma2", "c", lambda r: {**r, "new_value": "x"}),
    "c-requirement-text": ("lemma2", "c", lambda r: {**r, "requirement": "0"}),
    "alpha-stage-text": ("lemma2", "alpha", lambda r: {**r, "stage": "3"}),
    "alpha-stage-null": ("lemma2", "alpha", lambda r: {**r, "stage": None}),
    "define-new-null": ("prop3", "define", lambda r: {**r, "new_value": None}),
    "no-stage": ("lemma2", "beta", lambda r: {k: v for k, v in r.items() if k != "stage"}),
    "not-an-object": ("lemma2", "eta", lambda r: [1, 2]),
}


@pytest.mark.parametrize("command", ["verify", "replay"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_trace_record_is_config_error(tmp_path, capsys, command, case):
    engine, kind, edit = MALFORMED[case]
    lines = (GOLDENS / f"golden_{engine}.trace.jsonl").read_text().splitlines()
    n = next(n for n, line in enumerate(lines) if json.loads(line).get("event_kind") == kind)
    lines[n] = json.dumps(edit(json.loads(lines[n])))
    trace = tmp_path / "malformed.trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main([command, "--trace", str(trace)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read trace {trace}:")
    assert captured.err.count(str(trace)) == 1  # the file is named once
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("engine", ["lemma2", "prop3"])
def test_every_malformed_ratio_is_config_error(tmp_path, capsys, engine):
    # every p/q value of a golden, new or old, of any kind and at any line,
    # set in turn to each text that is not p/q text, is refused as its record
    # is read; with the new value each record takes in rotation, both
    # commands exit 2
    lines = (GOLDENS / f"golden_{engine}.trace.jsonl").read_text().splitlines()
    trace = tmp_path / "malformed.trace.jsonl"
    bad_texts = ("x", "1/0", " 1/2", "+1/2", "5")
    swept = []
    for n in range(1, len(lines) - 1):
        record = json.loads(lines[n])
        kind = record["event_kind"]
        if KINDS[kind].value != "p/q":
            continue
        fields = ("new_value",) if record["old_value"] is None else ("new_value", "old_value")
        for field in fields:
            for bad in bad_texts:
                with pytest.raises(TraceFormatError) as refused:
                    TraceEvent.from_dict({**record, field: bad})
                assert str(refused.value) == (f"stage {record['stage']} {kind}: "
                                              f"{field} is not p/q text")
        problem = f"stage {record['stage']} {kind}: new_value is not p/q text"
        edited = json.dumps({**record, "new_value": bad_texts[len(swept) % len(bad_texts)]})
        trace.write_text("\n".join([*lines[:n], edited, *lines[n + 1:]]) + "\n")
        for command in ("verify", "replay"):
            assert main([command, "--trace", str(trace)]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr() == (
                "", f"config error: cannot read trace {trace}:{n + 1}: {problem}\n")
        swept.append(kind)
    assert set(swept) == ({"alpha", "eta", "beta", "q", "beta_i", "gamma", "delta"}
                          if engine == "lemma2" else {"alpha", "beta", "gamma", "delta"})
