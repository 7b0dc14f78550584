"""End-to-end command line behaviour: JSON shapes, determinism, exit codes."""

import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from weylpairs import __version__
from weylpairs.cli import dispatch
from weylpairs.weyl import SIZE_LIMITS, SymmetricGroup

from conftest import embed_pair, reference_box_violation

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "weylpairs" / "schema.json").read_text()
)
Draft202012Validator.check_schema(SCHEMA)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def validate(record, def_name):
    schema = dict(SCHEMA["$defs"][def_name])
    schema["$defs"] = SCHEMA["$defs"]
    Draft202012Validator(schema).validate(record)


class TestPairClassify:
    def test_flagship_all_criteria(self):
        code, out = run(
            ["pair", "classify", "--n", "4", "--w1", "1324", "--w2", "4231",
             "--criteria", "all"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "pair_classification")
        assert record["verdict"] == "bad"
        assert set(record["criteria"]) == {"chain", "parabolic", "orbit", "flatten"}
        assert set(record["criteria"].values()) == {"bad"}

    def test_equal_pair_good(self):
        code, out = run(
            ["pair", "classify", "--n", "4", "--w1", "1234", "--w2", "1234"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "good"

    def test_chain_witness_serialized_as_roots(self):
        code, out = run(
            ["pair", "classify", "--n", "4", "--w1", "1234", "--w2", "4321",
             "--criteria", "chain"]
        )
        record = json.loads(out)
        validate(record, "pair_classification")
        assert record["verdict"] == "good"
        assert record["chain_witness"]
        for coords in record["chain_witness"]:
            assert sorted(coords) == [-1, 0, 0, 1]

    def test_wrong_length_is_usage_error(self):
        code, _ = run(["pair", "classify", "--n", "5", "--w1", "1324", "--w2", "4231"])
        assert code == 2

    @pytest.mark.parametrize("criteria", ["chain", "parabolic", "all"])
    def test_whole_group_criteria_stop_before_building_the_group(
        self, criteria, capsys, monkeypatch
    ):
        def refuse(group):
            raise AssertionError(f"S_{group.n} was listed")

        monkeypatch.setattr(SymmetricGroup, "elements_by_length", refuse)
        argv = ["pair", "classify", "--n", "11", "--w1", "1,2,3,4,5,6,7,8,9,10,11",
                "--w2", "2,1,3,4,5,6,7,8,9,10,11", "--criteria", criteria]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        maximum, _ = SIZE_LIMITS["group construction"]
        assert captured.err == f"error: group construction supports 2 <= n <= {maximum}\n"

    def test_orbit_criterion_answers_past_the_group_bound(self):
        code, out = run(
            ["pair", "classify", "--n", "11", "--w1", "1,3,2,4,5,6,7,8,9,10,11",
             "--w2", "11,10,9,8,7,6,5,4,3,2,1", "--criteria", "orbit"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "pair_classification")
        assert record["criteria"] == {"orbit": "good"}

    def test_orbit_criterion_answers_at_n20(self):
        """No table or bound that grows exponentially with n: an embedded bad
        pair of S20 gets the reference witness at once."""
        e1, e2 = embed_pair((1, 2, 4, 3, 5, 6), (3, 5, 1, 6, 2, 4), 20, random.Random(20))
        start = time.perf_counter()
        code, out = run(
            ["pair", "classify", "--n", "20", "--w1", ",".join(map(str, e1)),
             "--w2", ",".join(map(str, e2)), "--criteria", "orbit"]
        )
        assert time.perf_counter() - start < 2
        assert code == 0
        record = json.loads(out)
        validate(record, "pair_classification")
        assert record["verdict"] == "bad"
        orbit, i, j = reference_box_violation(e1, e2)
        assert record["violating_orbit"] == {"orbit": list(orbit), "i": i, "j": j}


class TestEnumerate:
    def test_stream_and_summary(self):
        code, out = run(["pairs", "enumerate", "--n", "4", "--filter", "bad"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        *records, summary = lines
        validate(summary, "enumeration_summary")
        assert summary == {
            "summary": True, "n": 4, "total_comparable": 213, "bad_count": 1
        }
        assert len(records) == 1
        validate(records[0], "pair_verdict")
        assert (records[0]["w1"], records[0]["w2"]) == ("1324", "4231")

    @pytest.mark.parametrize(
        "n, verdict_filter",
        [("4", "all"), ("5", "bad"), ("5", "good"), ("5", "all")],
        ids=["n4-all", "n5-bad", "n5-good", "n5-all"],
    )
    def test_parallel_matches_serial(self, n, verdict_filter):
        _, serial = run(["pairs", "enumerate", "--n", n, "--filter", verdict_filter])
        _, parallel = run(
            ["pairs", "enumerate", "--n", n, "--filter", verdict_filter, "--jobs", "2"]
        )
        assert serial == parallel

    @pytest.mark.parametrize("cpus", [None, 4, 64])
    @pytest.mark.parametrize(
        "n, jobs, blocks", [("3", "8", 6), ("4", "1000", 24)], ids=["n3-jobs8", "n4-jobs1000"]
    )
    def test_workers_capped_by_cpus_and_blocks(self, monkeypatch, n, jobs, blocks, cpus):
        import multiprocessing

        from weylpairs import cli

        asked = []

        class InProcessPool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        _, serial = run(["pairs", "enumerate", "--n", n, "--filter", "all"])
        _, parallel = run(["pairs", "enumerate", "--n", n, "--filter", "all", "--jobs", jobs])
        assert parallel == serial
        cap = min(blocks, cpus or 1)
        assert asked == ([cap] if cap > 1 else [])

    def test_out_file(self, tmp_path):
        target = tmp_path / "pairs.jsonl"
        code, out = run(
            ["pairs", "enumerate", "--n", "3", "--filter", "all", "--out", str(target)]
        )
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert json.loads(lines[-1])["bad_count"] == 0

    def test_n7_without_flag_is_usage_error(self):
        code, _ = run(["pairs", "enumerate", "--n", "7"])
        assert code == 2


class TestPatterns:
    def test_verify_small(self):
        code, out = run(["patterns", "verify", "--n", "4"])
        assert code == 0
        record = json.loads(out)
        validate(record, "patterns_verify")
        assert record == {"n": 4, "mismatches": []}

    def test_verify_n5_documented_output(self):
        code, out = run(["patterns", "verify", "--n", "5"])
        assert code == 0
        assert json.loads(out) == {"n": 5, "mismatches": []}

    def test_query(self):
        code, out = run(["patterns", "query", "--w", "4231"])
        assert code == 0
        record = json.loads(out)
        validate(record, "patterns_query")
        assert record["left"]["has_bad_partner"] is True
        assert record["left"]["witness_partner"] == "1324"
        assert record["right"]["has_bad_partner"] is False


class TestMings:
    def test_show(self):
        code, out = run(["mings", "show", "--n", "4", "--w", "4321"])
        assert code == 0
        record = json.loads(out)
        validate(record, "mingen_record")
        assert record["d_w"] == 2
        assert record["orbits"] == [[1, 4], [2, 3]]
        assert len(record["phi_w"]) == 4


class TestEquations:
    def test_emit_json(self):
        code, out = run(["equations", "emit", "--n", "3", "--w", "231"])
        assert code == 0
        record = json.loads(out)
        validate(record, "equation_set")
        assert len(record["p_equations"]) == 9

    def test_emit_text(self):
        code, out = run(
            ["equations", "emit", "--n", "3", "--w", "231", "--format", "text"]
        )
        assert code == 0
        assert "cell of w = 231" in out
        assert "!= 0" in out


class TestCounterexample:
    def test_single_pair(self):
        code, out = run(
            ["counterexample", "scan", "--n", "4", "--w", "4231", "--wprime", "1324"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "counterexample_report")
        assert record["status"] == "refuted"
        assert record["witness"]["t"] == ["0", "1", "1", "0"]

    def test_full_scan_s4(self):
        code, out = run(["counterexample", "scan", "--n", "4"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        validate(records[0], "counterexample_report")

    def test_unknown_n6_pair(self):
        code, out = run(
            ["counterexample", "scan", "--n", "6", "--w", "653421",
             "--wprime", "124356"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "counterexample_report")
        assert record["status"] == "unknown" and record["hits"] == []

    def test_n7_names_the_equation_range(self, capsys):
        # the scan stops before enumerating S7, with the range it supports
        assert dispatch(["counterexample", "scan", "--n", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: equation generation supports 2 <= n <= 6\n"


class TestWitness:
    @pytest.mark.parametrize("w, wprime", [("1", "1"), ("4231567", "1324567")])
    def test_out_of_range_n_names_the_equation_range(self, w, wprime, capsys):
        argv = ["witness", "verify", "--n", str(len(w)), "--w", w, "--wprime", wprime]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: equation generation supports 2 <= n <= 6\n"

    def test_explicit_pair(self):
        code, out = run(
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "1324"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "witness_transcript")
        assert record["ok"] is True

    def test_unknown_pair_reports_status(self):
        code, out = run(
            ["witness", "verify", "--n", "6", "--w", "653421", "--wprime", "124356"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "witness_unknown")


class TestSample:
    def test_check_passes(self):
        code, out = run(
            ["sample", "check", "--n", "4", "--w", "4231", "--samples", "3",
             "--seed", "42"]
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "sample_check")
        assert record["ok"] is True


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pair", "classify", "--n", "4", "--w1", "1324", "--w2", "4231"],
            ["pairs", "enumerate", "--n", "4", "--filter", "bad"],
            ["sample", "check", "--n", "4", "--w", "3142", "--samples", "4",
             "--seed", "7"],
            ["counterexample", "scan", "--n", "4"],
        ],
    )
    def test_byte_identical_reruns(self, argv):
        _, first = run(argv)
        _, second = run(argv)
        assert first == second


class TestPinnedDigests:
    """Pinned stdout digests: a change to the library keeps these bytes, or
    changes the interface version with them."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["counterexample", "scan", "--n", "5"],
             "797fe9f4d1b09fdd8a17879e0ee98c9681d100d9454e3ee00c58820b071dc1dd"),
            (["equations", "emit", "--n", "6", "--w", "653421"],
             "7805d61805748e8fdc5c2c02c79881cb00e9350ba159f829216b0180b1000cf1"),
            (["equations", "emit", "--n", "6", "--w", "653421", "--format", "text"],
             "d80baaa597de03f2dfc5faba0220705eb984bea723416d2c74ca35e08decbc67"),
            (["pairs", "enumerate", "--n", "5"],
             "9e60f9e55bef5d84a16e0fef99978c921ca7a80b19e5a7e7ba50b170c5977262"),
            (["pairs", "enumerate", "--n", "6", "--filter", "bad"],
             "ba3d3920983d468f62981dea07fc644983bd45bd97b6b6dd08e9e8c2ebc77f15"),
            (["patterns", "verify", "--n", "6"],
             "89ddb6dcee661fc22d2c553abf2354cec07287af2505bdc3f996e22798da4f0a"),
            (["sample", "check", "--n", "6", "--w", "653421", "--samples", "20"],
             "692aa79bf7d2aec67cbc39ca97153cc0d6300ac1176ee7c7b723779d74185c71"),
        ],
        ids=["scan-n5", "emit-n6-json", "emit-n6-text", "enumerate-n5", "enumerate-n6-bad",
             "verify-n6", "sample-n6"],
    )
    def test_stdout_sha256(self, argv, digest):
        code, out = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def sample_runs(n, cells, seeds, samples):
        return [
            ["sample", "check", "--n", str(n), "--w", w, "--samples", str(samples),
             "--seed", str(seed)]
            for w in cells for seed in seeds
        ]

    @staticmethod
    def witness_runs(n, pairs):
        """`witness verify` on (w, w', (a, b)) triples; (a, b) None lets the
        scanner pick the hit."""
        runs = []
        for w, wp, ab in pairs:
            argv = ["witness", "verify", "--n", str(n), "--w", w, "--wprime", wp]
            if ab is not None:
                argv += ["--a", str(ab[0]), "--b", str(ab[1])]
            runs.append(argv)
        return runs

    @staticmethod
    def emit_runs(fmt):
        """`equations emit` on every cell of S4 and S5."""
        return [
            ["equations", "emit", "--n", str(n), "--w", "".join(map(str, perm)), "--format", fmt]
            for n in (4, 5) for perm in itertools.permutations(range(1, n + 1))
        ]

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("emit-s4-s5-json", "1e48c6b02e88de1602d93212a233034eb65a50ae3c7bb20aefae1c46461e18e2"),
            ("emit-s4-s5-text", "9abddebfed525b581ab0fd3006b4dcf129ff67c98e33c65f9928b17a42066c85"),
            ("sample-n4", "cdbcafda8664ac25b422cc2993d1cdb471fbe455d5fcb5a0cd9d935f121725d6"),
            ("sample-n5", "8b8510422b902104b22f8d3b0a7b35c0be56a0d49d9b3e5483cca4512d941c17"),
            ("sample-n6", "7811a109e7fbeea545079eabf718d5d1c04beef0b48ad125bccf7d17050ba844"),
            ("witness-ab", "6e7f5ee3e2c96a3c09ce699506b027b8f02aef35eb756dd14a9c9ca6897032d1"),
            ("witness-scan", "7e1fe2afa1bdffc9fb2cd651b18446ac563d7e50fdf46a32aea8a21845346a64"),
            ("witness-unknown", "48a5979724cab1a10a9d9b139e79077e1d2c23b34a9e69989f7fcf4e0364257c"),
        ],
    )
    def test_joined_stdout_sha256(self, name, digest):
        """The stdout of several runs, joined: every emitted equation set of
        S4 and S5, and sampled cell points and witness points, whose numbers
        the checks and records are built from."""
        runs = {
            "emit-s4-s5-json": self.emit_runs("json"),
            "emit-s4-s5-text": self.emit_runs("text"),
            "sample-n4": self.sample_runs(4, ("1234", "3142", "4231", "4321"), (1, 7, 42), 4),
            "sample-n5": self.sample_runs(5, ("12345", "35142", "42513", "54321"), (3, 11), 3),
            "sample-n6": self.sample_runs(6, ("123456", "351624", "426153", "653421"), (5, 13), 2),
            "witness-ab": self.witness_runs(4, [("4231", "1324", (1, 2)), ("4231", "1324", (3, 4))])
            + self.witness_runs(5, [("52413", "13254", (3, 5))])
            + self.witness_runs(6, [("126453", "123546", (5, 6)), ("563412", "154263", (4, 6))]),
            "witness-scan": self.witness_runs(4, [("4231", "1324", None)])
            + self.witness_runs(5, [("15342", "12435", None), ("52413", "14253", None)])
            + self.witness_runs(6, [("126453", "123546", None), ("635421", "253614", None)]),
            "witness-unknown": self.witness_runs(6, [("653421", "124356", None)]),
        }[name]
        out = []
        for argv in runs:
            code, text = run(argv)
            assert code == 0, argv
            out.append(text)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


class TestInputContract:
    """Inputs the CLI cannot answer exit 2 with a message and print nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "scan", "--n", "4", "--w", "4231"],
            ["counterexample", "scan", "--n", "4", "--wprime", "1324"],
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "1324",
             "--a", "1"],
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "1324",
             "--b", "2"],
            ["sample", "check", "--n", "4", "--w", "4231", "--samples", "0"],
            ["sample", "check", "--n", "4", "--w", "4231", "--samples", "-3"],
            ["counterexample", "scan", "--n", "4", "--w", "1234", "--wprime", "4321"],
            ["counterexample", "scan", "--n", "4", "--w", "1324", "--wprime", "4231"],
            ["counterexample", "scan", "--n", "4", "--w", "4231", "--wprime", "1234"],
            ["witness", "verify", "--n", "4", "--w", "1234", "--wprime", "4321"],
            ["witness", "verify", "--n", "4", "--w", "1324", "--wprime", "4231"],
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "4231",
             "--a", "1", "--b", "2"],
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "1324",
             "--a", "1", "--b", "9"],
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "1324",
             "--a", "0", "--b", "2"],
            ["pairs", "enumerate", "--n", "3", "--jobs", "0"],
            ["pairs", "enumerate", "--n", "3", "--jobs", "-5"],
            ["counterexample", "scan", "--n", "7", "--w", "1324576",
             "--wprime", "1234567"],
            ["pairs", "enumerate", "--n", "7"],
            ["pairs", "enumerate", "--n", "8", "--allow-large"],
            ["pairs", "enumerate", "--n", "1"],
            ["patterns", "verify", "--n", "7"],
            ["patterns", "verify", "--n", "8", "--allow-large"],
            ["sample", "check", "--n", "7", "--w", "7654321"],
            ["equations", "emit", "--n", "7", "--w", "7654321"],
            ["witness", "verify", "--n", "7", "--w", "4231567", "--wprime", "1324567"],
            ["sample", "check", "--n", "1", "--w", "1"],
            ["patterns", "query", "--w", ""],
            ["patterns", "query", "--w", " "],
            ["pair", "classify", "--n", "1", "--w1", "1", "--w2", "1", "--criteria", "orbit"],
            ["pair", "classify", "--n", "1", "--w1", "1", "--w2", "1", "--criteria", "flatten"],
            ["witness", "verify", "--n", "6", "--w", "653421", "--wprime", "124356",
             "--a", "1", "--b", "2"],
            ["witness", "verify", "--n", "4", "--w", "4231", "--wprime", "1324",
             "--a", "2", "--b", "1"],
        ],
        ids=[
            "scan-w-alone", "scan-wprime-alone", "witness-a-alone",
            "witness-b-alone", "samples-0", "samples-negative",
            "scan-incomparable", "scan-reversed", "scan-good", "witness-incomparable",
            "witness-reversed", "witness-good-explicit-ab", "witness-b-above-n",
            "witness-a-zero", "jobs-0", "jobs-negative", "scan-n7-pair",
            "enumerate-n7-no-flag", "enumerate-n8", "enumerate-n1", "verify-n7-no-flag",
            "verify-n8", "sample-n7", "emit-n7", "witness-n7", "sample-n1",
            "query-empty", "query-blank", "classify-n1-orbit", "classify-n1-flatten",
            "witness-ab-on-unknown-pair", "witness-ab-not-a-hit",
        ],
    )
    def test_exit_2_with_message(self, argv, capsys):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


    @pytest.mark.parametrize(
        "argv",
        [["pairs", "enumerate", "--n", "3"], ["counterexample", "scan", "--n", "4"]],
        ids=["enumerate", "scan"],
    )
    def test_unwritable_out(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "out.jsonl"
        code = dispatch(argv + ["--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["pair", "classify", "--nope", "3"])
        assert exc.value.code == 2

    def test_scan_has_no_allow_large(self):
        # equation generation stops at n = 6, so no flag can unlock n = 7
        with pytest.raises(SystemExit) as exc:
            dispatch(["counterexample", "scan", "--n", "7", "--allow-large"])
        assert exc.value.code == 2

    def test_bad_permutation_string(self):
        code, _ = run(["mings", "show", "--n", "4", "--w", "4431"])
        assert code == 2


def _readme_cli_commands() -> list[list[str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "weylpairs"]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_block(argv, tmp_path, monkeypatch):
    # the block writes files (--out), so it runs in a scratch directory
    monkeypatch.chdir(tmp_path)
    code, out = run(argv)
    assert code == 0
    if "text" not in argv:
        validator = Draft202012Validator(SCHEMA)
        for line in out.splitlines():
            validator.validate(json.loads(line))


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "weylpairs", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"weylpairs {__version__} ")
