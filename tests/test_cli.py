"""End-to-end command line behaviour: JSON shapes, determinism, exit codes."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from weylpairs.cli import dispatch

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

    def test_parallel_matches_serial(self):
        _, serial = run(["pairs", "enumerate", "--n", "4", "--filter", "all"])
        _, parallel = run(
            ["pairs", "enumerate", "--n", "4", "--filter", "all", "--jobs", "2"]
        )
        assert serial == parallel

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


class TestWitness:
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
        ],
        ids=[
            "scan-w-alone", "scan-wprime-alone", "witness-a-alone",
            "witness-b-alone", "samples-0", "samples-negative",
            "scan-incomparable", "scan-reversed", "scan-good", "witness-incomparable",
            "witness-reversed", "witness-good-explicit-ab",
        ],
    )
    def test_exit_2_with_message(self, argv, capsys):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["pair", "classify", "--nope", "3"])
        assert exc.value.code == 2

    def test_bad_permutation_string(self):
        code, _ = run(["mings", "show", "--n", "4", "--w", "4431"])
        assert code == 2
