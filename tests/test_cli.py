from __future__ import annotations

import pathlib

import pytest

from efl.cli import main
from efl.export import serialize_instance
from efl.generators import EXAMPLE_FINAL_MATRIX, gen_dense, gen_disjoint


@pytest.fixture
def dense5_file(tmp_path) -> pathlib.Path:
    path = tmp_path / "dense5.efl"
    path.write_text(serialize_instance(gen_dense(5)))
    return path


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file(self, capsys, example_file):
        code, out, _ = run_cli(capsys, "validate", str(example_file))
        assert code == 0
        assert "valid: yes" in out

    def test_linearity_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.efl"
        path.write_text("2\na b\na b\n")
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "cliques 1,2 share 2 vertices" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.efl"))
        assert code == 2
        assert "error" in err

    def test_grammar_error(self, capsys, tmp_path):
        path = tmp_path / "bad.efl"
        path.write_text("2\na a\nb c\n")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2


class TestColor:
    def test_matrix_method(self, capsys, example_file):
        code, out, _ = run_cli(capsys, "color", str(example_file), "--method", "matrix")
        assert code == 0
        assert "status: success" in out
        assert "colors used: 6" in out
        assert "v1 1" in out.split("\n")

    def test_greedy_method(self, capsys, example_file):
        code, out, _ = run_cli(capsys, "color", str(example_file), "--method", "greedy")
        assert code == 0
        assert "colors used: 6" in out

    def test_greedy_failure_exit_one(self, capsys, dense5_file):
        code, out, _ = run_cli(capsys, "color", str(dense5_file), "--method", "greedy")
        assert code == 1
        assert "reason: no-color-available" in out

    def test_budget_flag(self, capsys, dense5_file):
        code, out, _ = run_cli(
            capsys, "color", str(dense5_file), "--method", "matrix", "--budget", "2"
        )
        assert code == 1
        assert "reason: budget-exhausted" in out

    @pytest.mark.parametrize("budget", ["-5", "3"])
    def test_budget_rejected_for_greedy(self, capsys, example_file, budget):
        code, out, err = run_cli(
            capsys, "color", str(example_file), "--method", "greedy", "--budget", budget
        )
        assert code == 2
        assert out == ""
        assert "--budget" in err

    def test_trace_rejected_for_greedy(self, capsys, example_file):
        code, out, err = run_cli(
            capsys, "color", str(example_file), "--method", "greedy", "--trace"
        )
        assert code == 2
        assert out == ""
        assert "--trace applies to --method matrix only" in err

    def test_trace_output(self, capsys, example_file):
        code, out, _ = run_cli(
            capsys, "color", str(example_file), "--method", "matrix", "--trace"
        )
        assert code == 0
        assert "ASSIGN v1 1" in out
        assert "ASSIGN v19 4" in out

    def test_structured_output(self, capsys, example_file):
        code, out, _ = run_cli(
            capsys, "color", str(example_file), "--method", "matrix", "--out", "structured"
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "6"
        assert "v1 1" in lines

    def test_dot_export(self, capsys, example_file, tmp_path):
        dot = tmp_path / "out.dot"
        code, _, _ = run_cli(
            capsys, "color", str(example_file), "--method", "matrix", "--dot", str(dot)
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph")
        assert 'color="maroon"' in text

    @pytest.mark.parametrize(
        "flags",
        [["--method", "greedy"], ["--method", "matrix"], ["--method", "matrix", "--trace"]],
    )
    def test_dot_into_a_missing_directory(self, capsys, example_file, tmp_path, flags):
        # the success listing, and the trace, once went out before the write failed
        dot = tmp_path / "missing" / "out.dot"
        code, out, err = run_cli(capsys, "color", str(example_file), *flags, "--dot", str(dot))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--trace"], ["--out", "structured"], []])
    def test_dot_leaves_the_listing_alone(self, capsys, example_file, tmp_path, flags):
        argv = ["color", str(example_file), "--method", "matrix", *flags]
        _, plain, _ = run_cli(capsys, *argv)
        code, out, err = run_cli(capsys, *argv, "--dot", str(tmp_path / "out.dot"))
        assert (code, out, err) == (0, plain, "")

    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.efl"
        path.write_text("2\na b\na b\n")
        code, _, err = run_cli(capsys, "color", str(path), "--method", "matrix")
        assert code == 2


class TestChromatic:
    def test_example(self, capsys, example_file):
        code, out, _ = run_cli(capsys, "chromatic", str(example_file))
        assert code == 0
        assert "core chromatic number: 4" in out
        assert "n-colorable" in out

    def test_dense5(self, capsys, dense5_file):
        code, out, _ = run_cli(capsys, "chromatic", str(dense5_file))
        assert code == 0
        assert "core chromatic number: 5" in out

    def test_limit_exceeded(self, capsys, dense5_file):
        code, _, err = run_cli(capsys, "chromatic", str(dense5_file), "--limit", "3")
        assert code == 3
        assert "limit" in err

    def test_dense100_refused_at_default_limit(self, capsys, tmp_path):
        path = tmp_path / "dense100.efl"
        path.write_text(serialize_instance(gen_dense(100)))
        code, out, err = run_cli(capsys, "chromatic", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: core has 4950 vertices, above the limit 40\n"

    def test_search_too_deep_exits_three(self, capsys, tmp_path):
        path = str(tmp_path / "d.efl")
        assert run_cli(capsys, "gen", "--kind", "dense", "--n", "50", "-o", path)[0] == 0
        code, out, err = run_cli(capsys, "chromatic", path, "--limit", "2000")
        assert code == 3
        assert out == ""
        assert err == (
            "error: core has 1225 vertices, too many to search within the "
            "interpreter's recursion limit\n"
        )

    def test_negative_limit_is_input_error(self, capsys, dense5_file):
        code, out, err = run_cli(capsys, "chromatic", str(dense5_file), "--limit", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: vertex_limit must be at least 0\n"


class TestStats:
    def test_example(self, capsys, example_file):
        code, out, _ = run_cli(capsys, "stats", str(example_file))
        assert code == 0
        assert "identity: sum C(d,2) = 13, intersecting pairs = 13" in out
        assert "bound holds: yes" in out
        assert "sqrt-n condition" in out
        assert "holds: no" in out  # sy1 fails on the example
        assert "degree-threshold condition" in out

    def test_dense9(self, capsys, tmp_path):
        path = tmp_path / "dense9.efl"
        path.write_text(serialize_instance(gen_dense(9)))
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "identity: sum C(d,2) = 36, intersecting pairs = 36" in out
        assert "first failing d: 2" in out

    def test_disjoint(self, capsys, tmp_path):
        path = tmp_path / "d4.efl"
        path.write_text(serialize_instance(gen_disjoint(4)))
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "identity: sum C(d,2) = 0, intersecting pairs = 0" in out


class TestGen:
    def test_dense(self, capsys, tmp_path):
        out_file = tmp_path / "dense6.efl"
        code, out, _ = run_cli(capsys, "gen", "--kind", "dense", "--n", "6", "-o", str(out_file))
        assert code == 0
        assert "vertices=21" in out
        check, vout, _ = run_cli(capsys, "validate", str(out_file))
        assert check == 0

    def test_disjoint(self, capsys, tmp_path):
        out_file = tmp_path / "d3.efl"
        code, out, _ = run_cli(capsys, "gen", "--kind", "disjoint", "--n", "3", "-o", str(out_file))
        assert code == 0
        assert "vertices=9" in out

    def test_random_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.efl", tmp_path / "b.efl"
        args = ["gen", "--kind", "random", "--n", "8", "--merges", "10", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args, "-o", str(a))
        code2, out2, _ = run_cli(capsys, *args, "-o", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert "achieved=" in out1

    def test_random_requires_seed(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "random", "--n", "8", "-o", str(tmp_path / "x.efl")
        )
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed(self, capsys, tmp_path, seed):
        out_file = tmp_path / "x.efl"
        code, out, err = run_cli(
            capsys, "gen", "--kind", "random", "--n", "6", "--merges", "10",
            "--seed", seed, "-o", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err
        assert not out_file.exists()

    def test_bad_flags(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "gen", "--kind", "random", "--n", "4", "--merges", "9", "--seed", "1",
            "-o", str(tmp_path / "x.efl"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "kind, flag", [("dense", "--seed"), ("disjoint", "--seed"), ("dense", "--merges")]
    )
    def test_random_flags_rejected_for_other_kinds(self, capsys, tmp_path, kind, flag):
        out_file = tmp_path / "x.efl"
        code, _, err = run_cli(
            capsys, "gen", "--kind", kind, "--n", "4", flag, "1", "-o", str(out_file)
        )
        assert code == 2
        assert flag in err
        assert not out_file.exists()


class TestTraceExample:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "trace-example")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "ASSIGN v1 1"
        assert lines[:6] == [
            "ASSIGN v1 1",
            "ASSIGN v16 2",
            "ASSIGN v6 3",
            "ASSIGN v7 4",
            "ASSIGN v9 3",
            "ASSIGN v19 4",
        ]
        assert "golden match: ok" in out
        assert ". 1 1 1 3 ." in out

    def test_one_changed_cell_fails(self, capsys, monkeypatch):
        golden = EXAMPLE_FINAL_MATRIX.split("\n")
        assert golden[0] == ". 1 1 1 3 ."
        changed = "\n".join([". 1 1 1 4 .", *golden[1:]])
        monkeypatch.setattr("efl.cli.EXAMPLE_FINAL_MATRIX", changed)
        code, out, _ = run_cli(capsys, "trace-example")
        assert code == 1
        assert [line for line in out.split("\n") if line.startswith("cell ")] == [
            "cell (1,5): got 3, expected 4"
        ]
        assert out.endswith("golden match: FAIL\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("trace-example",),
            ("validate", "DATA"),
            ("color", "DATA", "--method", "matrix", "--trace"),
            ("color", "DATA", "--method", "greedy"),
            ("chromatic", "DATA"),
            ("stats", "DATA"),
        ],
    )
    def test_repeated_runs_identical(self, capsys, example_file, argv):
        argv = [str(example_file) if a == "DATA" else a for a in argv]
        code1, out1, err1 = run_cli(capsys, *argv)
        code2, out2, err2 = run_cli(capsys, *argv)
        assert (code1, out1, err1) == (code2, out2, err2)
