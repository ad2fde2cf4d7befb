"""Tests for the command-line entry points."""

import pytest

from repro.cli import main_lint, main_plan, main_profile, main_run


def test_run_cli_dewe(capsys):
    rc = main_run(["--workflow", "montage", "--size", "0.5", "--workflows", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dewe-v2" in out
    assert "makespan_s" in out


def test_run_cli_pegasus_multi_node(capsys):
    rc = main_run(
        ["--engine", "pegasus", "--size", "0.5", "--nodes", "2"]
    )
    assert rc == 0
    assert "pegasus" in capsys.readouterr().out


def test_run_cli_ligo(capsys):
    rc = main_run(["--workflow", "ligo", "--size", "6"])
    assert rc == 0
    assert "dewe-v2" in capsys.readouterr().out


def test_run_cli_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        main_run(["--engine", "slurm"])


def test_plan_cli_table3(capsys):
    rc = main_plan([])
    assert rc == 0
    out = capsys.readouterr().out
    assert "c3.8xlarge" in out and "i2.8xlarge" in out
    assert "deadline_ok" in out


def test_plan_cli_custom_index(capsys):
    rc = main_plan(["--workflows", "10", "--deadline", "3600",
                    "--instance-types", "c3.8xlarge", "--index", "0.002"])
    assert rc == 0
    assert "c3.8xlarge" in capsys.readouterr().out


def test_profile_cli(capsys):
    rc = main_profile(["--degree", "0.5", "--workflows", "6", "--max-nodes", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "single-node (Fig 5a):" in out
    assert "converged node performance index" in out


def test_run_cli_export(tmp_path, capsys):
    rc = main_run(["--size", "0.5", "--export-dir", str(tmp_path / "out")])
    assert rc == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "trace.json").exists()
    assert (out_dir / "timeline.svg").exists()
    assert (out_dir / "metrics.csv").exists()
    assert "exported" in capsys.readouterr().out


# -- repro-lint ------------------------------------------------------------

def test_lint_cli_code_mode_clean_repo(capsys):
    rc = main_lint([])
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_cli_code_mode_flags_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "class Point:\n"
        "    __slots__ = ('x',)\n"
        "    def __init__(self):\n"
        "        self.y = 0\n"
    )
    rc = main_lint([str(bad)])
    assert rc == 1
    assert "CL004" in capsys.readouterr().out


def test_validation_error_render_verbose():
    from repro.workflow import ValidationError

    problems = [f"job{i}: unknown parent 'ghost{i}'" for i in range(8)]
    exc = ValidationError("wf", problems)
    short = exc.render(verbose=False)
    assert "8 problem(s)" in short
    assert "... and 3 more" in short
    full = exc.render(verbose=True)
    assert full.count("unknown parent") == 8
    assert "more (use --verbose" not in full


@pytest.mark.parametrize("main", [main_run])
@pytest.mark.parametrize(
    "argv", [["--workflow", "ligo", "--size", "-3"],
             ["--workflow", "cybershake", "--size", "2.7"],
             ["--size", "nan"]]
)
def test_a_size_that_cannot_be_built_exits_2_before_simulating(main, argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "size must be a finite" in captured.err
    assert captured.out == ""
