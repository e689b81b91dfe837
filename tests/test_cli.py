import errno
import json
import math
import os

import pytest

from dhtroutability import cli, simulator
from dhtroutability.analytic import tree_closed_form
from dhtroutability.cli import (
    ExperimentConfig,
    UsageError,
    compare_tolerance_breach,
    main,
    parse_experiment,
    run_grid,
)
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry


def _config(command, **kw):
    base = dict(
        command=command,
        geometries=ALL_GEOMETRIES,
        d_values=(16,),
        q_start=0.0,
        q_stop=0.5,
        q_step=0.05,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- the grid runner -----------------------------------------------------------


def test_analytic_grid_shape_and_identity_rows():
    rows, _ = run_grid(_config("analytic"))
    assert len(rows) == 5 * 11
    for row in rows:
        if row["q"] == 0.0:
            assert row["analytic_failed_fraction"] == 0.0
        assert "error" not in row


def test_analytic_tree_rows_match_closed_form():
    rows, _ = run_grid(_config("analytic", geometries=(Geometry.TREE,)))
    for row in rows:
        assert row["analytic_routability"] == pytest.approx(
            tree_closed_form(16, row["q"]), rel=1e-12
        )


def test_analytic_error_rows_keep_going():
    config = _config("analytic", d_values=(1,), q_start=0.4, q_stop=0.6, q_step=0.1)
    rows, _ = run_grid(config)
    assert len(rows) == 5 * 3
    # (1-q)*2 <= 1 from q = 0.5 on: per-row error, run continues.
    by_q = {(row["geometry"], row["q"]): row for row in rows}
    assert "error" not in by_q[("tree", 0.4)]
    assert "degenerate" in by_q[("tree", 0.5)]["error"]
    assert "degenerate" in by_q[("tree", 0.6)]["error"]


def test_scalability_rows_and_q_zero_rejected_per_row():
    config = _config("scalability", q_start=0.0, q_stop=0.1, q_step=0.05)
    rows, _ = run_grid(config)
    verdicts = {
        (row["geometry"], row["q"]): row.get("verdict") for row in rows
    }
    assert verdicts[("tree", 0.1)] == "unscalable"
    assert verdicts[("hypercube", 0.1)] == "scalable"
    assert verdicts[("xor", 0.1)] == "scalable"
    assert verdicts[("ring", 0.1)] == "scalable"
    assert verdicts[("symphony", 0.1)] == "unscalable"
    zero_rows = [row for row in rows if row["q"] == 0.0]
    assert zero_rows and all("error" in row for row in zero_rows)


def test_compare_q_zero_gap_is_zero():
    config = _config(
        "compare",
        geometries=(Geometry.TREE, Geometry.RING),
        d_values=(8,),
        q_start=0.0,
        q_stop=0.0,
        q_step=0.05,
        trials=2,
        pairs_per_trial=100,
    )
    rows, breaches = run_grid(config)
    assert breaches == []
    for row in rows:
        assert row["abs_gap"] == 0.0


def test_compare_breach_logic():
    assert compare_tolerance_breach(Geometry.TREE, 0.5, 0.5, 0.001) is None
    assert compare_tolerance_breach(Geometry.TREE, 0.5, 0.55, 0.001) is not None
    # Ring is one-sided: simulation above the model is fine.
    assert compare_tolerance_breach(Geometry.RING, 0.5, 0.9, 0.001) is None
    assert compare_tolerance_breach(Geometry.RING, 0.5, 0.4, 0.001) is not None
    assert compare_tolerance_breach(Geometry.SYMPHONY, 0.5, 0.46, 0.001) is None
    assert compare_tolerance_breach(Geometry.SYMPHONY, 0.5, 0.44, 0.001) is not None


# --- config assembly -----------------------------------------------------------


def test_build_config_defaults_per_command():
    config = parse_experiment(["analytic"])
    assert config.d_values == (16,)
    assert config.q_grid() == tuple(round(0.05 * i, 10) for i in range(11))
    asym = parse_experiment(["asymptotic"])
    assert asym.d_values == (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    assert asym.q_grid() == (0.1,)


def test_build_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment settings\n"
        "geometry=tree,ring\n"
        "d=10\n"
        "q_start=0.1\n"
        "q_stop=0.2\n"
        "q_step=0.1\n"
        "trials=3\n"
        "seed=99\n"
        "format=json\n",
        encoding="utf-8",
    )
    config = parse_experiment(["analytic", "--config", str(cfg)])
    assert config.geometries == (Geometry.TREE, Geometry.RING)
    assert config.d_values == (10,)
    assert config.seed == 99
    assert config.output_format == "json"
    # Flags win over the file.
    config = parse_experiment(
        ["analytic", "--config", str(cfg), "--seed", "7", "--geometry", "xor"]
    )
    assert config.seed == 7
    assert config.geometries == (Geometry.XOR,)


def test_config_validation_errors():
    with pytest.raises(UsageError):
        parse_experiment(["analytic", "--geometry", "moebius"])
    with pytest.raises(UsageError):
        parse_experiment(["analytic", "--q-stop", "0.99"])
    with pytest.raises(UsageError):
        parse_experiment(["analytic", "--d", "zero"])
    with pytest.raises(UsageError):
        _config("analytic", trials=0)
    with pytest.raises(UsageError):
        _config("analytic", q_start=0.5, q_stop=0.1)
    with pytest.raises(UsageError, match="unknown command: bogus"):
        _config("bogus")
    with pytest.raises(UsageError, match="unknown format: xml"):
        _config("analytic", output_format="xml")


@pytest.mark.parametrize("flag, error", [
    ("--geometry", "at least one geometry is required"),
    ("--d", "at least one d value is required"),
])
def test_main_empty_list_is_usage_error(flag, error, capsys):
    expected = (1, "", f"dht-routability: error: {error}\n")
    assert _exit_and_output(["analytic", flag, ","], capsys) == expected


def _exit_and_output(argv, capsys):
    """(exit status, stdout, stderr) of main(argv); argparse errors exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# (command, config file lines, the flags they stand for, exit status).
_FILE_AND_FLAGS = [
    (
        "analytic",
        ["geometry=tree,symphony", "d=8", "q_start=0.1", "q_stop=0.2", "q_step=0.1", "format=json"],
        ["--geometry", "tree,symphony", "--d", "8", "--q-start", "0.1", "--q-stop", "0.2",
         "--q-step", "0.1", "--format", "json"],
        0,
    ),
    (
        "simulate",
        ["geometry=ring", "d=6", "Q_START=0.1", "q_stop=0.2", "q_step=0.1", "trials=2",
         "pairs=50", "seed=3"],
        ["--geometry", "ring", "--d", "6", "--q-start", "0.1", "--q-stop", "0.2", "--q-step",
         "0.1", "--trials", "2", "--pairs", "50", "--seed", "3"],
        0,
    ),
    (
        "compare",
        ["geometry=symphony", "d=6", "q-start=0.1", "q_stop=0.1", "trials=2", "pairs=50",
         "kn=2", "ks=2", "check=yes"],
        ["--geometry", "symphony", "--d", "6", "--q-start", "0.1", "--q-stop", "0.1",
         "--trials", "2", "--pairs", "50", "--kn", "2", "--ks", "2", "--check"],
        2,
    ),
    (
        "compare",
        ["geometry=symphony", "d=6", "q-start=0.1", "q_stop=0.1", "trials=2", "pairs=50",
         "kn=2", "ks=2", "check=off"],
        ["--geometry", "symphony", "--d", "6", "--q-start", "0.1", "--q-stop", "0.1",
         "--trials", "2", "--pairs", "50", "--kn", "2", "--ks", "2"],
        0,
    ),
    (
        "asymptotic",
        ["geometry=hypercube", "d=10,40", "denominator=exact", "format=json"],
        ["--geometry", "hypercube", "--d", "10,40", "--denominator", "exact", "--format", "json"],
        0,
    ),
    (
        "scalability",
        ["geometry=ring,xor", "q_start=0.1", "Q-Stop=0.2", "check=no"],
        ["--geometry", "ring,xor", "--q-start", "0.1", "--q-stop", "0.2"],
        0,
    ),
]


@pytest.mark.parametrize("command, lines, flags, code", _FILE_AND_FLAGS)
def test_config_file_matches_flags(command, lines, flags, code, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from_file = _exit_and_output([command, "--config", str(cfg)], capsys)
    assert from_file == _exit_and_output([command, *flags], capsys)
    assert from_file[0] == code
    assert from_file[1]


def test_config_file_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry=tree,ring\nd=8\nseed=99\nformat=json\n", encoding="utf-8")
    expected = _exit_and_output(
        ["analytic", "--geometry", "xor", "--d", "8", "--seed", "7", "--format", "json"], capsys
    )
    # An explicit flag wins whether it comes before or after --config.
    for argv in (
        ["analytic", "--seed", "7", "--config", str(cfg), "--geometry", "xor"],
        ["analytic", "--config", str(cfg), "--geometry", "xor", "--seed", "7"],
    ):
        assert _exit_and_output(argv, capsys) == expected


def test_config_file_bad_boolean_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("check=maybe\n", encoding="utf-8")
    expected = "dht-routability compare: error: argument --check: invalid boolean value: 'maybe'\n"
    assert _exit_and_output(["compare", "--config", str(cfg)], capsys) == (1, "", expected)
    assert _exit_and_output(["compare", "--check=maybe"], capsys) == (1, "", expected)


@pytest.mark.parametrize("line", ["trails=3", "bogus=1", "command=simulate"])
def test_config_file_unknown_key_is_usage_error(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d=8\n{line}\n", encoding="utf-8")
    expected = f"dht-routability: error: unrecognized arguments: --{line}\n"
    assert _exit_and_output(["analytic", "--config", str(cfg)], capsys) == (1, "", expected)


@pytest.mark.parametrize("key", ["config", "Conf", "co"])
def test_config_file_config_key_is_usage_error(key, tmp_path, capsys):
    # Nested files are never read, so naming one is an error, not ignored.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d=8\n{key}=/nonexistent.cfg\ngeometry=tree\n", encoding="utf-8")
    expected = (
        f"dht-routability: error: {cfg}:2: config files do not nest, got '{key}=/nonexistent.cfg'\n"
    )
    assert _exit_and_output(["analytic", "--config", str(cfg)], capsys) == (1, "", expected)


def test_config_bounds_pairs_and_q_grid():
    _config("simulate", pairs_per_trial=1_000_000)
    with pytest.raises(UsageError, match="pairs"):
        _config("simulate", pairs_per_trial=1_000_001)
    assert len(_config("analytic", q_stop=0.95, q_step=1e-4).q_grid()) == 9501
    for step in (1e-5, 1e-9, 5e-324):
        with pytest.raises(UsageError, match="10000 points"):
            _config("analytic", q_stop=0.95, q_step=step)
    with pytest.raises(UsageError, match="q-step"):
        _config("analytic", q_step=float("nan"))
    # Only constructed, never run: trials and trials x pairs are capped.
    _config("simulate", trials=10_000, pairs_per_trial=10_000)
    for trials in (10_001, 1_000_000_000):
        with pytest.raises(UsageError, match="trials must be <= 10000"):
            _config("simulate", trials=trials)
    with pytest.raises(UsageError, match="trials x pairs"):
        _config("simulate", trials=10_000, pairs_per_trial=10_001)


def test_config_bounds_d():
    assert _config("asymptotic", d_values=(10, 1000)).d_values == (10, 1000)
    for command in ("analytic", "asymptotic", "scalability"):
        with pytest.raises(UsageError, match=r"^identifier length d must be in \[1, 1000\], got 1001$"):
            _config(command, d_values=(1001,))
        assert main([command, "--d", "1000000000"]) == 1


def test_metadata_echoes_config():
    config = _config("analytic", seed=42)
    meta = config.metadata()
    assert meta["seed"] == 42
    assert meta["build_seed"] == 42
    assert meta["fail_seed"] == 43
    assert meta["pair_seed"] == 44
    assert meta["geometry"] == "tree,hypercube,xor,ring,symphony"
    assert meta["denominator"] == "paper"


# --- the command line ----------------------------------------------------------


def test_main_analytic_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        [
            "analytic",
            "--geometry",
            "tree",
            "--d",
            "8",
            "--q-start",
            "0",
            "--q-stop",
            "0.1",
            "--q-step",
            "0.05",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_at] == (
        "geometry,d,n_nodes,q,analytic_routability,analytic_failed_fraction,error"
    )
    assert lines[header_at + 1] == "tree,8,256,0,1,0,"
    assert "\r" not in text
    assert any(line.startswith("# version=") for line in lines)


def test_main_json_format(capsys):
    rc = main(
        [
            "analytic",
            "--geometry",
            "hypercube",
            "--d",
            "6",
            "--q-start",
            "0.1",
            "--q-stop",
            "0.1",
            "--q-step",
            "0.1",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["command"] == "analytic"
    assert payload["rows"][0]["geometry"] == "hypercube"
    assert payload["rows"][0]["error"] is None


def test_main_usage_errors(capsys):
    assert main(["analytic", "--geometry", "symphony", "--d", "2", "--ks", "3"]) == 1
    assert capsys.readouterr().err == "dht-routability: error: symphony requires k_s <= d\n"
    assert main(["analytic", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "dht-routability: error: seed must be non-negative\n"
    assert main(["analytic", "--kn", "0"]) == 1
    err = "dht-routability: error: k_n and k_s must be >= 1, got k_n=0, k_s=1\n"
    assert capsys.readouterr().err == err
    assert main([]) == 1
    assert main(["analytic", "--geometry", "klein-bottle"]) == 1
    assert main(["analytic", "--d", "16", "--q-stop", "0.99"]) == 1
    assert main(["simulate", "--d", "24"]) == 1  # simulator scale cap
    assert main(["simulate", "--d", "12,21"]) == 1  # every d is within the scale cap
    assert main(["simulate", "--pairs", "1000001"]) == 1
    assert main(["simulate", "--trials", "1000000000"]) == 1
    assert main(["analytic", "--q-step", "1e-9"]) == 1


def test_main_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch):
    # open() judges the path before the grid runs, and no file is created.
    def no_grid(config):
        raise AssertionError("ran the grid")

    monkeypatch.setattr(cli, "run_grid", no_grid)
    (tmp_path / "file").write_text("", encoding="utf-8")
    os.symlink(tmp_path / "loop_b", tmp_path / "loop_a")
    os.symlink(tmp_path / "loop_a", tmp_path / "loop_b")
    for out, code in (
        (tmp_path / "missing" / "x.csv", errno.ENOENT),
        (tmp_path, errno.EISDIR),
        (tmp_path / "file" / "x.csv", errno.ENOTDIR),
        (tmp_path / ("x" * 300), errno.ENAMETOOLONG),
        (tmp_path / "loop_a", errno.ELOOP),
    ):
        assert main(["analytic", "--d", "8", "--out", str(out)]) == 1
        err = f"dht-routability: error: cannot write {out}: {os.strerror(code)}\n"
        assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "loop_a", "loop_b"]


def test_main_out_replaces_existing_file(tmp_path, capsys, monkeypatch):
    # The file is truncated before the grid runs, as a shell redirection
    # would, and then holds the report alone.
    argv = ["analytic", "--geometry", "tree", "--d", "8"]
    code, report, err = _exit_and_output(argv, capsys)
    assert (code, err) == (0, "")
    out = tmp_path / "report.csv"
    out.write_text("stale line\n" * 1000, encoding="utf-8")

    def grid(config):
        assert out.read_text(encoding="utf-8") == ""
        return run_grid(config)

    monkeypatch.setattr(cli, "run_grid", grid)
    assert _exit_and_output([*argv, "--out", str(out)], capsys) == (0, "", "")
    assert out.read_text(encoding="utf-8") == report


def test_main_stdout_write_error_propagates(monkeypatch):
    # Only --out's errors are usage errors: stdout's are not "cannot write None".
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli.sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["analytic", "--geometry", "tree", "--d", "8"])


@pytest.mark.parametrize("kn", ["21", "1000000000"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_main_rejects_large_kn_before_building(command, kn, monkeypatch, capsys):
    # The cap is symphony's: tree ignores kn, so a tree run builds and routes.
    tree = [command, "--geometry", "tree", "--d", "4", "--kn", kn, "--trials", "1", "--pairs", "10"]
    assert main(tree) == 0
    assert capsys.readouterr().err == ""

    def no_build(spec, build_seed):
        raise AssertionError("built an overlay")

    def sweep(*args):
        return simulator.estimate_sweep(*args, builder=no_build)

    monkeypatch.setattr(cli, "estimate_sweep", sweep)
    argv = [command, "--geometry", "symphony", "--d", "4", "--kn", kn]
    assert main(argv) == 1
    error = f"simulator supports k_n <= 20, got k_n={kn}"
    assert capsys.readouterr().err == f"dht-routability: error: {error}\n"
    with pytest.raises(UsageError, match=f"^{error}$"):
        _config(command, geometries=(Geometry.SYMPHONY,), d_values=(4,), k_n=int(kn))
    # The analytic commands take any kn >= 1.
    _config("analytic", geometries=(Geometry.SYMPHONY,), d_values=(4,), k_n=int(kn))


def test_main_check_exit_codes(tmp_path):
    # Symphony at low q: the per-phase model sits far above the simulator,
    # a deterministic breach.
    argv = [
        "compare",
        "--geometry",
        "symphony",
        "--d",
        "10",
        "--q-start",
        "0.05",
        "--q-stop",
        "0.05",
        "--q-step",
        "0.05",
        "--trials",
        "3",
        "--pairs",
        "300",
        "--seed",
        "5",
        "--out",
        str(tmp_path / "sym.csv"),
        "--check",
    ]
    assert main(argv) == 2
    # Without --check the same run exits 0.
    argv_nocheck = [a for a in argv if a != "--check"]
    assert main(argv_nocheck) == 0
    # Tree tracks its model closely: --check passes.
    argv_tree = [
        "compare",
        "--geometry",
        "tree",
        "--d",
        "10",
        "--q-start",
        "0.1",
        "--q-stop",
        "0.2",
        "--q-step",
        "0.1",
        "--trials",
        "5",
        "--pairs",
        "1000",
        "--seed",
        "5",
        "--out",
        str(tmp_path / "tree.csv"),
        "--check",
    ]
    assert main(argv_tree) == 0


def test_main_byte_identical_runs(tmp_path):
    argv = [
        "compare",
        "--geometry",
        "xor,ring",
        "--d",
        "8",
        "--q-start",
        "0.1",
        "--q-stop",
        "0.3",
        "--q-step",
        "0.1",
        "--trials",
        "3",
        "--pairs",
        "200",
        "--seed",
        "21",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_asymptotic_d_list(capsys):
    rc = main(
        [
            "asymptotic",
            "--geometry",
            "tree",
            "--d",
            "10,100",
            "--q-start",
            "0.1",
            "--q-stop",
            "0.1",
            "--q-step",
            "0.1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    data_lines = [l for l in out.splitlines() if l.startswith("tree,")]
    assert len(data_lines) == 2
    assert data_lines[1].startswith("tree,100,1267650600228229401496703205376,")


def test_main_scalability_report(capsys):
    rc = main(
        [
            "scalability",
            "--q-start",
            "0.1",
            "--q-stop",
            "0.1",
            "--q-step",
            "0.1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "tree,16,0.1,unscalable," in out
    assert "hypercube,16,0.1,scalable," in out
    assert "symphony,16,0.1,unscalable," in out


# --- usage errors, each reported by its exact line -----------------------------


def test_config_file_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d 8\n", encoding="utf-8")
    expected = f"dht-routability: error: {cfg}:1: expected key=value, got 'd 8'\n"
    assert _exit_and_output(["analytic", "--config", str(cfg)], capsys) == (1, "", expected)


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    expected = f"dht-routability: error: cannot read config file {cfg}: No such file or directory\n"
    assert _exit_and_output(["analytic", "--config", str(cfg)], capsys) == (1, "", expected)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_is_usage_error(capsys):
    argv = ["analytic", "--geometry", "tree", "--d", "8", "--out", "/dev/full"]
    expected = "dht-routability: error: cannot write /dev/full: No space left on device\n"
    assert _exit_and_output(argv, capsys) == (1, "", expected)


# --- d lists -------------------------------------------------------------------


def _rows(argv, capsys):
    code, out, err = _exit_and_output([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    return json.loads(out)["rows"]


@pytest.mark.parametrize("argv, geometries, d_values", [
    (["compare", "--geometry", "tree,symphony", "--trials", "3", "--pairs", "300", "--seed", "5"],
     ("tree", "symphony"), ("6", "8")),
    (["scalability"], [g.value for g in ALL_GEOMETRIES], ("8", "16")),
])
def test_d_list_rows_match_single_d_reports(argv, geometries, d_values, capsys):
    # One report per d list: each geometry's rows, d by d in list order,
    # are the rows a run at that d alone reports.
    rows = _rows([*argv, "--d", ",".join(d_values)], capsys)
    single = {d: _rows([*argv, "--d", d], capsys) for d in d_values}
    expected = [row for g in geometries for d in d_values
                for row in single[d] if row["geometry"] == g]
    assert rows == expected


@pytest.mark.parametrize("argv, error", [
    (["compare", "--geometry", "all", "--d", "18", "--ks", "19"], "symphony requires k_s <= d"),
    (["simulate", "--d", "12,21"], "simulator supports d <= 20, got d=21"),
])
def test_d_list_usage_errors_come_before_any_build(argv, error, monkeypatch, capsys):
    # tree and hypercube at d = 18 or 12 would run first: nothing may.
    def no_build(spec, build_seed):
        raise AssertionError("built an overlay")

    def sweep(*args):
        return simulator.estimate_sweep(*args, builder=no_build)

    monkeypatch.setattr(cli, "estimate_sweep", sweep)
    assert _exit_and_output(argv, capsys) == (1, "", f"dht-routability: error: {error}\n")


def test_headline_tree_decays_and_hypercube_stays_flat(capsys):
    # The paper's result on simulated overlays at q = 0.1: tree's
    # routability falls with N at every step, hypercube's tracks its flat
    # model at every d.
    argv = ["compare", "--geometry", "tree,hypercube", "--d", "8,12,16,20",
            "--q-start", "0.1", "--q-stop", "0.1", "--trials", "4", "--seed", "2026", "--check"]
    rows = _rows(argv, capsys)
    assert [(row["geometry"], row["d"]) for row in rows] == [
        (g, d) for g in ("tree", "hypercube") for d in (8, 12, 16, 20)]
    tree, hypercube = rows[:4], rows[4:]
    for small, large in zip(tree, tree[1:]):
        fall = small["sim_routability"] - large["sim_routability"]
        assert fall > 3 * math.hypot(small["sim_std_error"], large["sim_std_error"])
    for row in hypercube:
        assert row["abs_gap"] <= 3 * row["sim_std_error"]
