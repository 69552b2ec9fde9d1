"""Tests for sweep configuration, CSV output, and the command line."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccrsim
from ccrsim import (
    ConfigError,
    NormNotPreserved,
    ScenarioId,
    boost_by_wigner_angle,
    boost_direction,
    ccr,
    make_scenario,
)
from ccrsim import cli, sweep
from ccrsim.checks import run_all_checks
from ccrsim.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    build_config,
    fmt_float,
    load_config_file,
    parse_subsystems,
    parse_value_list,
    write_csv,
)
import helpers

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Parsing and config
# ---------------------------------------------------------------------------


def test_fmt_float():
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(1.0) == "1"
    assert fmt_float(math.pi) == "3.14159265359"
    assert fmt_float(1e-15) == "1e-15"


def test_parse_value_list():
    assert parse_value_list("0, 0.5, 1") == (0.0, 0.5, 1.0)
    assert parse_value_list("0:1:3") == (0.0, 0.5, 1.0)
    assert parse_value_list("0:1:3, 2") == (0.0, 0.5, 1.0, 2.0)
    with pytest.raises(ConfigError):
        parse_value_list("abc")
    with pytest.raises(ConfigError):
        parse_value_list("0:1:1")
    with pytest.raises(ConfigError):
        parse_value_list("")


def test_parse_subsystems():
    assert parse_subsystems("0:momentum,1:spin") == ((0, "momentum"), (1, "spin"))
    with pytest.raises(ConfigError):
        parse_subsystems("0")
    with pytest.raises(ConfigError):
        parse_subsystems("x:spin")


def test_sweep_config_collects_all_problems():
    with pytest.raises(ConfigError) as err:
        SweepConfig(
            scenario=ScenarioId.PSI,
            theta_values=(3.0,),
            phi_values=(),
            subsystems=((1, "momentum"), (0, "color")),
            p_mag=-1.0,
        )
    message = str(err.value)
    for fragment in ("theta value", "phi grid is empty", "particle 1", "color", "p_mag"):
        assert fragment in message


def test_load_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# comment line\n"
        "scenario = xi2\n"
        "theta = 0, 1.5\n"
        "phi = 0:1.5:4  # trailing comment\n"
        "out = rows.csv\n"
    )
    values = load_config_file(cfg)
    assert values == {
        "scenario": "xi2",
        "theta": "0, 1.5",
        "phi": "0:1.5:4",
        "out": "rows.csv",
    }


def test_load_config_file_reports_all_problems(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = psi\nscenario = xi\nwhat = 1\nnoequals\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(cfg)
    message = str(err.value)
    assert "duplicate key 'scenario'" in message
    assert "unknown key 'what'" in message
    assert "line 4" in message


def test_build_config_defaults_and_overrides():
    config = build_config(None, scenario="psi")
    assert config.scenario is ScenarioId.PSI
    assert config.theta_values == (0.0,)
    assert len(config.phi_values) == 65
    assert config.phi_values[0] == 0.0
    assert abs(config.phi_values[-1] - HALF_PI) < 1e-15

    file_values = {"scenario": "xi", "theta": "0.7", "phi": "0.1", "mass": "2.0"}
    config = build_config(file_values, phi="0.2,0.3")
    assert config.scenario is ScenarioId.XI
    assert config.theta_values == (0.7,)  # from the file
    assert config.phi_values == (0.2, 0.3)  # flag wins
    assert config.mass == 2.0


def test_build_config_degrees():
    config = build_config(None, scenario="psi", theta="90", angles_in_degrees=True)
    assert abs(config.theta_values[0] - HALF_PI) < 1e-12
    # The default phi grid is already in radians and must not be rescaled.
    assert abs(config.phi_values[-1] - HALF_PI) < 1e-15


def test_build_config_unknown_scenario():
    with pytest.raises(ConfigError):
        build_config(None, scenario="nope")
    with pytest.raises(ConfigError):
        build_config(None)


# ---------------------------------------------------------------------------
# Sweep execution and CSV
# ---------------------------------------------------------------------------


def test_run_sweep_rows_and_order():
    config = SweepConfig(
        scenario=ScenarioId.XI2,
        theta_values=(HALF_PI, 0.0),  # unsorted on purpose
        phi_values=(0.5, 0.0),
        subsystems=None,
    )
    records = helpers.sweep_records(config)
    assert len(records) == 2 * 2 * 4
    thetas = [r.theta for r in records]
    assert thetas == sorted(thetas)
    first_block = records[:4]
    assert [(r.particle, r.dof) for r in first_block] == [
        (0, "momentum"),
        (0, "spin"),
        (1, "momentum"),
        (1, "spin"),
    ]
    phis = [r.phi for r in records[::4]]
    assert phis == [0.0, 0.5, 0.0, 0.5]


def test_run_sweep_values_match_direct_evaluation():
    from ccrsim import boost_by_wigner_angle, boost_direction

    config = SweepConfig(
        scenario=ScenarioId.PSI,
        theta_values=(HALF_PI,),
        phi_values=(0.8,),
        subsystems=((0, "spin"),),
    )
    (record,) = helpers.sweep_records(config)
    state = make_scenario(ScenarioId.PSI)
    boosted = boost_by_wigner_angle(state, 0.8, boost_direction(HALF_PI))
    triple = ccr(boosted, state.subsystem_index(0, "spin"))
    assert abs(record.predictability - triple.predictability) < 1e-15
    assert abs(record.coherence - triple.coherence) < 1e-15
    assert abs(record.entropy - triple.entropy) < 1e-15
    assert abs(record.residual - triple.residual) < 1e-15


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_run_sweep_matches_per_state_route(scenario):
    # The batched grid must reproduce boost_by_wigner_angle + ccr row by row,
    # including the grid edges and a non-default momentum shell.
    rng = np.random.default_rng(list(ScenarioId).index(scenario))
    thetas = (HALF_PI, 0.0) + tuple(float(x) for x in rng.uniform(0.0, HALF_PI, 3))
    phis = (0.0, HALF_PI) + tuple(float(x) for x in rng.uniform(0.0, HALF_PI, 4))
    p_mag, mass = (float(x) for x in rng.uniform(0.5, 2.0, 2))
    config = SweepConfig(
        scenario=scenario, theta_values=thetas, phi_values=phis, p_mag=p_mag, mass=mass
    )
    records = helpers.sweep_records(config)
    base = make_scenario(scenario, p_mag, mass)
    expected = []
    for theta in sorted(thetas):
        for phi in sorted(phis):
            boosted = boost_by_wigner_angle(base, phi, boost_direction(theta))
            for particle, dof, idx in base.single_dof_subsystems():
                expected.append((theta, phi, particle, dof, ccr(boosted, idx)))
    assert len(records) == len(expected)
    for record, (theta, phi, particle, dof, triple) in zip(records, expected):
        assert (record.scenario, record.theta, record.phi, record.particle, record.dof) == (
            scenario.value,
            theta,
            phi,
            particle,
            dof,
        )
        for got, want in (
            (record.predictability, triple.predictability),
            (record.coherence, triple.coherence),
            (record.entropy, triple.entropy),
            (record.total, triple.total),
            (record.residual, triple.residual),
        ):
            assert abs(got - want) < 1e-15


# Half a row: each theta row is split into phi chunks of 2, 2, 2, 2 and 1.
@pytest.mark.parametrize("rows_per_block", [1, 3, 0.5])
def test_run_sweep_block_boundaries_leave_csv_unchanged(monkeypatch, tmp_path, rows_per_block):
    config = SweepConfig(
        scenario=ScenarioId.UPSILON,
        theta_values=tuple(float(x) for x in np.linspace(0.0, HALF_PI, 7)),
        phi_values=tuple(float(x) for x in np.linspace(0.0, HALF_PI, 9)),
    )
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    whole.write_text(helpers.sweep_csv_text(helpers.sweep_records(config)))
    monkeypatch.setattr(sweep, "BLOCK_AMPLITUDES", int(rows_per_block * 9 * 16))
    blocked.write_text(helpers.sweep_csv_text(helpers.sweep_records(config)))
    assert whole.read_bytes() == blocked.read_bytes()


def test_write_csv_layout_and_determinism(tmp_path):
    config = SweepConfig(
        scenario=ScenarioId.XI, theta_values=(0.0, 0.3), phi_values=(0.0, 0.2)
    )
    records = helpers.sweep_records(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(dataclasses.replace(config, out=str(a)))
    b.write_text(helpers.sweep_csv_text(helpers.sweep_records(config)))
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    assert a.read_text().endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "xi" and first[3] == "0" and first[4] == "momentum"


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_run_sweep_predictability_is_never_negative(scenario):
    # sum_i rho_ii^2 - 1/d printed values down to -2.2e-16 on these grids.
    grid = tuple(float(x) for x in np.linspace(0.0, HALF_PI, 33))
    phis = tuple(float(x) for x in np.linspace(0.0, HALF_PI, 65))
    records = helpers.sweep_records(SweepConfig(scenario, grid, phis))
    assert min(r.predictability for r in records) >= 0.0


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_write_csv_streams_the_reference_bytes(monkeypatch, tmp_path, capsys, scenario, rows_per_block):
    # The streamed writer must print exactly what one format per field of
    # every record prints, to a file and to stdout, whatever the block size
    # (None: the whole grid is one block).
    config = SweepConfig(
        scenario,
        tuple(float(x) for x in np.linspace(0.0, HALF_PI, 7)),
        tuple(float(x) for x in np.linspace(0.0, HALF_PI, 9)),
        p_mag=1.7,
        mass=0.6,
    )
    records = helpers.sweep_records(config)
    expected = helpers.sweep_csv_text(records)
    counts = (len(records), max(r.residual for r in records))
    if rows_per_block is not None:
        dim = make_scenario(scenario).amplitudes.dim
        monkeypatch.setattr(sweep, "BLOCK_AMPLITUDES", rows_per_block * 9 * dim)
    out = tmp_path / "rows.csv"
    assert write_csv(dataclasses.replace(config, out=str(out))) == counts
    assert out.read_bytes() == expected.encode()
    assert write_csv(config) == counts
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_cli_scenario_reports_triples(capsys):
    rc = cli.main(
        ["scenario", "--id", "xi", "--theta", "90", "--phi", "90", "--degrees"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "pre-boost" in out and "post-boost" in out
    # Post-boost spin triple of xi at right angles: P = 0, C = 1/2, S = 0.
    spin_rows = [
        line.split()
        for line in out.splitlines()
        if line.split()[:1] == ["post"] and "spin" in line
    ]
    assert spin_rows, out
    p, c, s = (float(x) for x in spin_rows[0][3:6])
    assert abs(p) < 1e-12 and abs(c - 0.5) < 1e-12 and abs(s) < 1e-12


def test_cli_scenario_momentum_pair_block(capsys):
    rc = cli.main(
        ["scenario", "--id", "upsilon", "--theta", "90", "--phi", "90", "--degrees"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "momentum-momentum" in out
    assert "E = sqrt(2 C_hs) = 1" in out


def test_cli_sweep_writes_deterministic_file(tmp_path, capsys):
    args = [
        "sweep",
        "--id",
        "psi",
        "--theta",
        "0,45,90",
        "--phi",
        "0:90:5",
        "--degrees",
    ]
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    err = capsys.readouterr().err
    assert "wrote 30 rows" in err and "max residual" in err


def test_cli_sweep_stdout_when_no_out(capsys):
    rc = cli.main(["sweep", "--id", "psi", "--theta", "0", "--phi", "0,0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2


def test_cli_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "rows.csv"
    cfg.write_text(f"scenario = xi2\ntheta = 0\nphi = 0, 0.5\nout = {out}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 * 2 * 4


def test_cli_wigner_routes_agree(capsys):
    rc = cli.main(["wigner", "--velocity", "0.6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "omega=0.69314718056" in out  # rapidity ln 2
    (diff_line,) = [l for l in out.splitlines() if l.startswith("|difference|")]
    assert float(diff_line.split("=")[1]) < 1e-9


def test_cli_wigner_refuses_rapidities_outside_oracle_domain(capsys):
    rc = cli.main(["wigner", "--omega", "30"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "4x4 oracle" in captured.err


def test_cli_wigner_rejects_bad_velocity(capsys):
    rc = cli.main(["wigner", "--velocity", "1.2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_cli_scenario_rejects_bad_theta(capsys):
    rc = cli.main(["scenario", "--id", "psi", "--theta", "2.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_cli_check_reports_failure_with_injected_fault(monkeypatch, capsys):
    # Corrupt the coherence measure: including the diagonal breaks the CCR
    # identity, and the battery must catch it and name the failing suites.
    import ccrsim.measures as measures

    real = measures.coherence_hs

    def corrupted(rho):
        m = getattr(rho, "matrix", rho)
        return real(rho) + np.sum(np.abs(np.diagonal(m, axis1=-2, axis2=-1)) ** 2, axis=-1)

    monkeypatch.setattr(measures, "coherence_hs", corrupted)
    rc = cli.main(["check", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "ccr-identity-grid" in captured.err


def test_cli_check_catches_an_entropy_offset_in_the_batched_separability_suite(
    monkeypatch, capsys
):
    # The batched single-momentum suite must look the measure up at call
    # time: a spin entropy 1e-9 above zero is a separability violation.
    import ccrsim.measures as measures

    real = measures.linear_entropy
    monkeypatch.setattr(measures, "linear_entropy", lambda rho: real(rho) + 1e-9)
    rc = cli.main(["check", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL  single-momentum-separability" in captured.out
    assert "single-momentum-separability" in captured.err


def test_check_catches_a_perturbed_multiindex_core(monkeypatch):
    import ccrsim.measures as measures

    real = measures.linear_entropy_multiindex_arrays

    def perturbed(amplitudes, dims, subsystem):
        return real(amplitudes, dims, subsystem) + 1e-9

    monkeypatch.setattr(measures, "linear_entropy_multiindex_arrays", perturbed)
    failures = [r.name for r in run_all_checks(seed=3) if not r.passed]
    assert failures == ["entropy-multiindex-equivalence"]


def test_cli_sweep_stops_quietly_when_stdout_is_closed(tmp_path):
    # 100 x 100 x 4 rows are megabytes of CSV, far beyond a pipe's buffer, so
    # the writer is still writing when the reader goes away after one line.
    env = dict(os.environ)
    src = str(Path(ccrsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["sweep", "--id", "upsilon", "--theta", "0:1.5:100", "--phi", "0:1.5:100"]
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err_file:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ccrsim.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err_file,
            env=env,
        )
        try:
            assert proc.stdout.readline() == b"scenario,theta,phi,particle,dof,P,C,S,sum,residual\n"
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        finally:
            proc.kill()
    err = err_path.read_text()
    assert rc == 141, err  # 128 + SIGPIPE, not the failed-battery 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_cli_reports_file_errors_as_bad_parameters(tmp_path, monkeypatch, capsys):
    rc = cli.main(["sweep", "--config", str(tmp_path / "missing.cfg")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "missing.cfg" in captured.err

    # An --out that cannot be written is refused before any grid work.
    def no_grid(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(sweep, "wigner_angle_grid", no_grid)
    out = tmp_path / "no-such-dir" / "rows.csv"
    rc = cli.main(["sweep", "--id", "psi", "--theta", "0", "--phi", "0,0.5", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no-such-dir" in captured.err


@pytest.mark.parametrize("previous", [None, b"previous file\n"])
def test_cli_sweep_that_fails_leaves_out_as_it_was(monkeypatch, tmp_path, capsys, previous):
    out = tmp_path / "rows.csv"
    if previous is not None:
        out.write_bytes(previous)
    monkeypatch.setattr(sweep, "BLOCK_AMPLITUDES", 3 * 16)  # one upsilon theta row
    real = sweep.wigner_angle_grid
    blocks = []

    def second_block_fails(*args):
        blocks.append(args)
        if len(blocks) == 2:
            raise NormNotPreserved("injected failure in block 2")
        return real(*args)

    monkeypatch.setattr(sweep, "wigner_angle_grid", second_block_fails)
    argv = ["sweep", "--id", "upsilon", "--theta", "0,0.5,1", "--phi", "0,0.5,1"]
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == 2
    assert "injected failure in block 2" in capsys.readouterr().err
    assert len(blocks) == 2
    assert list(tmp_path.iterdir()) == ([] if previous is None else [out])
    if previous is not None:
        assert out.read_bytes() == previous


def test_cli_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    monkeypatch.delenv("CCR_SEED", raising=False)
    calls = [
        ["sweep", "--id", "xi", "--theta", "0,1", "--phi", "0,1.5", "--degrees"],
        ["sweep", "--id", "xi", "--theta", "0,1", "--phi", "0,1.5"],
        ["wigner", "--velocity", "0.6", "--e-dir", "0,0,1"],
        ["wigner", "--velocity", "0.6"],
        ["check"],
    ]

    def run(argv):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls] == first
    assert cli.build_parser.cache_info().misses == 1
    assert first[0] != first[1] and first[2] != first[3]
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--theta"])
    assert err.value.code == 2


def test_cli_check_env_seed_must_be_int(monkeypatch, capsys):
    monkeypatch.setenv("CCR_SEED", "not-a-number")
    rc = cli.main(["check"])
    assert rc == 2
    assert "CCR_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [(["check", "--seed", "-1"], None), (["check"], "-3")])
def test_cli_check_refuses_a_negative_seed(monkeypatch, capsys, argv, env):
    if env is None:
        monkeypatch.delenv("CCR_SEED", raising=False)
    else:
        monkeypatch.setenv("CCR_SEED", env)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: seed -") and "negative" in err


def test_run_all_checks_passes_quick_seed():
    results = run_all_checks(seed=11)
    failures = [r.name for r in results if not r.passed]
    assert failures == []
    assert len(results) == 20


def test_grid_suites_read_theta_rows_split_across_blocks(monkeypatch):
    # A check-grid row holds 1,040 upsilon amplitudes; a 256-amplitude block
    # splits it into phi chunks, which the grid suites must join again.
    from ccrsim import checks

    whole = checks._complementarity_grid()
    monkeypatch.setattr(sweep, "BLOCK_AMPLITUDES", 256)
    split = checks._complementarity_grid()
    assert len(split) > len(whole)
    assert max(len(block.phis) for _, _, block in split) < len(checks.GRID_PHI)
    for suite in (
        checks._check_ccr_identity,
        checks._check_ccr_invariance,
        checks._check_measure_ranges,
        checks._check_upsilon_coherence_growth,
    ):
        assert suite(split) == suite(whole)


def test_sweep_config_refuses_a_repeated_subsystem(tmp_path, capsys):
    with pytest.raises(ConfigError, match="subsystem 0:spin is listed more than once"):
        SweepConfig("psi", (0.1,), (0.2,), subsystems=((0, "spin"), (0, "spin")))
    with pytest.raises(ConfigError, match="subsystem 1:momentum is listed more than once"):
        build_config(None, scenario="xi2", subsystems="1:momentum, 0:spin, 1:momentum")
    config = tmp_path / "sweep.cfg"
    config.write_text("scenario = psi\nsubsystems = 0:spin, 0:momentum, 0:spin\n")
    for argv in (
        ["sweep", "--id", "psi", "--subsystems", "0:spin,0:spin", "--theta", "0.1", "--phi", "0.2"],
        ["sweep", "--config", str(config)],
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "listed more than once" in err


def test_cli_at_extreme_momenta_prints_what_unit_momenta_print(capsys):
    def run(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    for scenario, p_mag in (("psi", "1e200"), ("upsilon", "1e160")):
        argv = ["scenario", "--id", scenario, "--theta", "0.5", "--phi", "0.5"]
        big, unit = run(argv + ["--p-mag", p_mag]), run(argv)
        assert big.splitlines()[1:] == unit.splitlines()[1:]
    argv = ["sweep", "--id", "xi2", "--theta", "0:1.5707963267948966:3"]
    assert run(argv + ["--p-mag", "1e300"]) == run(argv)
    assert cli.main(["wigner", "--omega", "1", "--p-mag", "1e200"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_sweep_config_accepts_a_scenario_name():
    config = SweepConfig("upsilon", (0.0, 0.4), (0.1, 0.9))
    assert config.scenario is ScenarioId.UPSILON
    by_enum = helpers.sweep_records(SweepConfig(ScenarioId.UPSILON, (0.0, 0.4), (0.1, 0.9)))
    assert helpers.sweep_records(config) == by_enum
    assert helpers.sweep_records(SweepConfig("upsilon", (0.0,), (0.1,)))[0].scenario == "upsilon"


def test_sweep_config_refuses_an_unknown_scenario_name():
    with pytest.raises(ConfigError, match="unknown scenario 'omega'"):
        SweepConfig("omega", (0.0,), (0.1,))
    with pytest.raises(ConfigError, match="unknown scenario.*phi value 2.0"):
        SweepConfig("omega", (0.0,), (2.0,), subsystems=((1, "spin"),))
