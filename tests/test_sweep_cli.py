"""Tests for sweep configuration, CSV output, and the command line."""

import math

import numpy as np
import pytest

from ccrsim import (
    ConfigError,
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
    run_sweep,
    write_csv,
)

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
    records = run_sweep(config)
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
    (record,) = run_sweep(config)
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
    records = run_sweep(config)
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


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_run_sweep_block_boundaries_leave_csv_unchanged(monkeypatch, tmp_path, rows_per_block):
    config = SweepConfig(
        scenario=ScenarioId.UPSILON,
        theta_values=tuple(float(x) for x in np.linspace(0.0, HALF_PI, 7)),
        phi_values=tuple(float(x) for x in np.linspace(0.0, HALF_PI, 9)),
    )
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    write_csv(run_sweep(config), whole)
    monkeypatch.setattr(sweep, "BLOCK_AMPLITUDES", rows_per_block * 9 * 16)
    write_csv(run_sweep(config), blocked)
    assert whole.read_bytes() == blocked.read_bytes()


def test_write_csv_layout_and_determinism(tmp_path):
    config = SweepConfig(
        scenario=ScenarioId.XI, theta_values=(0.0, 0.3), phi_values=(0.0, 0.2)
    )
    records = run_sweep(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, a)
    write_csv(run_sweep(config), b)
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
    records = run_sweep(SweepConfig(scenario, grid, phis))
    assert min(r.predictability for r in records) >= 0.0


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


def test_cli_check_env_seed_must_be_int(monkeypatch, capsys):
    monkeypatch.setenv("CCR_SEED", "not-a-number")
    rc = cli.main(["check"])
    assert rc == 2
    assert "CCR_SEED" in capsys.readouterr().err


def test_run_all_checks_passes_quick_seed():
    results = run_all_checks(seed=11)
    failures = [r.name for r in results if not r.passed]
    assert failures == []
    assert len(results) == 20


def test_sweep_config_accepts_a_scenario_name():
    config = SweepConfig("upsilon", (0.0, 0.4), (0.1, 0.9))
    assert config.scenario is ScenarioId.UPSILON
    by_enum = run_sweep(SweepConfig(ScenarioId.UPSILON, (0.0, 0.4), (0.1, 0.9)))
    assert run_sweep(config) == by_enum
    assert run_sweep(SweepConfig("upsilon", (0.0,), (0.1,)))[0].scenario == "upsilon"


def test_sweep_config_refuses_an_unknown_scenario_name():
    with pytest.raises(ConfigError, match="unknown scenario 'omega'"):
        SweepConfig("omega", (0.0,), (0.1,))
    with pytest.raises(ConfigError, match="unknown scenario.*phi value 2.0"):
        SweepConfig("omega", (0.0,), (2.0,), subsystems=((1, "spin"),))
