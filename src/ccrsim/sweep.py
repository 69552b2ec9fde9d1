"""Angle sweeps over the scenario states, emitted as deterministic CSV.

A sweep evaluates the complementarity triple of every requested single-DOF
subsystem of one scenario on a (theta, phi) grid of boost-plane angles and
Wigner angles.  Rows are ordered by (theta asc, phi asc, subsystem index asc)
and floats are printed with 12 significant digits, so two runs of the same
configuration produce byte-identical files.

Configurations come from flat key-value text files and/or flags::

    scenario = psi
    theta = 0, 0.39269908169872414, 0.7853981633974483
    phi = 0:1.5707963267948966:65
    subsystems = 0:momentum, 0:spin
    out = psi_sweep.csv
    p_mag = 1.0
    mass = 1.0

List values are comma-separated; a ``start:stop:count`` entry expands to
``count`` evenly spaced points including both endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boost import wigner_angle_grid
from .errors import ConfigError
from .measures import ccr_arrays
from .states import DOFS, ScenarioId, make_scenario

CSV_COLUMNS = ("scenario", "theta", "phi", "particle", "dof", "P", "C", "S", "sum", "residual")

_CONFIG_KEYS = ("scenario", "theta", "phi", "subsystems", "out", "p_mag", "mass")

# Most amplitudes one block of theta rows may hold.  A block is boosted and
# reduced in one batched call, so this bounds the memory a sweep needs
# whatever its grid; a 33 x 65 four-qubit grid (34,320 amplitudes) is one block.
BLOCK_AMPLITUDES = 1 << 16


def fmt_float(x: float) -> str:
    """12-significant-digit text form used everywhere a float is emitted."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class SweepRecord:
    scenario: str
    theta: float
    phi: float
    particle: int
    dof: str
    predictability: float
    coherence: float
    entropy: float
    total: float
    residual: float

    def csv_row(self) -> str:
        return ",".join(
            (
                self.scenario,
                fmt_float(self.theta),
                fmt_float(self.phi),
                str(self.particle),
                self.dof,
                fmt_float(self.predictability),
                fmt_float(self.coherence),
                fmt_float(self.entropy),
                fmt_float(self.total),
                fmt_float(self.residual),
            )
        )


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep request; construction reports every violation at once.

    ``scenario`` may be given as its name; it is stored as a ``ScenarioId``.
    """

    scenario: ScenarioId
    theta_values: tuple[float, ...]
    phi_values: tuple[float, ...]
    subsystems: tuple[tuple[int, str], ...] | None = None
    out: str | None = None
    p_mag: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        problems: list[str] = []
        try:
            scenario = ScenarioId(self.scenario)
            object.__setattr__(self, "scenario", scenario)
        except ValueError:
            names = ", ".join(s.value for s in ScenarioId)
            problems.append(f"unknown scenario {self.scenario!r}; pick one of {names}")
            scenario = None
        half_pi = math.pi / 2.0 + 1e-12
        for name, values in (("theta", self.theta_values), ("phi", self.phi_values)):
            if not values:
                problems.append(f"{name} grid is empty")
            for v in values:
                if not (math.isfinite(v) and 0.0 <= v <= half_pi):
                    problems.append(f"{name} value {v!r} outside [0, pi/2]")
        n_particles = 2 if scenario in (ScenarioId.XI2, ScenarioId.UPSILON) else 1
        if self.subsystems is not None:
            for particle, dof in self.subsystems:
                if scenario is not None and not 0 <= particle < n_particles:
                    problems.append(
                        f"subsystem particle {particle} out of range for {scenario.value}"
                    )
                if dof not in DOFS:
                    problems.append(f"subsystem dof {dof!r} must be one of {DOFS}")
        if not (math.isfinite(self.p_mag) and self.p_mag > 0.0):
            problems.append(f"p_mag must be positive, got {self.p_mag!r}")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            problems.append(f"mass must be positive, got {self.mass!r}")
        if problems:
            raise ConfigError("; ".join(problems))


def parse_value_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats; 'start:stop:count' expands to a linear grid."""
    values: list[float] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            if ":" in entry:
                start_s, stop_s, count_s = entry.split(":")
                count = int(count_s)
                if count < 2:
                    raise ConfigError(f"grid {entry!r} needs at least 2 points")
                values.extend(float(x) for x in np.linspace(float(start_s), float(stop_s), count))
            else:
                values.append(float(entry))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"cannot parse value list entry {entry!r}: {exc}") from None
    if not values:
        raise ConfigError(f"empty value list: {text!r}")
    return tuple(values)


def parse_subsystems(text: str) -> tuple[tuple[int, str], ...]:
    """Comma-separated 'particle:dof' pairs, e.g. '0:momentum, 1:spin'."""
    out = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) != 2:
            raise ConfigError(f"subsystem entry {entry!r} is not 'particle:dof'")
        try:
            out.append((int(parts[0]), parts[1].strip()))
        except ValueError:
            raise ConfigError(f"subsystem entry {entry!r} has a bad particle index") from None
    if not out:
        raise ConfigError(f"empty subsystem list: {text!r}")
    return tuple(out)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat 'key = value' lines; '#' starts a comment; unknown keys are errors."""
    raw: dict[str, str] = {}
    problems: list[str] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
            continue
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    if problems:
        raise ConfigError("; ".join(problems))
    return raw


def build_config(
    file_values: dict[str, str] | None,
    *,
    scenario: str | None = None,
    theta: str | None = None,
    phi: str | None = None,
    subsystems: str | None = None,
    out: str | None = None,
    p_mag: float | None = None,
    mass: float | None = None,
    angles_in_degrees: bool = False,
) -> SweepConfig:
    """Merge a config file with flag overrides (flags win) into a SweepConfig."""
    file_values = dict(file_values or {})

    def pick(flag, key):
        return flag if flag is not None else file_values.get(key)

    scenario_text = pick(scenario, "scenario")
    if scenario_text is None:
        raise ConfigError("no scenario given (flag --id or config key 'scenario')")

    theta_text = pick(theta, "theta")
    phi_text = pick(phi, "phi")
    theta_values = parse_value_list(theta_text) if theta_text is not None else (0.0,)
    phi_values = (
        parse_value_list(phi_text)
        if phi_text is not None
        else tuple(float(x) for x in np.linspace(0.0, math.pi / 2.0, 65))
    )
    if angles_in_degrees:
        scale = math.pi / 180.0
        if theta_text is not None:
            theta_values = tuple(v * scale for v in theta_values)
        if phi_text is not None:
            phi_values = tuple(v * scale for v in phi_values)

    subsystems_text = pick(subsystems, "subsystems")
    subsystem_pairs = parse_subsystems(subsystems_text) if subsystems_text is not None else None

    def pick_float(flag, key, default):
        if flag is not None:
            return float(flag)
        if key in file_values:
            try:
                return float(file_values[key])
            except ValueError:
                raise ConfigError(f"config key {key!r} is not a number: {file_values[key]!r}") from None
        return default

    return SweepConfig(
        scenario=scenario_text,
        theta_values=theta_values,
        phi_values=phi_values,
        subsystems=subsystem_pairs,
        out=pick(out, "out"),
        p_mag=pick_float(p_mag, "p_mag", 1.0),
        mass=pick_float(mass, "mass", 1.0),
    )


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the grid; rows ordered (theta asc, phi asc, subsystem asc).

    Whole blocks of theta rows go through ``wigner_angle_grid`` and
    ``ccr_arrays`` at once, with the checks of ``boost_by_wigner_angle`` and
    ``ccr``.
    """
    base = make_scenario(config.scenario, config.p_mag, config.mass)
    if config.subsystems is None:
        chosen = [(p, dof, idx) for (p, dof, idx) in base.single_dof_subsystems()]
    else:
        chosen = sorted(
            ((p, dof, base.subsystem_index(p, dof)) for (p, dof) in config.subsystems),
            key=lambda t: t[2],
        )
    scenario = config.scenario.value
    thetas = sorted(config.theta_values)
    phis = sorted(config.phi_values)
    rows_per_block = max(1, BLOCK_AMPLITUDES // (len(phis) * base.amplitudes.dim))
    records = []
    for start in range(0, len(thetas), rows_per_block):
        block = thetas[start : start + rows_per_block]
        amps = wigner_angle_grid(base, block, phis)
        columns = [
            (particle, dof, [a.tolist() for a in ccr_arrays(amps, base.dims, idx)])
            for particle, dof, idx in chosen
        ]
        for i, theta in enumerate(block):
            for j, phi in enumerate(phis):
                for particle, dof, (p, c, s, residual) in columns:
                    records.append(
                        SweepRecord(
                            scenario=scenario,
                            theta=theta,
                            phi=phi,
                            particle=particle,
                            dof=dof,
                            predictability=p[i][j],
                            coherence=c[i][j],
                            entropy=s[i][j],
                            total=p[i][j] + c[i][j] + s[i][j],
                            residual=residual[i][j],
                        )
                    )
    return records


def write_csv(records: list[SweepRecord], path: str | Path) -> None:
    """Write the header plus one line per record; bytes depend only on input."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in records)
    Path(path).write_text("\n".join(lines) + "\n")
