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
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .boost import wigner_angle_grid
from .errors import ConfigError
from .measures import ccr_arrays
from .states import DOFS, MultipartiteState, ScenarioId, make_scenario

CSV_COLUMNS = ("scenario", "theta", "phi", "particle", "dof", "P", "C", "S", "sum", "residual")

_CONFIG_KEYS = ("scenario", "theta", "phi", "subsystems", "out", "p_mag", "mass")

# Most amplitudes one block may hold: whole theta rows, or a chunk of one row
# that alone is larger.  A block is boosted and reduced in one batched call,
# so this bounds the memory a sweep needs whatever its grid; a 33 x 65
# four-qubit grid (34,320 amplitudes) is one block.
BLOCK_AMPLITUDES = 1 << 16


def fmt_float(x: float) -> str:
    """12-significant-digit text form used everywhere a float is emitted."""
    return format(float(x), ".12g")


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
            for n, (particle, dof) in enumerate(self.subsystems):
                if (particle, dof) in self.subsystems[:n]:
                    problems.append(f"subsystem {particle}:{dof} is listed more than once")
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


@dataclass(frozen=True, eq=False)
class SweepBlock:
    """One block of a sweep, as ``(T, F, K)`` columns.

    A block holds whole theta rows, or one theta row and a chunk of its phi
    values.  ``thetas`` (T) and ``phis`` (F) are sorted ascending and
    ``subsystems`` lists the K (particle, dof) pairs in subsystem-index order,
    so the C order of a column is the CSV row order (theta, phi, subsystem),
    and so is the order of the blocks.
    """

    thetas: tuple[float, ...]
    phis: tuple[float, ...]
    subsystems: tuple[tuple[int, str], ...]
    predictability: np.ndarray
    coherence: np.ndarray
    entropy: np.ndarray
    residual: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """P + C + S, summed in that order as each row's ``sum`` column."""
        return (self.predictability + self.coherence) + self.entropy


def run_sweep(config: SweepConfig) -> Iterator[SweepBlock]:
    """Evaluate the grid lazily, one ``SweepBlock`` at a time.

    The scenario is built and the subsystems are resolved when this is
    called; each block goes through ``wigner_angle_grid`` and ``ccr_arrays``
    (with the checks of ``boost_by_wigner_angle`` and ``ccr``) only when it
    is consumed, so a sweep holds one block at a time.
    """
    base = make_scenario(config.scenario, config.p_mag, config.mass)
    if config.subsystems is None:
        chosen = list(base.single_dof_subsystems())
    else:
        chosen = sorted(
            ((p, dof, base.subsystem_index(p, dof)) for (p, dof) in config.subsystems),
            key=lambda t: t[2],
        )
    thetas = sorted(config.theta_values)
    phis = tuple(sorted(config.phi_values))
    dim = base.amplitudes.dim
    # A theta row too long for one block goes in phi chunks of half a block:
    # its CSV text is formatted a row at a time, and half a block keeps those
    # buffers near the ones of shorter rows (see the README).
    if len(phis) * dim > BLOCK_AMPLITUDES:
        rows, width = 1, max(1, BLOCK_AMPLITUDES // (2 * dim))
    else:
        rows, width = BLOCK_AMPLITUDES // (len(phis) * dim), len(phis)
    return (
        _evaluate_block(base, chosen, tuple(thetas[t : t + rows]), phis[f : f + width])
        for t in range(0, len(thetas), rows)
        for f in range(0, len(phis), width)
    )


def _evaluate_block(
    base: MultipartiteState,
    chosen: list[tuple[int, str, int]],
    thetas: tuple[float, ...],
    phis: tuple[float, ...],
) -> SweepBlock:
    amps = wigner_angle_grid(base, thetas, phis)
    columns = zip(*(ccr_arrays(amps, base.dims, idx) for _, _, idx in chosen))
    p, c, s, residual = (np.stack(column, axis=-1) for column in columns)
    subsystems = tuple((particle, dof) for particle, dof, _ in chosen)
    return SweepBlock(thetas, phis, subsystems, p, c, s, residual)


# The five values of one row; for floats "%.12g" runs the same routine as fmt_float.
_VALUES_FORMAT = ",".join(["%.12g"] * 5)


def _block_text(scenario: str, block: SweepBlock) -> str:
    """The CSV lines of one block, each ending in a newline.

    Every theta and phi is formatted once; each theta row of the block is
    then one %-format of the (phi, subsystem) row templates.
    """
    columns = (block.predictability, block.coherence, block.entropy, block.total, block.residual)
    values = np.stack(columns, axis=-1).reshape(len(block.thetas), -1).tolist()
    tails = [
        f"{fmt_float(phi)},{particle},{dof},{_VALUES_FORMAT}\n"
        for phi in block.phis
        for particle, dof in block.subsystems
    ]
    theta_rows = []
    for theta, theta_values in zip(block.thetas, values):
        head = f"{scenario},{fmt_float(theta)},"
        theta_rows.append((head + head.join(tails)) % tuple(theta_values))
    return "".join(theta_rows)


def _stream_csv(config: SweepConfig, stream: TextIO) -> tuple[int, float]:
    blocks = run_sweep(config)
    scenario = config.scenario.value
    stream.write(",".join(CSV_COLUMNS) + "\n")
    rows, max_residual = 0, 0.0
    for block in blocks:
        stream.write(_block_text(scenario, block))
        rows += block.residual.size
        max_residual = max(max_residual, float(block.residual.max()))
    return rows, max_residual


def write_csv(config: SweepConfig) -> tuple[int, float]:
    """Stream the sweep of ``config`` as CSV; return (row count, max residual).

    The header and then each block's text go out as soon as they are made:
    to ``config.out`` when it is set, else to ``sys.stdout`` as it is at the
    time of the call.  ``config.out`` is all-or-nothing: the rows go to a
    temporary file beside it, which replaces it only once every block has
    been written, and is removed if the sweep fails.  Bytes depend only on
    the configuration.
    """
    if not config.out:
        return _stream_csv(config, sys.stdout)
    path = Path(config.out)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        stream = open(partial, "x")
    except OSError as exc:
        raise ConfigError(f"cannot write {config.out!r}: {exc.strerror}") from None
    try:
        with stream:
            counts = _stream_csv(config, stream)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return counts
