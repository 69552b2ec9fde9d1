"""Command line front end.

Subcommands: ``scenario`` (one state, one boost, full report), ``sweep``
(angle grid to CSV), ``wigner`` (closed form vs 4x4 oracle for one boost),
``check`` (invariant battery).  Exit codes: 0 on success, 1 when the check
battery fails, 2 on bad usage, invalid parameters or a file that cannot be
read or written, 141 when stdout is closed before the output is complete.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .boost import boost_by_wigner_angle
from .checks import DEFAULT_SEED, run_all_checks
from .errors import CcrsimError, ConfigError, NotXShaped
from .measures import ccr, coherence_hs, concurrence_momentum_x, linear_entropy
from .relativity import (
    BoostSpec,
    FourMomentum,
    momentum_rapidity,
    rapidity_from_velocity,
    rotation_angle,
    wigner_oracle,
    wigner_rotation,
)
from .states import (
    MultipartiteState,
    ScenarioId,
    boost_direction,
    make_scenario,
    reduced_density_matrix,
)
from .sweep import build_config, fmt_float, load_config_file, write_csv

_SCENARIO_CHOICES = [s.value for s in ScenarioId]

# Exit status when stdout is closed early: 128 + SIGPIPE, as a shell reports
# a process that the signal ended.
EXIT_BROKEN_PIPE = 141


def _parse_vec3(text: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}") from None
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not math.isfinite(norm):
        raise argparse.ArgumentTypeError(f"direction {text!r} has no direction")
    return v / norm


def _print_amplitudes(state: MultipartiteState, title: str) -> None:
    print(title)
    amps = state.vector
    for i, a in enumerate(amps):
        if abs(a) > 1e-12:
            print(f"  {a.real:+.12f}{a.imag:+.12f}j  {state.basis_label(i)}")


def _print_triples(state: MultipartiteState, stage: str) -> None:
    for particle, dof, idx in state.single_dof_subsystems():
        t = ccr(state, idx)
        print(
            f"  {stage:<5} {particle:>8} {dof:<9}"
            f" {t.predictability:+.12f} {t.coherence:+.12f} {t.entropy:+.12f}"
            f" {t.total:+.12f} {t.residual:.3e}"
        )


def _print_momentum_pair_block(state: MultipartiteState, stage: str) -> None:
    rho = reduced_density_matrix(state, {0, 2})
    s_l = linear_entropy(rho)
    c_hs = coherence_hs(rho)
    try:
        e_text = fmt_float(concurrence_momentum_x(rho))
    except NotXShaped:
        e_text = "n/a (not X-shaped)"
    print(
        f"  {stage:<5} S_l = {fmt_float(s_l)}   C_hs = {fmt_float(c_hs)}"
        f"   E = sqrt(2 C_hs) = {e_text}"
    )


def cmd_scenario(args: argparse.Namespace) -> int:
    scale = math.pi / 180.0 if args.degrees else 1.0
    theta = args.theta * scale
    phi = args.phi * scale
    state = make_scenario(args.id, args.p_mag, args.mass)
    boosted = boost_by_wigner_angle(state, phi, boost_direction(theta))

    print(
        f"scenario {args.id}  (theta={fmt_float(theta)}, phi={fmt_float(phi)},"
        f" p_mag={fmt_float(args.p_mag)}, mass={fmt_float(args.mass)})"
    )
    print()
    _print_amplitudes(state, "pre-boost amplitudes:")
    _print_amplitudes(boosted, "post-boost amplitudes:")
    print()
    print("complementarity triples (P + C + S = 1/2 for each qubit subsystem):")
    print(f"  {'stage':<5} {'particle':>8} {'dof':<9} {'P':>15} {'C':>15} {'S':>15} {'sum':>15} residual")
    _print_triples(state, "pre")
    _print_triples(boosted, "post")
    if state.n_particles == 2:
        print()
        print("momentum-momentum block (spins traced out):")
        _print_momentum_pair_block(state, "pre")
        _print_momentum_pair_block(boosted, "post")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else None
    config = build_config(
        file_values,
        scenario=args.id,
        theta=args.theta,
        phi=args.phi,
        subsystems=args.subsystems,
        out=args.out,
        p_mag=args.p_mag,
        mass=args.mass,
        angles_in_degrees=args.degrees,
    )
    rows, max_residual = write_csv(config)
    if config.out:
        print(
            f"wrote {rows} rows to {config.out}; max residual {fmt_float(max_residual)}",
            file=sys.stderr,
        )
    else:
        print(f"{rows} rows; max residual {fmt_float(max_residual)}", file=sys.stderr)
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    if args.velocity is not None:
        omega = rapidity_from_velocity(args.velocity)
        v_text = fmt_float(args.velocity)
    else:
        omega = args.omega
        v_text = fmt_float(math.tanh(omega))
    boost = BoostSpec(omega, args.e_dir)
    p = FourMomentum.from_spatial(args.mass, args.p_mag * args.p_dir)
    alpha = momentum_rapidity(p)
    rot = wigner_rotation(boost, p)
    oracle = wigner_oracle(boost, p)
    oracle_angle = rotation_angle(oracle)

    e = boost.direction
    d = args.p_dir
    print(f"boost: v={v_text}  omega={fmt_float(omega)}  direction=({e[0]:g}, {e[1]:g}, {e[2]:g})")
    print(
        f"momentum: p_mag={fmt_float(args.p_mag)}  mass={fmt_float(args.mass)}"
        f"  direction=({d[0]:g}, {d[1]:g}, {d[2]:g})  alpha={fmt_float(alpha)}"
    )
    print(f"wigner angle, half-angle closed form: {fmt_float(rot.angle)}")
    print(f"wigner angle, 4x4 oracle:             {fmt_float(oracle_angle)}")
    print(f"|difference| = {fmt_float(abs(rot.angle - oracle_angle))}")
    print("D(W) =")
    for row in rot.matrix:
        print("  [" + "  ".join(f"{z.real:+.9f}{z.imag:+.9f}j" for z in row) + "]")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("CCR_SEED", str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"CCR_SEED={env!r} is not an integer") from None
    if seed < 0:  # numpy's generator refuses it with a ValueError
        raise ConfigError(f"seed {seed} is negative; a seed must be an integer >= 0")
    results = run_all_checks(seed)
    print(f"seed {seed}")
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        line = f"{status}  {r.name:<{width}}  max dev {r.max_deviation:.3e}  tol {r.tolerance:g}"
        if r.detail and not r.passed:
            line += f"  ({r.detail})"
        print(line)
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} suites failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} suites passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ccrsim`` argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="ccrsim",
        description=(
            "Boost discrete-momentum spin-1/2 states and track predictability, "
            "coherence, and entropy of each degree of freedom."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="boost one canonical state and report all triples")
    p_scenario.add_argument("--id", required=True, choices=_SCENARIO_CHOICES)
    p_scenario.add_argument("--theta", type=float, default=0.0, help="boost-plane angle")
    p_scenario.add_argument("--phi", type=float, default=0.0, help="wigner angle")
    p_scenario.add_argument("--p-mag", type=float, default=1.0)
    p_scenario.add_argument("--mass", type=float, default=1.0)
    p_scenario.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p_scenario.set_defaults(func=cmd_scenario)

    p_sweep = sub.add_parser("sweep", help="evaluate a (theta, phi) grid and emit CSV")
    p_sweep.add_argument("--id", choices=_SCENARIO_CHOICES)
    p_sweep.add_argument("--theta", help="list: '0,0.4' or 'start:stop:count'")
    p_sweep.add_argument("--phi", help="list: '0,0.4' or 'start:stop:count'")
    p_sweep.add_argument("--subsystems", help="list of particle:dof, e.g. '0:momentum,0:spin'")
    p_sweep.add_argument("--p-mag", type=float)
    p_sweep.add_argument("--mass", type=float)
    p_sweep.add_argument("--config", help="flat key-value config file; flags override it")
    p_sweep.add_argument("--out", help="CSV output path (stdout when omitted)")
    p_sweep.add_argument("--degrees", action="store_true", help="angles are in degrees")
    p_sweep.set_defaults(func=cmd_sweep)

    p_wigner = sub.add_parser("wigner", help="little-group rotation: closed form vs 4x4 oracle")
    speed = p_wigner.add_mutually_exclusive_group(required=True)
    speed.add_argument("--velocity", type=float, help="boost speed, 0 <= v < 1")
    speed.add_argument("--omega", type=float, help="boost rapidity")
    p_wigner.add_argument("--p-mag", type=float, default=1.0)
    p_wigner.add_argument("--mass", type=float, default=1.0)
    p_wigner.add_argument("--e-dir", type=_parse_vec3, default="1,0,0", help="boost direction x,y,z")
    p_wigner.add_argument("--p-dir", type=_parse_vec3, default="0,1,0", help="momentum direction x,y,z")
    p_wigner.set_defaults(func=cmd_wigner)

    p_check = sub.add_parser("check", help="run the invariant battery")
    p_check.add_argument("--seed", type=int, help="random seed (default: CCR_SEED env or built-in)")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point fd 1 at devnull so the
        # interpreter's final flush of what is still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CcrsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
