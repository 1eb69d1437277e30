"""Run configuration, scenario presets and batch orchestration.

Configs are INI files (key/value with sections); see docs/config.md for the
schema and the shipped presets for examples.  A run produces, inside the
output directory:

    trajectory.csv   t, x, y, x_interband, y_interband, x_intraband, y_intraband
    spectrum.csv     freq, power_x, power_y, label
    trajectory_xt.svg, trajectory_xy.svg, spectrum.svg
    report.txt       parameters, kappa, truncation, peaks, plan, oracle summary
    decomposition_f.csv / decomposition_u.csv        (on request)
    eigenvalues.csv                                  (with the oracle check)

Every file carries the artifact version and a hash of the configuration
text, and identical configurations produce byte-identical CSV output at a
fixed BLAS thread count (the line sums are BLAS products, whose summation
order can change with the number of threads).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field as dc_field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import Trajectory, cyclotron_reference, trajectory
from .errors import ConfigError, OracleMismatchError
from .ionmap import (
    ION_MASSES_KG,
    TrapConfig,
    excitation_plan,
    kappa_of,
    trap_to_dirac,
)
from .packet import GaussianPacket, Numerics, PacketDecomposition, decompose, u_overlap
from .params import Dimensionality, SimParams, make_params, make_params_dimensionless
from .reference import build_matrix, oracle_trajectory
from .spectral import MIN_SAMPLES, WINDOWS, SpectrumReport, classify_peaks, richness, spectrum
from .svg import Series, line_plot

PRESET_NAMES = ("fig1", "fig2a", "fig2b", "fig2c")


@dataclass(frozen=True)
class SpectralOptions:
    window: str = "hann"
    pad_factor: int = 4
    detection_floor: float = 1e-3
    significant_rel_power: float = 0.01

    def __post_init__(self) -> None:
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {', '.join(WINDOWS)}, got {self.window!r}")
        if self.pad_factor < 1:
            raise ValueError(f"pad_factor must be >= 1, got {self.pad_factor}")
        if self.detection_floor <= 0.0 or self.significant_rel_power <= 0.0:
            raise ValueError("thresholds must be positive")


@dataclass(frozen=True)
class OracleOptions:
    enabled: bool = False
    n_trunc: int = 0  # 0 = automatic margin above the decomposition truncation
    tol_in_l: float = 1e-6  # in magnetic lengths

    def __post_init__(self) -> None:
        if self.tol_in_l <= 0.0:
            raise ValueError("tol_in_l must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the raw text it was parsed from."""

    scenario: str
    mode: Dimensionality
    packet_unit: str  # "lambda_c" or "magnetic_length"
    d_x: float
    d_y: float
    d_z: float | None
    k0x: float
    component: int
    field_b: float | None
    field_tesla: float | None
    trap: TrapConfig | None
    t_max: float
    samples: int
    numerics: Numerics
    spectral: SpectralOptions
    oracle: OracleOptions
    position_unit: str  # "lambda_c" or "L"
    raw_text: str

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]

    def build_params(self) -> tuple[SimParams, TrapConfig | None]:
        if self.trap is not None:
            params, _ = trap_to_dirac(self.trap)
            return params.with_dimensionality(self.mode), self.trap
        if self.field_b is not None:
            return make_params_dimensionless(self.field_b, self.mode), None
        return make_params(self.field_tesla, dimensionality=self.mode), None

    def build_packet(self, params: SimParams) -> GaussianPacket:
        if self.packet_unit == "magnetic_length":
            scale = params.magnetic_length
        else:
            scale = 1.0
        try:
            return GaussianPacket(
                d_x=self.d_x * scale,
                d_y=self.d_y * scale,
                d_z=None if self.d_z is None else self.d_z * scale,
                k0x=self.k0x / scale,
                component=self.component,
            )
        except ValueError as exc:
            raise ConfigError(f"[packet] {exc}") from exc

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        if cast is bool:
            return cp.getboolean(section, key)
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def _section(cp: configparser.ConfigParser, section: str, options):
    """The options dataclass of a section, every field read with its default's type."""
    try:
        return options(**{f.name: _get(cp, section, f.name, type(f.default), f.default)
                          for f in fields(options)})
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(text: str, scenario: str = "inline") -> RunConfig:
    """Parse and validate an INI configuration; raises ConfigError on problems."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    mode_text = _get(cp, "run", "mode", str, "2+1")
    try:
        mode = Dimensionality(mode_text)
    except ValueError:
        raise ConfigError(f"[run] mode must be '2+1' or '3+1', got {mode_text!r}")

    if not cp.has_section("packet"):
        raise ConfigError("missing [packet] section")
    packet_unit = _get(cp, "packet", "unit", str, "lambda_c")
    if packet_unit not in ("lambda_c", "magnetic_length"):
        raise ConfigError(f"[packet] unit must be lambda_c or magnetic_length, got {packet_unit!r}")
    d_x = _get(cp, "packet", "d_x", float)
    d_y = _get(cp, "packet", "d_y", float)
    if d_x is None or d_y is None:
        raise ConfigError("[packet] d_x and d_y are required")
    d_z = _get(cp, "packet", "d_z", float)
    if mode is Dimensionality.THREE_PLUS_ONE and d_z is None:
        raise ConfigError("[packet] d_z is required in 3+1 mode")
    k0x = _get(cp, "packet", "k0x", float, 0.0)
    component = _get(cp, "packet", "component", int, 2)

    field_b = _get(cp, "field", "b", float)
    field_tesla = _get(cp, "field", "tesla", float)
    trap = _parse_trap(cp) if cp.has_section("trap") else None
    supplied = sum(x is not None for x in (field_b, field_tesla, trap))
    if supplied != 1:
        raise ConfigError(
            "exactly one of [field] b, [field] tesla or a [trap] section must be given"
        )

    t_max = _get(cp, "time", "t_max", float)
    samples = _get(cp, "time", "samples", int)
    if t_max is None or samples is None or t_max <= 0.0 or samples < MIN_SAMPLES:
        raise ConfigError(
            f"[time] t_max > 0 and samples >= {MIN_SAMPLES} (the spectrum's floor) are required"
        )

    numerics = _section(cp, "numerics", Numerics)
    spectral_opts = _section(cp, "spectral", SpectralOptions)
    oracle_opts = _section(cp, "oracle", OracleOptions)

    position_unit = _get(cp, "output", "position_unit", str, "lambda_c")
    if position_unit not in ("lambda_c", "L"):
        raise ConfigError(f"[output] position_unit must be lambda_c or L, got {position_unit!r}")
    _get(cp, "numerics", "threads", int)  # applied by the CLI before numpy loads

    return RunConfig(
        scenario=scenario,
        mode=mode,
        packet_unit=packet_unit,
        d_x=d_x,
        d_y=d_y,
        d_z=d_z,
        k0x=k0x,
        component=component,
        field_b=field_b,
        field_tesla=field_tesla,
        trap=trap,
        t_max=t_max,
        samples=samples,
        numerics=numerics,
        spectral=spectral_opts,
        oracle=oracle_opts,
        position_unit=position_unit,
        raw_text=text,
    )


def _parse_trap(cp: configparser.ConfigParser) -> TrapConfig:
    eta = _get(cp, "trap", "eta", float)
    omega_tilde_hz = _get(cp, "trap", "omega_tilde_hz", float)
    omega_carrier_hz = _get(cp, "trap", "omega_carrier_hz", float)
    if eta is None or omega_tilde_hz is None or omega_carrier_hz is None:
        raise ConfigError("[trap] eta, omega_tilde_hz and omega_carrier_hz are required")
    ion = _get(cp, "trap", "ion", str, "ca40")
    mass = _get(cp, "trap", "ion_mass_kg", float)
    if mass is None:
        if ion not in ION_MASSES_KG:
            raise ConfigError(f"[trap] unknown ion {ion!r}; use ca40, mg25 or ion_mass_kg")
        mass = ION_MASSES_KG[ion]
    delta_m = _get(cp, "trap", "delta_m", float)
    trap_freq_hz = _get(cp, "trap", "trap_freq_hz", float)
    if (delta_m is None) == (trap_freq_hz is None):
        raise ConfigError("[trap] give exactly one of delta_m and trap_freq_hz")
    try:
        if delta_m is not None:
            return TrapConfig.from_spread(
                eta, 2.0 * math.pi * omega_carrier_hz, 2.0 * math.pi * omega_tilde_hz,
                delta_m, mass,
            )
        return TrapConfig.from_trap_frequency(
            eta, 2.0 * math.pi * omega_carrier_hz, 2.0 * math.pi * omega_tilde_hz,
            2.0 * math.pi * trap_freq_hz, mass,
        )
    except ValueError as exc:
        raise ConfigError(f"[trap] {exc}") from exc


def preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown scenario {name!r}; available: {', '.join(PRESET_NAMES)}")
    return resources.files("zbsim.presets").joinpath(f"{name}.ini").read_text()


def load_preset(name: str) -> RunConfig:
    return parse_config(preset_text(name), scenario=name)


def load_config_file(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(), scenario=p.stem)


@dataclass
class RunResult:
    out_dir: Path
    report_path: Path
    kappa: float
    n_max: int
    tail_mass: float
    richness: int
    oracle_deviation: float | None = None
    files: list[Path] = dc_field(default_factory=list)


def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_header(config: RunConfig, extra: str = "") -> str:
    lines = [
        f"# zbsim {__version__}",
        f"# config-sha256: {config.config_hash()}",
        f"# scenario: {config.scenario}; mode: {config.mode.value}",
    ]
    if extra:
        lines.append(f"# {extra}")
    return "\n".join(lines) + "\n"


def _write_trajectory_csv(path: Path, traj: Trajectory, config: RunConfig) -> None:
    buf = io.StringIO()
    buf.write(_csv_header(config, f"position-unit: {traj.position_unit}; time-unit: t_c"))
    buf.write("t,x,y,x_interband,y_interband,x_intraband,y_intraband\n")
    cols = (traj.times, traj.x, traj.y, traj.x_interband, traj.y_interband,
            traj.x_intraband, traj.y_intraband)
    for row in zip(*cols):
        buf.write(",".join(_fmt17(v) for v in row) + "\n")
    path.write_text(buf.getvalue())


def _write_spectrum_csv(path: Path, report: SpectrumReport, config: RunConfig) -> None:
    labels = [""] * report.freqs.size
    df = report.freqs[1] - report.freqs[0] if report.freqs.size > 1 else 1.0
    for peak in report.peaks:
        k = int(round(peak.freq / df))
        if 0 <= k < len(labels):
            labels[k] = peak.label_text()
    buf = io.StringIO()
    buf.write(_csv_header(config, "frequency-unit: rad/t_c"))
    buf.write("freq,power_x,power_y,label\n")
    for f, px, py, lab in zip(report.freqs, report.power_x, report.power_y, labels):
        buf.write(f"{_fmt17(f)},{_fmt17(px)},{_fmt17(py)},{lab}\n")
    path.write_text(buf.getvalue())


def _write_decomposition_csv(out: Path, decomp: PacketDecomposition, config: RunConfig) -> list[Path]:
    f_path = out / "decomposition_f.csv"
    buf = io.StringIO()
    buf.write(_csv_header(config, "transverse expansion coefficients F_n(kx)"))
    buf.write("n,kx,re,im\n")
    f_table = decomp.f_table()
    for n in range(decomp.n_max + 1):
        for kx, value in zip(decomp.kx_nodes, f_table[n]):
            buf.write(f"{n},{_fmt17(kx)},{_fmt17(value)},{_fmt17(0.0)}\n")
    f_path.write_text(buf.getvalue())

    u_path = out / "decomposition_u.csv"
    buf = io.StringIO()
    buf.write(_csv_header(config, "overlap matrix U_mn"))
    buf.write("m,n,re,im\n")
    for m in range(decomp.n_max + 1):
        for n in range(decomp.n_max + 1):
            buf.write(f"{m},{n},{_fmt17(u_overlap(decomp, m, n))},{_fmt17(0.0)}\n")
    u_path.write_text(buf.getvalue())
    return [f_path, u_path]


def run(
    config: RunConfig,
    out_dir: str | Path,
    check_oracle: bool = False,
    dump_decomposition: bool = False,
) -> RunResult:
    """Execute one configured run and write all artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params, trap = config.build_params()
    packet = config.build_packet(params)
    t_grid = config.time_grid()

    decomp = decompose(packet, params, config.numerics, config.mode)
    traj = trajectory(packet, params, t_grid, config.mode, decomp=decomp)
    if config.position_unit == "L":
        traj_out = traj.in_magnetic_length_units()
    else:
        traj_out = traj

    report = spectrum(
        traj_out,
        window=config.spectral.window,
        pad_factor=config.spectral.pad_factor,
        detection_floor=config.spectral.detection_floor,
    )
    report = classify_peaks(report, params, decomp.occupied_levels())
    n_rich = richness(report, config.spectral.significant_rel_power)

    oracle_dev = None
    files: list[Path] = []
    if check_oracle or config.oracle.enabled:
        n_trunc = config.oracle.n_trunc if config.oracle.n_trunc > 0 else None
        oracle = oracle_trajectory(
            packet, params, t_grid, config.mode, n_trunc=n_trunc, decomp=decomp
        )
        dev = max(
            float(np.max(np.abs(traj.x - oracle.x))),
            float(np.max(np.abs(traj.y - oracle.y))),
        )
        oracle_dev = dev / params.magnetic_length
        eig_path = out / "eigenvalues.csv"
        ham = build_matrix(0.0, decomp.n_max + 12, params)
        buf = io.StringIO()
        buf.write(_csv_header(config, "truncated-matrix eigenvalues at kx=kz=0"))
        buf.write("index,energy\n")
        for i, e in enumerate(ham.eigenvalues()):
            buf.write(f"{i},{_fmt17(e)}\n")
        eig_path.write_text(buf.getvalue())
        files.append(eig_path)

    traj_path = out / "trajectory.csv"
    _write_trajectory_csv(traj_path, traj_out, config)
    spec_path = out / "spectrum.csv"
    _write_spectrum_csv(spec_path, report, config)
    files += [traj_path, spec_path]

    files += _write_svgs(out, traj_out, report, config)
    if dump_decomposition:
        files += _write_decomposition_csv(out, decomp, config)

    report_path = out / "report.txt"
    report_path.write_text(
        _render_report(config, params, trap, packet, decomp, traj_out, report,
                       n_rich, oracle_dev)
    )
    files.append(report_path)

    if oracle_dev is not None and oracle_dev > config.oracle.tol_in_l:
        raise OracleMismatchError(
            f"analytic vs reference deviation {oracle_dev:.3e} L exceeds "
            f"{config.oracle.tol_in_l:.1e} L"
        )
    return RunResult(
        out_dir=out,
        report_path=report_path,
        kappa=params.kappa,
        n_max=decomp.n_max,
        tail_mass=decomp.tail_mass,
        richness=n_rich,
        oracle_deviation=oracle_dev,
        files=files,
    )


def _write_svgs(out: Path, traj: Trajectory, report: SpectrumReport, config: RunConfig) -> list[Path]:
    header = f"zbsim {__version__} config-sha256:{config.config_hash()}"
    unit = traj.position_unit
    xt = line_plot(
        [Series(traj.times, traj.x, "x(t)"), Series(traj.times, traj.y, "y(t)")],
        title=f"Packet centre vs time ({config.scenario})",
        xlabel="t [t_c]",
        ylabel=f"position [{unit}]",
        header=header,
    )
    xy = line_plot(
        [Series(traj.x, traj.y, "trajectory")],
        title=f"Parametric trajectory ({config.scenario})",
        xlabel=f"x [{unit}]",
        ylabel=f"y [{unit}]",
        header=header,
        equal_axes=True,
    )
    markers = [(p.freq, p.label_text()) for p in report.peaks[:12]]
    spec = line_plot(
        [
            Series(report.freqs, report.power_x, "power x"),
            Series(report.freqs, report.power_y, "power y"),
        ],
        title=f"Power spectrum ({config.scenario})",
        xlabel="angular frequency [1/t_c]",
        ylabel="power",
        header=header,
        markers=markers,
    )
    paths = []
    for name, doc in (("trajectory_xt.svg", xt), ("trajectory_xy.svg", xy), ("spectrum.svg", spec)):
        p = out / name
        p.write_text(doc)
        paths.append(p)
    return paths


def _render_report(
    config: RunConfig,
    params: SimParams,
    trap: TrapConfig | None,
    packet: GaussianPacket,
    decomp: PacketDecomposition,
    traj: Trajectory,
    report: SpectrumReport,
    n_rich: int,
    oracle_dev: float | None,
) -> str:
    omega_c, radius = cyclotron_reference(packet, params)
    lines = [
        f"zbsim {__version__} run report",
        f"config-sha256: {config.config_hash()}",
        f"scenario: {config.scenario}",
        f"mode: {config.mode.value}",
        "",
        "parameters (natural units mc^2 = c = hbar = 1):",
        f"  b = hbar*omega/mc^2      = {params.field_ratio_b:.12g}",
        f"  kappa = b^2/4            = {params.kappa:.12g}",
        f"  magnetic length L        = {params.magnetic_length:.12g} lambda_c",
        f"  cyclotron frequency      = {omega_c:.12g} 1/t_c",
        f"  reference orbit radius   = {radius:.12g} lambda_c",
        "",
        "packet (lambda_c units):",
        f"  d_x = {packet.d_x:.12g}, d_y = {packet.d_y:.12g}, "
        f"d_z = {packet.d_z if packet.d_z is not None else 'n/a'}, k0x = {packet.k0x:.12g}",
        "",
        "decomposition:",
        f"  n_max = {decomp.n_max}",
        f"  tail mass = {decomp.tail_mass:.3e}",
        f"  sum U_nn = {float(np.sum(decomp.u_diag)):.12f}",
        f"  kx nodes = {decomp.kx_nodes.size}, kz nodes = {decomp.kz_nodes.size}",
        f"  imaginary residue of positions = {traj.provenance['imag_residue']:.3e}",
        "",
        f"spectrum: {len(report.peaks)} peaks detected, "
        f"{n_rich} significant at {config.spectral.significant_rel_power:.0%} of max",
    ]
    top = max((p.power for p in report.peaks), default=0.0)
    for p in report.peaks[:15]:
        rel = p.power / top if top > 0 else 0.0
        lines.append(f"  freq = {p.freq:10.6g}  rel power = {rel:9.3e}  {p.label_text()}")
    if trap is not None:
        k = kappa_of(trap)
        lines += [
            "",
            "trap mapping:",
            f"  eta = {trap.eta}, Omega/2pi = {trap.omega_carrier / (2 * math.pi):.6g} Hz, "
            f"Omega_tilde/2pi = {trap.omega_tilde / (2 * math.pi):.6g} Hz",
            f"  Delta = {trap.delta:.6g} m, nu/2pi = {trap.trap_freq / (2 * math.pi):.6g} Hz, "
            f"M = {trap.ion_mass:.6g} kg",
            f"  kappa from trap = {k:.6g}",
            "",
            f"excitation plan ({config.mode.value}):",
        ]
        plan = excitation_plan(config.mode)
        lines += [f"  {row}" for row in plan.table()]
        lines.append(f"  total laser-excitation pairs: {plan.pair_count}")
    if oracle_dev is not None:
        lines += [
            "",
            "reference check:",
            f"  max |analytic - matrix reference| = {oracle_dev:.3e} L "
            f"(tolerance {config.oracle.tol_in_l:.1e} L)",
        ]
    lines.append("")
    return "\n".join(lines)
