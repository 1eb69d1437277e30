"""Run configuration, scenario presets and batch orchestration.

Configs are INI files (key/value with sections); see docs/config.md for the
schema and the shipped presets for examples.  A run produces, inside the
output directory:

    trajectory.csv   t, x, y, x_interband, y_interband, x_intraband, y_intraband
    spectrum.csv     freq, power_x, power_y, label
    trajectory_xt.svg, trajectory_xy.svg, spectrum.svg
    report.txt       parameters, kappa, truncation, peaks, plan, oracle summary
    decomposition_f.csv / decomposition_u.csv        (on request)
    eigenvalues.csv  (with the oracle check) the spectrum of the oracle's own
                     matrix at kz = 0, at its truncation n_trunc

Every file carries the artifact version and a hash of the configuration
text, and identical configurations produce byte-identical CSV output at a
fixed BLAS thread count (the line sums are BLAS products, whose summation
order can change with the number of threads).
"""

from __future__ import annotations

import configparser
import io
import math
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from ._record import Record, fields
from .dynamics import Trajectory, cyclotron_reference, trajectory
from .errors import ConfigError, OracleMismatchError
from .packet import MAX_ARRAY, MAX_N_TRUNC, GaussianPacket, Numerics, PacketDecomposition, decompose, u_overlap
from .params import Dimensionality, SimParams, make_params, make_params_dimensionless
from .spectral import MIN_SAMPLES, WINDOWS, SpectrumReport, classify_peaks, richness, spectrum
from .svg import Series, line_plot

if TYPE_CHECKING:  # the trap mapping and the oracle load only for the runs that use them
    from .ionmap import TrapConfig
    from .reference import OracleCheck

try:  # the interpreter's own SHA-256: hashlib loads OpenSSL, about 3.7 MB of resident memory
    from _sha256 import sha256
except ImportError:  # Python 3.12 and later, or a build without the built-in hashes
    from hashlib import sha256

PRESET_NAMES = ("fig1", "fig2a", "fig2b", "fig2c")
# packet widths and |kick| in magnetic lengths (inverse for the kick); no
# truncation under the level caps covers a transverse width or kick near them
PACKET_RANGE_L = (1e-6, 1e6)
# every [trap] number, in its own unit (TrapConfig checks the values derived from them)
TRAP_RANGE = (1e-100, 1e100)


class RunOptions(Record):
    mode: str = "2+1"

    def __post_init__(self) -> None:
        if self.mode not in ("2+1", "3+1"):
            raise ValueError(f"mode must be '2+1' or '3+1', got {self.mode!r}")


class FieldOptions(Record):
    b: float | None = None
    tesla: float | None = None

    def build(self) -> tuple[None, SimParams]:
        """No trap, and the field parameters."""
        key, make = ("b", make_params_dimensionless) if self.b is not None else ("tesla", make_params)
        try:
            return None, make(getattr(self, key))
        except ValueError as exc:
            raise ValueError(f"{key} = {getattr(self, key)!r}: {exc}") from exc


class TrapOptions(Record):
    eta: float | None = None
    omega_tilde_hz: float | None = None
    omega_carrier_hz: float | None = None
    ion_mass_kg: float | None = None
    delta_m: float | None = None
    trap_freq_hz: float | None = None
    ion: str = "ca40"

    def __post_init__(self) -> None:
        from .ionmap import ION_MASSES_KG

        lo, hi = TRAP_RANGE
        for name in fields(self):
            value = getattr(self, name)
            if isinstance(value, float) and not lo <= value <= hi:
                raise ValueError(f"{name} = {value!r} must be within [{lo:g}, {hi:g}]")
        if None in (self.eta, self.omega_tilde_hz, self.omega_carrier_hz):
            raise ValueError("eta, omega_tilde_hz and omega_carrier_hz are required")
        if self.ion_mass_kg is None and self.ion not in ION_MASSES_KG:
            raise ValueError(f"unknown ion {self.ion!r}; use ca40, mg25 or ion_mass_kg")
        if (self.delta_m is None) == (self.trap_freq_hz is None):
            raise ValueError("give exactly one of delta_m and trap_freq_hz")

    def build(self) -> tuple[TrapConfig, SimParams]:
        """The drive and motion in SI units, and the simulated field parameters;
        an error names the keys that the failing value was derived from."""
        from .ionmap import ION_MASSES_KG, TrapConfig, trap_to_dirac

        mass_key = "ion_mass_kg" if self.ion_mass_kg is not None else "ion"
        mass = self.ion_mass_kg if self.ion_mass_kg is not None else ION_MASSES_KG[self.ion]
        source = "delta_m" if self.delta_m is not None else "trap_freq_hz"
        drive = (self.eta, 2.0 * math.pi * self.omega_carrier_hz, 2.0 * math.pi * self.omega_tilde_hz)
        try:
            if self.delta_m is not None:
                trap = TrapConfig.from_spread(*drive, self.delta_m, mass)
            else:
                trap = TrapConfig.from_trap_frequency(*drive, 2.0 * math.pi * self.trap_freq_hz, mass)
        except ValueError as exc:
            raise ValueError(
                f"{exc}, derived from {source} and {mass_key} ({source} = "
                f"{getattr(self, source)!r}, {mass_key} = {getattr(self, mass_key)!r})"
            ) from exc
        try:
            return trap, trap_to_dirac(trap)
        except ValueError as exc:
            raise ValueError(
                f"eta = {self.eta!r}, omega_tilde_hz = {self.omega_tilde_hz:g}, "
                f"omega_carrier_hz = {self.omega_carrier_hz:g}: {exc}"
            ) from exc


class PacketOptions(Record):
    unit: str = "lambda_c"  # of the widths; the kick is in the inverse unit
    d_x: float | None = None
    d_y: float | None = None
    d_z: float | None = None
    k0x: float = 0.0

    def __post_init__(self) -> None:
        if self.unit not in ("lambda_c", "magnetic_length"):
            raise ValueError(f"unit must be lambda_c or magnetic_length, got {self.unit!r}")
        if self.d_x is None or self.d_y is None:
            raise ValueError("d_x and d_y are required")

    def packet(self, ell: float) -> GaussianPacket:
        """The packet in Compton wavelengths; its widths and kick are bounded
        in magnetic lengths first, the units of the overlap recurrence."""
        in_l = self.unit == "magnetic_length"
        scale = ell if in_l else 1.0
        unit = "L" if in_l else "lambda_c"
        lo, hi = PACKET_RANGE_L
        for key in ("d_x", "d_y", "d_z"):
            value = getattr(self, key)
            if value is not None and not lo <= (value if in_l else value / ell) <= hi:
                raise ValueError(
                    f"width {key} must be finite and within [{lo:g}, {hi:g}] "
                    f"magnetic lengths, got {key} = {value!r} {unit} (L = {ell:.6g} lambda_c)"
                )
        if not abs(self.k0x if in_l else self.k0x * ell) <= hi:
            raise ValueError(
                f"kick k0x must be within +-{hi:g} per magnetic length, "
                f"got k0x = {self.k0x!r} per {unit} (L = {ell:.6g} lambda_c)"
            )
        return GaussianPacket(d_x=self.d_x * scale, d_y=self.d_y * scale,
                              d_z=None if self.d_z is None else self.d_z * scale,
                              k0x=self.k0x / scale)


class TimeOptions(Record):
    t_max: float = 0.0  # required, as is samples
    samples: int = 0

    def __post_init__(self) -> None:
        if not self.t_max > 0.0 or self.samples < MIN_SAMPLES:
            raise ValueError(
                f"t_max > 0 and samples >= {MIN_SAMPLES} (the spectrum's floor) are required"
            )


class SpectralOptions(Record):
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


class OracleOptions(Record):
    n_trunc: int = 0  # 0 = automatic margin above the decomposition truncation
    tol_in_l: float = 1e-6  # in magnetic lengths

    def __post_init__(self) -> None:
        if not 0 <= self.n_trunc <= MAX_N_TRUNC:
            raise ValueError(
                f"n_trunc must be in 0..{MAX_N_TRUNC} (0 = automatic), got {self.n_trunc}"
            )
        if self.tol_in_l <= 0.0:
            raise ValueError("tol_in_l must be positive")


class OutputOptions(Record):
    position_unit: str = "lambda_c"

    def __post_init__(self) -> None:
        if self.position_unit not in ("lambda_c", "L"):
            raise ValueError(f"position_unit must be lambda_c or L, got {self.position_unit!r}")


# every section of a config: a frozen record whose fields are its keys and
# whose __post_init__ holds the checks within the section
_SECTIONS = dict(run=RunOptions, field=FieldOptions, trap=TrapOptions, packet=PacketOptions,
                 time=TimeOptions, numerics=Numerics, spectral=SpectralOptions,
                 oracle=OracleOptions, output=OutputOptions)
# the schema: every section and key a config may hold
_KEYS = {name: fields(options) for name, options in _SECTIONS.items()}


class RunConfig(Record):
    """A validated run: its sections, the field parameters, trap and packet
    built from them, and the raw text they were parsed from."""

    scenario: str
    mode: Dimensionality
    params: SimParams
    trap: TrapConfig | None
    packet: GaussianPacket  # in Compton wavelengths
    time: TimeOptions
    numerics: Numerics
    spectral: SpectralOptions
    oracle: OracleOptions
    output: OutputOptions
    raw_text: str

    def config_hash(self) -> str:
        return sha256(self.raw_text.encode()).hexdigest()[:16]

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.time.t_max, self.time.samples)


def _get(cp: configparser.ConfigParser, section: str, key: str, cast):
    raw = cp.get(section, key)
    try:
        value = cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError it raises turned into a ConfigError
    that names the section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _section(cp: configparser.ConfigParser, section: str):
    """The options record of a section, every key given read with its
    field's default's type (a None default marks an optional float); a key
    outside the schema is an error."""
    for key in cp[section] if cp.has_section(section) else ():
        if key not in _KEYS[section]:
            raise ConfigError(
                f"[{section}] unknown key {key!r}; known keys: {', '.join(_KEYS[section])}"
            )
    options = _SECTIONS[section]
    defaults = {name: getattr(options, name) for name in fields(options)}
    values = {name: _get(cp, section, name, float if default is None else type(default))
              for name, default in defaults.items() if cp.has_option(section, name)}
    return _checked(section, options, **values)


def parse_config(text: str, scenario: str = "inline") -> RunConfig:
    """Parse and validate an INI configuration; raises ConfigError on problems.

    Each section is read into its options record, which checks its own
    values; the rules that span sections are checked here, and the field
    parameters, trap and packet are built once.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; known sections: {', '.join(_SECTIONS)}")

    # the sections left after [run], [field], [trap] and [packet] are kept as read
    sections = {name: _section(cp, name) for name in _SECTIONS
                if name != "trap" or cp.has_section("trap")}
    mode = Dimensionality(sections.pop("run").mode)
    field, trap, packet = sections.pop("field"), sections.pop("trap", None), sections.pop("packet")
    time, numerics, spectral = sections["time"], sections["numerics"], sections["spectral"]

    if sum(x is not None for x in (field.b, field.tesla, trap)) != 1:
        raise ConfigError(
            "exactly one of [field] b, [field] tesla or a [trap] section must be given"
        )
    if mode is Dimensionality.THREE_PLUS_ONE and packet.d_z is None:
        raise ConfigError("[packet] d_z is required in 3+1 mode")
    # the largest arrays a run allocates past the Numerics bounds: the padded
    # spectrum and, in 3+1, the (level pair x kz node) line tables, which
    # hold the ceil(kz_nodes / 2) nodes of the folded rule
    if time.samples * spectral.pad_factor > MAX_ARRAY:
        raise ConfigError(
            f"[time] samples = {time.samples} and [spectral] pad_factor = {spectral.pad_factor} "
            f"need a {time.samples * spectral.pad_factor}-point spectrum, above {MAX_ARRAY} elements"
        )
    folded = (numerics.kz_nodes + 1) // 2
    lines = numerics.n_max_cap * folded
    if mode is Dimensionality.THREE_PLUS_ONE and lines > MAX_ARRAY:
        raise ConfigError(
            f"[numerics] n_max_cap = {numerics.n_max_cap} and kz_nodes = {numerics.kz_nodes} "
            f"need {lines}-row line tables ({folded} folded kz nodes), above {MAX_ARRAY} elements"
        )

    section, source = ("trap", trap) if trap is not None else ("field", field)
    trap_config, params = _checked(section, source.build)
    return RunConfig(
        scenario=scenario,
        mode=mode,
        params=params,
        trap=trap_config,
        packet=_checked("packet", packet.packet, params.magnetic_length),
        raw_text=text,
        **sections,
    )


def preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown scenario {name!r}; available: {', '.join(PRESET_NAMES)}")
    return resources.files("zbsim.presets").joinpath(f"{name}.ini").read_text()


def load_preset(name: str) -> RunConfig:
    return parse_config(preset_text(name), scenario=name)


def load_config_file(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_config(text, scenario=p.stem)


class RunResult(Record):
    report_path: Path
    kappa: float
    n_max: int
    tail_mass: float
    richness: int
    oracle_deviation: float | None


def _csv_rows(fmt: str, *columns) -> str:
    """fmt % row for each row of the stacked columns; %.17g round-trips a float."""
    return "".join(fmt % tuple(row) for row in np.column_stack(columns).tolist())


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
    buf.write(_csv_rows(",".join(["%.17g"] * len(cols)) + "\n", *cols))
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
    rows = np.column_stack((report.freqs, report.power_x, report.power_y)).tolist()
    buf.write("".join("%.17g,%.17g,%.17g,%s\n" % (*row, lab) for row, lab in zip(rows, labels)))
    path.write_text(buf.getvalue())


def _write_decomposition_csv(out: Path, decomp: PacketDecomposition, config: RunConfig) -> None:
    buf = io.StringIO()
    buf.write(_csv_header(config, "transverse expansion coefficients F_n(kx)"))
    buf.write("n,kx,re,im\n")
    levels = decomp.n_max + 1
    n_kx = decomp.kx_nodes.size
    buf.write(_csv_rows("%d,%.17g,%.17g,0\n", np.repeat(np.arange(levels), n_kx),
                        np.tile(decomp.kx_nodes, levels), decomp.f_table().ravel()))
    (out / "decomposition_f.csv").write_text(buf.getvalue())

    buf = io.StringIO()
    buf.write(_csv_header(config, "overlap matrix U_mn"))
    buf.write("m,n,re,im\n")
    buf.write("".join("%d,%d,%.17g,0\n" % (m, n, u_overlap(decomp, m, n))
                      for m in range(levels) for n in range(levels)))
    (out / "decomposition_u.csv").write_text(buf.getvalue())


def run(
    config: RunConfig,
    out_dir: str | Path,
    check_oracle: bool = False,
    dump_decomposition: bool = False,
) -> RunResult:
    """Execute one configured run and write all artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params, t_grid = config.params, config.time_grid()
    if check_oracle:  # before decompose: imported after the trajectory, it raised the peak RSS
        from .reference import oracle_check

    decomp = decompose(config.packet, params, config.mode, config.numerics)
    traj = trajectory(decomp, t_grid)
    traj_out = traj.in_magnetic_length_units() if config.output.position_unit == "L" else traj

    opts = config.spectral
    report = spectrum(traj_out, window=opts.window, pad_factor=opts.pad_factor,
                      detection_floor=opts.detection_floor)
    report = classify_peaks(report, decomp)
    n_rich = richness(report, opts.significant_rel_power)

    check = None
    if check_oracle:
        n_trunc = config.oracle.n_trunc if config.oracle.n_trunc > 0 else None
        check = oracle_check(decomp, config.time.t_max, n_trunc)
        buf = io.StringIO()
        buf.write(_csv_header(config, "truncated-matrix eigenvalues at kx=kz=0"))
        buf.write("index,energy\n")
        energies = check.eigenvalues
        buf.write(_csv_rows("%d,%.17g\n", np.arange(energies.size), energies))
        (out / "eigenvalues.csv").write_text(buf.getvalue())

    _write_trajectory_csv(out / "trajectory.csv", traj_out, config)
    _write_spectrum_csv(out / "spectrum.csv", report, config)
    _write_svgs(out, traj_out, report, config)
    if dump_decomposition:
        _write_decomposition_csv(out, decomp, config)

    report_path = out / "report.txt"
    report_path.write_text(
        _render_report(config, decomp, traj_out, report, n_rich, check)
    )

    if check is not None and not check.bound <= config.oracle.tol_in_l:  # NaN fails
        raise OracleMismatchError(
            f"analytic vs reference deviation {check.bound:.3e} L exceeds "
            f"{config.oracle.tol_in_l:.1e} L; largest term: {check.worst}"
        )
    return RunResult(
        report_path=report_path,
        kappa=params.kappa,
        n_max=decomp.n_max,
        tail_mass=decomp.tail_mass,
        richness=n_rich,
        oracle_deviation=None if check is None else check.bound,
    )


def _write_svgs(out: Path, traj: Trajectory, report: SpectrumReport, config: RunConfig) -> None:
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
    for name, doc in (("trajectory_xt.svg", xt), ("trajectory_xy.svg", xy), ("spectrum.svg", spec)):
        (out / name).write_text(doc)


def _render_report(
    config: RunConfig,
    decomp: PacketDecomposition,
    traj: Trajectory,
    report: SpectrumReport,
    n_rich: int,
    check: OracleCheck | None,
) -> str:
    params, packet, trap = config.params, config.packet, config.trap
    omega_c, radius = cyclotron_reference(packet, params)
    kz_nodes = traj.provenance["kz_nodes"]
    if config.mode is Dimensionality.THREE_PLUS_ONE:
        kz_nodes = f"{kz_nodes} distinct |kz| of a {traj.provenance['kz_rule_nodes']}-node rule"
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
        f"  kx nodes = {decomp.kx_nodes.size}, kz nodes = {kz_nodes}",
        "",
        f"spectrum: {len(report.peaks)} peaks detected, "
        f"{n_rich} significant at {config.spectral.significant_rel_power:.0%} of max",
    ]
    top = max((p.power for p in report.peaks), default=0.0)
    for p in report.peaks[:15]:
        rel = p.power / top if top > 0 else 0.0
        lines.append(f"  freq = {p.freq:10.6g}  rel power = {rel:9.3e}  {p.label_text()}")
    if trap is not None:
        from .ionmap import excitation_plan, kappa_of

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
    if check is not None:
        lines += [
            "",
            f"reference check (n_trunc = {check.n_trunc}):",
            f"  max |analytic - matrix reference| = {check.bound:.3e} L "
            f"(line-table bound for 0 <= t <= {config.time.t_max:.6g}, tolerance {config.oracle.tol_in_l:.1e} L)",
            "  matched lines {:.3e} + {:.3e} L, unmatched (levels above n_max) {:.3e} + {:.3e} L "
            "(intraband + interband)".format(*check.matched, *check.truncated),
            f"  largest term: {check.worst}",
        ]
        if check.mirror_dev is not None:
            lines.append(f"  mirror kz node: line sums agree within {check.mirror_dev:.1e} of its largest amplitude")
    lines.append("")
    return "\n".join(lines)
