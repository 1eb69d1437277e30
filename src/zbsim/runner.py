"""Run configuration, scenario presets and batch orchestration.

Configs are INI files (key/value with sections); see docs/config.md for the
schema and the shipped presets for examples.  A run produces, inside the
output directory:

    trajectory.csv   t, x, y, x_interband, y_interband, x_intraband, y_intraband
    spectrum.csv     freq, power_x, power_y, label: the one fixed analysis of
                     spectral (Hann window, PAD_FACTOR zero padding)
    trajectory_xt.svg, trajectory_xy.svg, spectrum.svg
    report.txt       parameters, kappa, truncation, peaks, plan, oracle summary
    decomposition_f.csv / decomposition_u.csv        (on request)
    eigenvalues.csv  (with the oracle check) the spectrum of the oracle's own
                     matrix at kz = 0, at its truncation n_max + 12

Every file carries the artifact version and a hash of the configuration
text, and identical configurations produce byte-identical CSV output at a
fixed BLAS thread count (the line sums are BLAS products, whose summation
order can change with the number of threads).
"""

from __future__ import annotations

import configparser
import math
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from ._record import Record, fields
from .dynamics import Trajectory, cyclotron_reference, trajectory
from .errors import ConfigError, OracleMismatchError
from .packet import (KZ_CUTOFF_SIGMAS, MAX_ARRAY, GaussianPacket, Numerics, PacketDecomposition, decompose,
                     u_overlap)
from .params import Dimensionality, SimParams, make_params
from .spectral import (DETECTION_FLOOR, MIN_SAMPLES, PAD_FACTOR, SIGNIFICANT_REL_POWER, SpectrumReport,
                       classify_peaks, richness, spectrum)
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
# truncation under the level bound covers a transverse width or kick near them
PACKET_RANGE_L = (1e-6, 1e6)
# the time horizon in t_c: its step stays a normal float up to 2^22 samples,
# and every phase the engines form over it stays finite
TIME_RANGE = (1e-100, 1e100)
# the oracle check's gate: the largest line-table distance between the
# analytic engine and the oracle, in magnetic lengths
TOL_IN_L = 1e-6


class RunOptions(Record):
    mode: str = "2+1"

    def __post_init__(self) -> None:
        if self.mode not in ("2+1", "3+1"):
            raise ValueError(f"mode must be '2+1' or '3+1', got {self.mode!r}")


class FieldOptions(Record):
    b: float | None = None
    tesla: float | None = None

    def build(self) -> SimParams:
        """The field parameters."""
        key, make = ("b", SimParams) if self.b is not None else ("tesla", make_params)
        try:
            return make(getattr(self, key))
        except ValueError as exc:
            raise ValueError(f"{key} = {getattr(self, key)!r}: {exc}") from exc


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
        lo, hi = TIME_RANGE
        if not lo <= self.t_max <= hi:
            raise ValueError(f"t_max = {self.t_max!r} must be within [{lo:g}, {hi:g}] t_c")


class OutputOptions(Record):
    position_unit: str = "lambda_c"

    def __post_init__(self) -> None:
        if self.position_unit not in ("lambda_c", "L"):
            raise ValueError(f"position_unit must be lambda_c or L, got {self.position_unit!r}")


# the schema: every section of a config, in order, and its record, whose
# fields are the section's keys and whose __post_init__ holds the checks
# within the section.  The [trap] record is ionmap.TrapConfig, imported only
# for a config with that section.
_SECTIONS = dict(run=RunOptions, field=FieldOptions, trap=None, packet=PacketOptions,
                 time=TimeOptions, numerics=Numerics, output=OutputOptions)
# the keys of the longitudinal profile and its kz rule, which a 2+1 run has no use for
_ONLY_3PLUS1 = (("packet", "d_z"), ("numerics", "kz_nodes"), ("numerics", "kz_rule"))


class RunConfig(Record):
    """A validated run: its sections, the field parameters and packet built
    from them, and the raw text they were parsed from."""

    scenario: str
    mode: Dimensionality
    params: SimParams
    trap: TrapConfig | None
    packet: GaussianPacket  # in Compton wavelengths
    time: TimeOptions
    numerics: Numerics
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
    that is not a field of the record is an error."""
    options = _SECTIONS[section]
    if options is None:
        from .ionmap import TrapConfig as options
    for key in cp[section] if cp.has_section(section) else ():
        if key not in fields(options):
            raise ConfigError(
                f"[{section}] unknown key {key!r}; known keys: {', '.join(fields(options))}"
            )
    defaults = {name: getattr(options, name) for name in fields(options)}
    values = {name: _get(cp, section, name, float if default is None else type(default))
              for name, default in defaults.items() if cp.has_option(section, name)}
    return _checked(section, options, **values)


def _parse_error(exc: configparser.Error, text: str) -> str:
    """One line for an error of configparser's reader on text: line number, line and cause."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        lineno, cause = exc.lineno, "comes before the first [section] header"
    elif isinstance(exc, configparser.ParsingError):
        lineno, cause = exc.errors[0][0], "is neither a [section] header nor a 'key = value' line"
    else:  # a DuplicateOptionError names its option, a DuplicateSectionError none
        lineno, cause = exc.lineno, "repeats a key of its section" if hasattr(exc, "option") else "repeats a section"
    line = text.split("\n")[lineno - 1].strip()  # read_string splits at "\n" alone
    return f"line {lineno}: {line!r} {cause}"


def parse_config(text: str, scenario: str = "inline") -> RunConfig:
    """Parse and validate an INI configuration; raises ConfigError on problems.

    Each section is read into its options record, which checks its own
    values; the rules that span sections are checked here, and the field
    parameters and packet are built once.
    """
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark, so it changes no hash
    # values are literal and follow '=' alone; no header names the empty
    # default section, so [DEFAULT] is an unknown section like any other
    cp = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=(";", "#"),
                                   interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {_parse_error(exc, text)}") from exc
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; known sections: {', '.join(_SECTIONS)}")

    # the sections left after [run], [field], [trap] and [packet] are kept as read
    sections = {name: _section(cp, name) for name in _SECTIONS
                if name != "trap" or cp.has_section("trap")}
    mode = Dimensionality(sections.pop("run").mode)
    field, trap, packet = sections.pop("field"), sections.pop("trap", None), sections.pop("packet")
    time = sections["time"]

    if sum(x is not None for x in (field.b, field.tesla, trap)) != 1:
        raise ConfigError(
            "exactly one of [field] b, [field] tesla or a [trap] section must be given"
        )
    if mode is Dimensionality.THREE_PLUS_ONE and packet.d_z is None:
        raise ConfigError("[packet] d_z is required in 3+1 mode")
    if mode is Dimensionality.TWO_PLUS_ONE:
        for section, key in _ONLY_3PLUS1:
            if cp.has_option(section, key):
                raise ConfigError(f"[{section}] {key} is read only in 3+1 mode; this config is 2+1")
    # the largest array a run allocates past the Numerics bound: the padded
    # spectrum (decompose bounds the levels, and with them the line tables)
    if time.samples * PAD_FACTOR > MAX_ARRAY:
        raise ConfigError(
            f"[time] samples = {time.samples} needs a {time.samples * PAD_FACTOR}-point spectrum "
            f"({PAD_FACTOR}x padded), above {MAX_ARRAY} elements"
        )

    if trap is None:
        params = _checked("field", field.build)
    else:
        from .ionmap import trap_to_dirac

        params = _checked("trap", trap_to_dirac, trap)
    return RunConfig(
        scenario=scenario,
        mode=mode,
        params=params,
        trap=trap,
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


def _write_csv(path: Path, config: RunConfig, note: str, names: str, fmt: str, *columns) -> None:
    """A CSV table in one write: four '#' header lines, the column names, and
    fmt (the format of one row) over every row of the columns through one %
    on the whole table; %.17g round-trips a float."""
    cells = tuple(cell for row in zip(*(np.asarray(col).tolist() for col in columns)) for cell in row)
    path.write_text(
        f"# zbsim {__version__}\n# config-sha256: {config.config_hash()}\n"
        f"# scenario: {config.scenario}; mode: {config.mode.value}\n# {note}\n{names}\n"
        + (f"{fmt}\n" * len(columns[0])) % cells
    )


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

    report = classify_peaks(spectrum(traj_out), decomp)
    n_rich = richness(report)

    check = None
    if check_oracle:
        check = oracle_check(decomp, config.time.t_max)
        _write_csv(out / "eigenvalues.csv", config, "truncated-matrix eigenvalues at kx=kz=0",
                   "index,energy", "%d,%.17g", np.arange(check.eigenvalues.size), check.eigenvalues)

    _write_csv(out / "trajectory.csv", config,
               f"position-unit: {traj_out.position_unit}; time-unit: t_c",
               "t,x,y,x_interband,y_interband,x_intraband,y_intraband", ",".join(["%.17g"] * 7),
               traj_out.times, traj_out.x, traj_out.y, traj_out.x_interband, traj_out.y_interband,
               traj_out.x_intraband, traj_out.y_intraband)
    labels = [""] * report.freqs.size  # each peak's label on its own bin
    df = report.freqs[1] - report.freqs[0] if report.freqs.size > 1 else 1.0
    for peak in report.peaks:
        k = int(round(peak.freq / df))
        if 0 <= k < len(labels):
            labels[k] = peak.label_text()
    _write_csv(out / "spectrum.csv", config, "frequency-unit: rad/t_c", "freq,power_x,power_y,label",
               "%.17g,%.17g,%.17g,%s", report.freqs, report.power_x, report.power_y, labels)
    _write_svgs(out, traj_out, report, config)
    if dump_decomposition:
        levels, n_kx = decomp.n_max + 1, decomp.kx_nodes.size
        _write_csv(out / "decomposition_f.csv", config, "transverse expansion coefficients F_n(kx)",
                   "n,kx,re,im", "%d,%.17g,%.17g,0", np.repeat(np.arange(levels), n_kx),
                   np.tile(decomp.kx_nodes, levels), decomp.f_table().ravel())
        _write_csv(out / "decomposition_u.csv", config, "overlap matrix U_mn", "m,n,re,im",
                   "%d,%d,%.17g,0", np.repeat(np.arange(levels), levels), np.tile(np.arange(levels), levels),
                   [u_overlap(decomp, m, n) for m in range(levels) for n in range(levels)])

    report_path = out / "report.txt"
    report_path.write_text(_render_report(config, decomp, report, n_rich, check))

    if check is not None and not check.bound <= TOL_IN_L:  # NaN fails
        raise OracleMismatchError(
            f"analytic vs reference deviation {check.bound:.3e} L exceeds "
            f"{TOL_IN_L:.1e} L; largest term: {check.worst}"
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
    report: SpectrumReport,
    n_rich: int,
    check: OracleCheck | None,
) -> str:
    params, packet, trap = config.params, config.packet, config.trap
    omega_c, radius = cyclotron_reference(packet, params)
    kz_nodes = decomp.kz_nodes.size
    if config.mode is Dimensionality.THREE_PLUS_ONE:
        num, lost = decomp.numerics, 1.0 - math.fsum(decomp.kz_weights)
        interval = f" on +-{KZ_CUTOFF_SIGMAS:g} widths of |g_z|^2" if num.kz_rule == "legendre" else ""
        kz_nodes = (f"{kz_nodes} distinct |kz| of a {num.kz_nodes}-node rule ({num.kz_rule}{interval}, "
                    f"weights sum to 1 {'-' if lost >= 0.0 else '+'} {abs(lost):.3e})")
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
        f"spectrum: Hann window, {PAD_FACTOR}x zero padding, {len(report.peaks)} peaks detected "
        f"above {DETECTION_FLOOR:.1%} of max, {n_rich} significant at {SIGNIFICANT_REL_POWER:.0%} of max",
    ]
    top = max((p.power for p in report.peaks), default=0.0)
    for p in report.peaks[:15]:
        rel = p.power / top if top > 0 else 0.0
        lines.append(f"  freq = {p.freq:10.6g}  rel power = {rel:9.3e}  {p.label_text()}")
    if trap is not None:
        from .ionmap import excitation_plan

        lines += [  # Omega/2pi, Omega_tilde/2pi and nu/2pi from the SI values the mapping uses
            "",
            "trap mapping:",
            f"  eta = {trap.eta}, Omega/2pi = {trap.omega_carrier / (2 * math.pi):.6g} Hz, "
            f"Omega_tilde/2pi = {trap.omega_tilde / (2 * math.pi):.6g} Hz",
            f"  Delta = {trap.delta:.6g} m, nu/2pi = {trap.trap_freq / (2 * math.pi):.6g} Hz, "
            f"M = {trap.ion_mass:.6g} kg",
            f"  kappa from trap = {params.kappa:.6g}",
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
            f"(line-table bound for 0 <= t <= {config.time.t_max:.6g}, tolerance {TOL_IN_L:.1e} L)",
            "  matched lines {:.3e} + {:.3e} L, unmatched (levels above n_max) {:.3e} + {:.3e} L "
            "(intraband + interband)".format(*check.matched, *check.truncated),
            f"  largest term: {check.worst}",
        ]
        if check.mirror_dev is not None:
            lines.append(f"  mirror kz node: line sums agree within {check.mirror_dev:.1e} of its largest amplitude")
    lines.append("")
    return "\n".join(lines)
