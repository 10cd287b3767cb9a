"""Command-line frontend.

Each subcommand takes only the flags it reads, and every one takes --out
and --config:

    decompose  --format, and --matrix or --x-diag --t [--theta | --seed]
               KAN factors of a matrix or of a crown-path point
    sweep      --n --seed --t-grid --haar --torus --format --x-diag
               sup-over-K component scales along a boundary path
    check      --suite --quad
               a named verification suite
    fit        --input --component --window
               power-law fit of a sweep table

Reproducibility contract: no environment variables, explicit flags only,
and floating point serialized with 17 significant digits so identical seeds
give byte-identical output.  A config file holds flat key = value lines
for the subcommand's own flags (t_grid = dyadic:8 for --t-grid dyadic:8).
Its lines are read as flags placed ahead of the command line's, so one
argparse pass checks both and the command line's flags win.  Exit codes: 0
success, 1 usage or configuration error, or stdout closed before the output
was written (``... | head``, no traceback), 2 mathematical domain failure
(and, for check, any failed verification).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import checks, config, growth, iwasawa, liegroup
from .errors import CrownLabError
from .numkernel import group_exp
from .prinseries import MIN_QUAD_POINTS

USAGE_ERROR = 1
DOMAIN_ERROR = 2

SWEEP_COLUMNS = ("t", "sup_kappa", "sup_alpha", "sup_eta", "samples_used", "exits")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError, and reads a subcommand's --config
    file as flags ahead of the command line's (``load_config_file``)."""

    def error(self, message):  # argparse's default exit code is 2; we want 1
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if "--config" in self._option_string_actions:  # a subcommand
            path = None
            for arg, value in zip(args, [*args[1:], None]):
                if arg == "--config":
                    path = value
                elif arg.startswith("--config="):
                    path = arg.partition("=")[2]
            if path is not None:
                args = [*load_config_file(path, self), *args]
        return super().parse_known_args(args, namespace)


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def emit_json(obj) -> str:
    """Deterministic strict JSON with 17-significant-digit floats.

    NaN and +-inf have no JSON spelling and become null; the one place
    they occur, a sweep sup of +inf after every sample left the domain,
    reads back as +inf in ``fit``.
    """
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt_float(x) if math.isfinite(x) else "null"
    if isinstance(obj, (complex, np.complexfloating)):
        return emit_json({"re": float(obj.real), "im": float(obj.imag)})
    if obj is None:
        return "null"
    return json.dumps(obj)


def load_config_file(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A config file's key = value lines as flags --key=value of ``parser``;
    a key the subcommand takes no flag for is a usage error at path:line."""
    flags = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                action = parser._option_string_actions.get(flag)
                if action is None or action.dest in ("help", "config"):
                    raise UsageError(
                        f"{path}:{lineno}: unknown config key {key!r} for {parser.prog}"
                    )
                flags.append(f"{flag}={value}")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return flags


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _t_grid(spec: str) -> list[float]:
    """argparse type: comma-separated t values, or dyadic:J for 1 - 2^-j, j = 1..J."""
    spec = spec.strip()
    if spec.startswith("dyadic:"):
        try:
            depth = int(spec.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad dyadic depth in t_grid {spec!r}")
        if not 1 <= depth <= 53:
            raise argparse.ArgumentTypeError(
                f"t_grid's dyadic depth must be 1..53, got {depth} (1 - 2^-54 rounds to 1)")
        return [1.0 - 2.0**-j for j in range(1, depth + 1)]
    try:
        vals = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse t_grid {spec!r}")
    if not vals:
        raise argparse.ArgumentTypeError("t_grid is empty")
    return vals


def _x_diag(text: str) -> liegroup.PElement:
    """argparse type: diagonal entries of a direction, made traceless and
    rescaled onto the crown boundary."""
    try:
        entries = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}")
    if len(entries) < 2 or not all(math.isfinite(v) for v in entries):
        raise argparse.ArgumentTypeError(f"needs at least two finite entries, got {text!r}")
    arr = np.array(entries)
    arr -= arr.mean()
    # zero relative to the largest entry, since the direction is rescaled
    if np.max(np.abs(arr)) <= config.TOLERANCES.symmetry * np.max(np.abs(entries)):
        raise argparse.ArgumentTypeError(f"{text!r} is zero after removing the trace")
    return liegroup.boundary_direction(liegroup.PElement(np.diag(arr)))


def _window(text: str) -> tuple[float, float]:
    """argparse type: a fit window 'lo,hi' with finite lo < hi."""
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'lo,hi', got {text!r}")
    # a NaN bound fails every comparison of the window filter
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"must be finite with lo < hi, got {text!r}")
    return lo, hi


def _write_output(text: str, out: str):
    text = text if text.endswith("\n") else text + "\n"
    if out in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _complex_matrix_json(m: np.ndarray) -> list:
    return [[complex(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _factors_payload(f: iwasawa.IwasawaFactors, reference: np.ndarray) -> dict:
    residual = float(
        np.linalg.norm(f.reconstruct() - reference) / max(1.0, np.linalg.norm(reference))
    )
    return {
        "t": f.t,
        "kappa": _complex_matrix_json(f.kappa),
        "H": [complex(v) for v in f.H],
        "alpha": [complex(v) for v in f.alpha],
        "eta": _complex_matrix_json(f.eta),
        "steps_used": f.steps_used,
        "min_minor_magnitude": f.min_minor_magnitude,
        "reconstruction_residual": residual,
    }


def _print_factors_text(payload: dict, out: str):
    lines = []
    for key in ("kappa", "eta"):
        lines.append(f"{key}:")
        for row in payload[key]:
            lines.append("  [" + ", ".join(_fmt_c(v) for v in row) + "]")
    lines.append("H: [" + ", ".join(_fmt_c(v) for v in payload["H"]) + "]")
    lines.append("alpha: [" + ", ".join(_fmt_c(v) for v in payload["alpha"]) + "]")
    lines.append(f"t: {fmt_float(payload['t'])}")
    lines.append(f"steps_used: {payload['steps_used']}")
    lines.append(f"min_minor_magnitude: {fmt_float(payload['min_minor_magnitude'])}")
    lines.append(f"reconstruction_residual: {fmt_float(payload['reconstruction_residual'])}")
    _write_output("\n".join(lines), out)


def _fmt_c(z: complex) -> str:
    return f"{fmt_float(z.real)}{'+' if z.imag >= 0 else '-'}{fmt_float(abs(z.imag))}j"


def cmd_decompose(args) -> int:
    if (args.matrix is None) == (args.x_diag is None):
        raise UsageError("decompose needs exactly one of --matrix or --x-diag")
    if args.matrix is not None:  # a flag it does not read would be ignored
        given = [flag for flag, value in (("--theta", args.theta), ("--t", args.t),
                                          ("--seed", args.seed)) if value is not None]
        if given:
            raise UsageError(f"--matrix takes no {', '.join(given)}")
        try:
            data = json.loads(args.matrix)
            g = np.array(data, dtype=float)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"--matrix: cannot parse as a real matrix: {exc}")
        factors = iwasawa.decompose_real(g)
        payload = _factors_payload(factors, g.astype(complex))
    else:
        x, t = args.x_diag, 0.5 if args.t is None else args.t
        if args.theta is not None:
            if args.seed is not None:
                raise UsageError("--seed draws the Haar k, which --theta replaces")
            if x.n != 2:
                raise UsageError("--theta only makes sense for n = 2")
            k = liegroup.givens(2, 0, 1, args.theta)
        else:
            k = liegroup.haar_so(x.n, [0 if args.seed is None else args.seed, 0])
        factors = iwasawa.decompose_path(x, k, t)
        payload = _factors_payload(factors, group_exp(x.matrix, -1j * t) @ k)
    if args.format == "json":
        _write_output(emit_json(payload), args.out)
    else:
        _print_factors_text(payload, args.out)
    return 0


def sweep_table(samples: list[growth.GrowthSample], fmt: str) -> str:
    rows = [[getattr(s, col) for col in SWEEP_COLUMNS] for s in samples]
    if fmt == "json":
        return emit_json([dict(zip(SWEEP_COLUMNS, row)) for row in rows])
    cells = [[fmt_float(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "\n".join(",".join(row) for row in [SWEEP_COLUMNS, *cells])


def cmd_sweep(args) -> int:
    x = args.x_diag
    if x is None:
        base = np.linspace(1.0, -1.0, args.n)
        base -= base.mean()
        x = liegroup.boundary_direction(liegroup.PElement(np.diag(base)))
    elif x.n != args.n:
        raise UsageError(f"--x-diag has {x.n} entries, expected n={args.n}")
    haar = args.haar if args.haar is not None else (512 if args.n <= 3 else 128)
    if args.n >= 4 and args.torus:  # no torus grid exists there
        raise UsageError(f"--torus applies only to n = 2 and 3, not n = {args.n}")
    torus = args.torus if args.torus is not None else growth.TORUS_GRID.get(args.n, 0)
    samples = growth.sweep_components(
        x, args.t_grid, n_haar=haar, torus_grid=torus, seed=args.seed
    )
    _write_output(sweep_table(samples, args.format), args.out)
    return 0


def cmd_check(args) -> int:
    # only the prinseries tables read --quad; elsewhere it would be ignored
    if args.quad is not None and args.suite != "prinseries":
        raise UsageError(f"--quad applies only to --suite prinseries, not {args.suite!r}")
    try:
        results = checks.run_suite(args.suite)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    payload = {
        "suite": args.suite,
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
        "checks": [r.as_dict() for r in results],
    }
    if args.suite == "prinseries":
        payload["tables"] = checks.prinseries_tables(1024 if args.quad is None else args.quad)
    _write_output(emit_json(payload), args.out)
    return 0 if payload["failed"] == 0 else DOMAIN_ERROR


def _json_cell(key: str, value):
    if key.startswith("sup_"):
        return math.inf if value is None else float(value)
    return float(value) if key == "t" else value


def _read_table(path: str) -> list[dict]:
    if path in ("-", ""):
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    text = text.strip()
    if not text:
        raise ValueError("empty input table")
    if text.startswith("[") or text.startswith("{"):
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError("JSON table must be a list of row objects")
        # the t and sup cells are numbers, as in a CSV table; emit_json
        # writes a +inf sup (every sample left the domain) as null
        return [{k: _json_cell(k, v) for k, v in row.items()} for row in rows]
    lines = text.splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        vals = line.split(",")
        if len(vals) != len(header):
            raise ValueError(f"row has {len(vals)} fields, header has {len(header)}")
        rows.append({key: float(v) for key, v in zip(header, vals)})
    return rows


def cmd_fit(args) -> int:
    # a table that cannot be read is a usage error; only the fit's own
    # failures (too few points, t >= 1) are domain failures
    try:
        rows = _read_table(args.input)
        ts = [row["t"] for row in rows]
        vals = [row[f"sup_{args.component}"] for row in rows]
    except KeyError as exc:
        raise UsageError(f"input table has no column {exc}") from None
    except (ValueError, TypeError, OSError) as exc:
        raise UsageError(f"cannot read input table: {exc}") from None
    try:
        fit = growth.fit_power_law(ts, vals, args.window)
    except ValueError as exc:
        sys.stderr.write(f"fit failed: {exc}\n")
        return DOMAIN_ERROR
    payload = {
        "component": args.component,
        "n_hat": fit.n_hat,
        "log_c_hat": fit.log_c_hat,
        "r_squared": fit.r_squared,
        "t_window": list(fit.t_window),
    }
    _write_output(emit_json(payload), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="crownlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_):
        # no abbreviations: the --config scan sees the flag spelled out
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--out", default="-", help="output path, - for stdout")
        p.add_argument("--config", default=None,
                       help="flat key = value file of this command's flags; flags override it")
        p.set_defaults(func=func)
        return p

    def x_diag(p):
        p.add_argument("--x-diag", dest="x_diag", type=_x_diag, default=None,
                       help="diagonal direction entries, normalized onto the crown boundary")

    p_dec = command("decompose", cmd_decompose, "KAN factors of a matrix or crown-path point")
    p_dec.add_argument("--seed", type=int, default=None,
                       help="64-bit seed of the Haar k (default 0)")
    p_dec.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="json, or csv for text lines")
    p_dec.add_argument("--matrix", default=None, help="real SL(n,R) matrix as JSON rows")
    x_diag(p_dec)
    p_dec.add_argument("--theta", type=float, default=None, help="SO(2) rotation angle")
    p_dec.add_argument("--t", type=float, default=None,
                       help="path time t >= 0 (default 0.5); past t = 1 it leaves the crown")

    p_sweep = command("sweep", cmd_sweep, "sup-over-K component scales along a boundary path")
    p_sweep.add_argument("--n", type=_int_at_least(2), default=2, help="matrix size n")
    p_sweep.add_argument("--seed", type=int, default=0, help="64-bit reproducibility seed")
    p_sweep.add_argument("--t-grid", dest="t_grid", type=_t_grid, default="dyadic:12",
                         help="comma-separated t values or dyadic:J for 1 - 2^-j, j = 1..J")
    p_sweep.add_argument("--haar", type=_int_at_least(0), default=None,
                         help="Haar samples per t (default 512, or 128 for n >= 4)")
    p_sweep.add_argument("--torus", type=_int_at_least(0), default=None,
                         help="torus grid points per angle (default 64 for n = 2, 8 for n = 3; "
                              "no torus for n >= 4)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    x_diag(p_sweep)

    p_check = command("check", cmd_check, "run a named verification suite")
    p_check.add_argument("--suite", required=True, help="identities, bounds or prinseries")
    p_check.add_argument("--quad", type=_int_at_least(MIN_QUAD_POINTS), default=None,
                         help="least quadrature node count of the prinseries tables (default 1024)")

    p_fit = command("fit", cmd_fit, "power-law fit of a sweep table")
    p_fit.add_argument("--input", default="-", help="table path (CSV or JSON), - for stdin")
    p_fit.add_argument("--component", required=True, choices=("kappa", "alpha", "eta"))
    p_fit.add_argument("--window", type=_window, default=None, help="fit window as 'lo,hi'")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' recipe: stdout to devnull, so the exit-time flush
        # cannot raise again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except CrownLabError as exc:
        sys.stderr.write(f"{exc}\n")
        return DOMAIN_ERROR
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
