"""Command-line frontend.

Subcommands: decompose (KAN factors of a matrix or of a crown-path point),
sweep (sup-over-K component scales along a boundary path), check (named
verification suites), fit (power-law fit of a sweep table).

Reproducibility contract: no environment variables, explicit flags only, a
flat key = value config file that flags override, and floating point
serialized with 17 significant digits so identical seeds give byte-identical
output.  Exit codes: 0 success, 1 usage or configuration error, 2
mathematical domain failure (and, for check, any failed verification).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import checks, growth, iwasawa, liegroup
from .errors import CrownLabError
from .numkernel import group_exp
from .prinseries import MIN_QUAD_POINTS

USAGE_ERROR = 1
DOMAIN_ERROR = 2

SWEEP_COLUMNS = ("t", "sup_kappa", "sup_alpha", "sup_eta", "samples_used", "exits")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code is 2; we want 1
        raise UsageError(message)


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


@dataclass
class RunConfig:
    n: int = 2
    seed: int = 0
    t_grid: str = "dyadic:12"
    haar: int = 512  # build_config lowers it to 128 for n > 3 unless set
    torus: int = 64
    quad: int = 1024
    format: str = "csv"
    out: str = "-"

    def validate(self):
        if self.n < 2:
            raise UsageError(f"config field 'n' must be >= 2, got {self.n}")
        if self.haar < 0:
            raise UsageError(f"config field 'haar' must be >= 0, got {self.haar}")
        if self.torus < 0:
            raise UsageError(f"config field 'torus' must be >= 0, got {self.torus}")
        if self.quad < MIN_QUAD_POINTS:
            raise UsageError(
                f"config field 'quad' must be >= {MIN_QUAD_POINTS}, got {self.quad}"
            )
        if self.format not in ("csv", "json"):
            raise UsageError(f"config field 'format' must be csv or json, got {self.format!r}")
        self.parse_t_grid()

    def parse_t_grid(self) -> list[float]:
        spec = self.t_grid.strip()
        if spec.startswith("dyadic:"):
            try:
                depth = int(spec.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"config field 't_grid': bad dyadic depth in {spec!r}")
            if depth < 1:
                raise UsageError("config field 't_grid': dyadic depth must be >= 1")
            return [1.0 - 2.0**-j for j in range(1, depth + 1)]
        try:
            vals = [float(v) for v in spec.split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"config field 't_grid': cannot parse {spec!r}")
        if not vals:
            raise UsageError("config field 't_grid' is empty")
        return vals


def load_config_file(path: str) -> dict:
    known = {f.name for f in fields(RunConfig)}
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                out[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return out


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = load_config_file(args.config) if args.config else {}
    for key, value in file_values.items():
        current = getattr(cfg, key)
        setattr(cfg, key, type(current)(value) if not isinstance(current, str) else value)
    for key in ("n", "seed", "t_grid", "haar", "torus", "quad", "format", "out"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    try:
        cfg.n = int(cfg.n)
        cfg.seed = int(cfg.seed)
        cfg.haar = int(cfg.haar)
        cfg.torus = int(cfg.torus)
        cfg.quad = int(cfg.quad)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad integer config value: {exc}")
    if getattr(args, "haar", None) is None and "haar" not in file_values:
        cfg.haar = 512 if cfg.n <= 3 else 128
    cfg.validate()
    return cfg


def _write_output(text: str, out: str):
    if out in ("-", ""):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _complex_matrix_json(m: np.ndarray) -> list:
    return [[complex(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _parse_x_diag(text: str, n: int | None = None) -> liegroup.PElement:
    try:
        entries = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--x-diag: cannot parse {text!r}")
    if len(entries) < 2:
        raise UsageError("--x-diag needs at least two entries")
    if n is not None and len(entries) != n:
        raise UsageError(f"--x-diag has {len(entries)} entries, expected n={n}")
    arr = np.array(entries)
    arr -= arr.mean()
    if np.allclose(arr, 0.0):
        raise UsageError("--x-diag is zero after removing the trace")
    return liegroup.boundary_direction(liegroup.PElement(np.diag(arr)))


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
    cfg = build_config(args)
    if (args.matrix is None) == (args.x_diag is None):
        raise UsageError("decompose needs exactly one of --matrix or --x-diag")
    if args.matrix is not None:
        try:
            data = json.loads(args.matrix)
            g = np.array(data, dtype=float)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"--matrix: cannot parse as a real matrix: {exc}")
        factors = iwasawa.decompose_real(g)
        payload = _factors_payload(factors, g.astype(complex))
    else:
        x = _parse_x_diag(args.x_diag)
        t = args.t if args.t is not None else 0.5
        if args.theta is not None:
            if x.n != 2:
                raise UsageError("--theta only makes sense for n = 2")
            k = liegroup.givens(2, 0, 1, args.theta)
        else:
            k = liegroup.haar_so(x.n, [cfg.seed, 0])
        factors = iwasawa.decompose_path(x, k, t)
        payload = _factors_payload(factors, group_exp(x.matrix, -1j * t) @ k)
    if cfg.format == "json":
        _write_output(emit_json(payload), cfg.out)
    else:
        _print_factors_text(payload, cfg.out)
    return 0


def sweep_table(samples: list[growth.GrowthSample], fmt: str) -> str:
    rows = [[getattr(s, col) for col in SWEEP_COLUMNS] for s in samples]
    if fmt == "json":
        return emit_json([dict(zip(SWEEP_COLUMNS, row)) for row in rows])
    cells = [[fmt_float(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    return "\n".join(",".join(row) for row in [SWEEP_COLUMNS, *cells])


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    t_grid = cfg.parse_t_grid()
    if args.x_diag is not None:
        x = _parse_x_diag(args.x_diag, cfg.n)
    else:
        base = np.linspace(1.0, -1.0, cfg.n)
        base -= base.mean()
        x = liegroup.boundary_direction(liegroup.PElement(np.diag(base)))
    samples = growth.sweep_components(
        x, t_grid, n_haar=cfg.haar, torus_grid=cfg.torus, seed=cfg.seed
    )
    _write_output(sweep_table(samples, cfg.format), cfg.out)
    return 0


def cmd_check(args) -> int:
    cfg = build_config(args)
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
        payload["tables"] = checks.prinseries_tables(cfg.quad)
    _write_output(emit_json(payload), cfg.out)
    return 0 if payload["failed"] == 0 else DOMAIN_ERROR


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
        # emit_json writes a +inf sup (every sample left the domain) as null
        return [
            {k: math.inf if v is None and k.startswith("sup_") else v for k, v in row.items()}
            for row in rows
        ]
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
    cfg = build_config(args)
    if args.component not in ("kappa", "alpha", "eta"):
        raise UsageError(f"--component must be kappa, alpha or eta, got {args.component!r}")
    window = None
    if args.window:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise UsageError("--window must be 'lo,hi'")
        window = (float(parts[0]), float(parts[1]))
        # a NaN bound fails every comparison of the window filter
        if not (math.isfinite(window[0]) and math.isfinite(window[1]) and window[0] < window[1]):
            raise UsageError(f"--window must be finite with lo < hi, got {args.window!r}")
    try:
        rows = _read_table(args.input)
        ts = [row["t"] for row in rows]
        vals = [row[f"sup_{args.component}"] for row in rows]
        fit = growth.fit_power_law(ts, vals, window)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"fit failed: {exc}\n")
        return DOMAIN_ERROR
    payload = {
        "component": args.component,
        "n_hat": fit.n_hat,
        "log_c_hat": fit.log_c_hat,
        "r_squared": fit.r_squared,
        "t_window": list(fit.t_window),
    }
    _write_output(emit_json(payload), cfg.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="crownlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, default=None, help="matrix size n")
        p.add_argument("--seed", type=int, default=None, help="64-bit reproducibility seed")
        p.add_argument("--t-grid", dest="t_grid", default=None,
                       help="comma-separated t values or dyadic:J for 1 - 2^-j, j = 1..J")
        p.add_argument("--haar", type=int, default=None,
                       help="Haar samples per t (default 512, or 128 for n >= 4)")
        p.add_argument("--torus", type=int, default=None, help="torus grid points per angle")
        p.add_argument("--quad", type=int, default=None, help="quadrature points")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path, - for stdout")
        p.add_argument("--config", default=None, help="flat key = value config file")

    p_dec = sub.add_parser("decompose", help="KAN factors of a matrix or crown-path point")
    add_common(p_dec)
    p_dec.add_argument("--matrix", default=None, help="real SL(n,R) matrix as JSON rows")
    p_dec.add_argument("--x-diag", dest="x_diag", default=None,
                       help="diagonal direction entries, normalized onto the crown boundary")
    p_dec.add_argument("--theta", type=float, default=None, help="SO(2) rotation angle")
    p_dec.add_argument("--t", type=float, default=None, help="path parameter in [0, 1]")
    p_dec.set_defaults(func=cmd_decompose)

    p_sweep = sub.add_parser("sweep", help="sup-over-K component scales along a boundary path")
    add_common(p_sweep)
    p_sweep.add_argument("--x-diag", dest="x_diag", default=None,
                         help="diagonal direction entries, normalized onto the crown boundary")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run a named verification suite")
    add_common(p_check)
    p_check.add_argument("--suite", required=True, help="identities, bounds or prinseries")
    p_check.set_defaults(func=cmd_check)

    p_fit = sub.add_parser("fit", help="power-law fit of a sweep table")
    add_common(p_fit)
    p_fit.add_argument("--input", default="-", help="table path (CSV or JSON), - for stdin")
    p_fit.add_argument("--component", required=True, help="kappa, alpha or eta")
    p_fit.add_argument("--window", default=None, help="fit window as 'lo,hi'")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
