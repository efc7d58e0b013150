"""Batch command-line frontend.

Each subcommand parses one model description, runs one computation, and
prints a machine-readable record (json by default, csv on request).  Every
numeric field is either exact (a rational string) or a float with a stated
tolerance, which ``num_rounded`` sets for a double rounded once to nearest
from an exact value: half an ulp, or 2^-1074 where that is 0.0.  Output is
deterministic for fixed inputs and seed apart from the timestamp field.

``run`` is the one request pipeline: parse, fill unset options from ``--config``,
call the handler, wrap its inputs and results in the record envelope and emit it.  It
alone maps outcomes to exit statuses: 0 success; 2 a record with a ``reason``, or a
budget exit, printed as one ``error:`` line of its message; 1 an input error, that is a
usage error, a model's ``ValueError`` or a value past the doubles, refused by ``to_double``.
The handlers live one module per model, ``cli_torus`` and ``cli_origami``; a call imports
only its handler's module, which imports the model modules it uses.  ``main`` is the process
boundary: it freezes the heap; a closed stdout exits 1 and a closed stderr keeps the status.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from .kernel import EnumerationBudgetError, TraceNotClosed

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one ``error:`` line and exit 1.  A word that starts
    with - and a digit, or -. and a digit (-1/2, -1,2,3, -1+2i, -.5), is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# Parsers


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"cannot parse rational {text!r}") from e


def parse_level(text: str) -> Fraction:
    level = parse_rational(text)
    if not level > 0:
        raise InputError("levels must be positive")
    return level


# ---------------------------------------------------------------------------
# Output encoding


def to_double(v) -> float:
    """float(v), refusing a value past the doubles themselves as an input error."""
    try:
        return float(v)
    except OverflowError:
        raise InputError("a value is beyond the double range") from None


def num_exact(v) -> dict:
    return {"value": str(Fraction(v)), "float": to_double(v), "exact": True}


def num_float(v, tol) -> dict:
    return {"value": float(v), "exact": False, "tolerance": float(tol)}


def num_rounded(v) -> dict:  # rounded once to nearest: half an ulp, 2^-1074 where that is 0.0
    return num_float(v, max(math.ulp(v) / 2, math.ulp(0.0)))


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def utc_timestamp(ns: int) -> str:
    """ns since the epoch as datetime's UTC isoformat(), without datetime."""
    us = ns // 1000 % 10**6
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(ns // 10**9))
    return f"{text}.{us:06d}+00:00" if us else f"{text}+00:00"


def emit(record: dict, fmt: str) -> None:
    record = {**record, "timestamp": utc_timestamp(time.time_ns())}
    if fmt == "json":
        sys.stdout.write(json.dumps(record, indent=2, default=str, allow_nan=False) + "\n")
    else:  # "csv", the one other format _apply_config admits
        import csv
        rows = [("key", "value")]
        _flatten("", record, rows)
        csv.writer(sys.stdout).writerows(rows)


# ---------------------------------------------------------------------------
# Config file


def _config_value(key: str, text, kind):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"config {key} = {text!r} is not a valid {kind.__name__}") from None


def load_config(path: str) -> dict:
    import configparser
    cfg = configparser.ConfigParser(interpolation=None)  # a value is literal: % is no error
    try:
        read = cfg.read(path)
    except configparser.Error as e:  # no section header, a line without "=", a repeated key
        raise InputError(f"config file {path!r} is not INI: {e.message.splitlines()[0]}") from None
    if not read:
        raise InputError(f"cannot read config file {path!r}")
    out = {}
    if cfg.has_section("origami"):
        sec = cfg["origami"]
        out.update((key, sec[key]) for key in ("h", "v") if key in sec)
        if "n" in sec:
            out["n"] = _config_value("n", sec["n"], int)
    if cfg.has_section("job"):
        for key in ("tol", "cap", "seed", "format"):
            if key in cfg["job"]:
                out[key] = cfg["job"][key]
    return out


def _apply_config(args) -> None:
    """Fill the options the command line left unset from --config, then from
    the defaults, and check tol, cap and the format.  Flags always win over
    the file."""
    cfg = load_config(args.config) if args.config else {}
    for key, default, kind in (("tol", 1e-9, float), ("cap", 10**6, int), ("seed", 0, int)):
        if getattr(args, key) is None:
            setattr(args, key, _config_value(key, cfg.get(key, default), kind))
    args.format = args.format or cfg.get("format", "json")
    if "h" in vars(args):  # the origami options
        args.h, args.v = args.h or cfg.get("h"), args.v or cfg.get("v")
    args.n = cfg.get("n")
    if not 0 < args.tol < math.inf:  # strict JSON has no infinity to carry
        raise InputError(f"tolerance must be {'finite' if args.tol > 0 else 'positive'}")
    if args.cap < 1:
        raise InputError("enumeration cap must be at least 1")
    if args.format not in ("json", "csv"):  # a config value; before any file is written
        raise InputError(f"unknown output format {args.format!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (inputs, results), results with a "reason" when undecided


def _inputs(args, *names) -> dict:
    return {k: getattr(args, k) for k in names}


def _handler(module, name):
    """The function ``name`` of ``horoteich.<module>``, imported when a call runs it by
    ``__import__``, which ``-X importtime`` reports and ``importlib.import_module`` does not."""
    return lambda args: getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(args)


def cmd_relation(args):
    from . import horolab as H
    model = __import__(f"{__package__}.cli_{args.model}", fromlist=["relation_balls"])
    h1, h2, backend = model.relation_balls(args)
    rel = H.classify(h1, h2, backend)
    inputs = _inputs(args, "model", "curve1", "curve2", "f1", "f2", "level1", "level2")
    results = {"tag": rel.tag, "detail": {k: str(v) for k, v in rel.detail.items()}}
    if not rel.decided:
        results["reason"] = "undecided"
    return inputs, results


# ---------------------------------------------------------------------------
# Argument parsing


class _Commands(_Parser):
    """Top-level parser: building all 15 subparsers is most of a call's parse time, so it adds
    only the one its first argument names, or all for --help, no argument or an unknown name."""

    def parse_known_args(self, args=None, namespace=None):  # all of them for sys.argv
        _add_commands(self.commands, args[0] if args else None)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    ap = _Commands(prog="horoteich")
    ap.commands = ap.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    return ap


def _add_commands(sub, only=None) -> None:
    """Add to ``sub`` the subparser named ``only``, or all if it names none.  Each names
    its handler by module and function, imported when it runs, or passes the function."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"])
    common.add_argument("--config", help="INI file with [origami] and [job] sections")
    common.add_argument("--tol", type=float)
    common.add_argument("--cap", type=int)
    common.add_argument("--seed", type=int)
    origami = argparse.ArgumentParser(add_help=False)
    origami.add_argument("--h", help="1-based bracketed array, e.g. [2,1,3]")
    origami.add_argument("--v")
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--slope", default="0")
    trace.add_argument("--square", type=int, default=1)
    trace.add_argument("--offset", default="1/2")

    T, O = "cli_torus", "cli_origami"

    def command(name, module, fn, *parents, required=()):
        if name in sub.choices or only not in (None, name):
            return None
        p = sub.add_parser(name, parents=[*parents, common])
        p.set_defaults(fn=fn if module is None else _handler(module, fn))
        for option in required:
            p.add_argument(f"--{option}", required=True)
        return p

    if p := command("torus-ext", T, "cmd_torus_ext", required=("tau", "curve")):
        p.add_argument("--weight", default="1")
    command("torus-dist", T, "cmd_torus_dist", required=("tau1", "tau2"))
    command("tangency", T, "cmd_tangency", required=("curve1", "level1", "curve2", "level2"))

    if p := command("triple", T, "cmd_triple"):
        p.add_argument("--i", required=True, help="i_ab,i_ag,i_bg")

    if p := command("ratio-curve", T, "cmd_ratio_curve", required=("alpha", "beta", "target")):
        p.add_argument("--eps")
    command("busemann", T, "cmd_busemann", required=("tau0", "curve", "tau"))
    if p := command("ball-limit", T, "cmd_ball_limit", required=("tau0", "curve")):
        p.add_argument("--samples", type=int, default=20)

    command("origami-info", O, "cmd_origami_info", origami)

    if p := command("origami-flow", O, "cmd_origami_flow", origami):
        p.add_argument("--kind", required=True, choices=["geodesic", "horocycle"])
        p.add_argument("--param", required=True,
                       help="stretch factor (geodesic) or shear (horocycle); rational stays exact")
        p.add_argument("--time", action="store_true",
                       help="interpret a geodesic parameter as time t instead of stretch e^t")

    if p := command("origami-intersect", O, "cmd_origami_intersect", origami):
        for k, offset in (("1", "1/2"), ("2", "1/3")):
            p.add_argument(f"--slope{k}", required=True)
            p.add_argument(f"--square{k}", type=int, default=1)
            p.add_argument(f"--offset{k}", default=offset)

    if p := command("growth-check", O, "cmd_growth_check", origami, trace):
        p.add_argument("--s-values", dest="s_values", default="1,2,3,5,10,20")

    command("walsh-e", O, "cmd_walsh_e", origami, trace)

    if p := command("curve-graph", O, "cmd_curve_graph", origami):
        p.add_argument("--slopes", help="semicolon-separated extra slopes")

    if p := command("relation", None, cmd_relation, origami):  # balls from cli_<model>
        p.add_argument("--model", required=True, choices=["torus", "origami"])
        for option in ("curve1", "curve2", "f1", "f2", "level1", "level2"):
            p.add_argument(f"--{option}", required=option.startswith("level"))

    command("torus-plot", T, "cmd_torus_plot", required=("curve", "levels", "out"))
    if only is not None and only not in sub.choices:  # --help or an unknown name
        _add_commands(sub)


def run(argv) -> int:
    """Parse, merge --config, run the handler, emit its record; the exit status."""
    try:
        args = build_parser().parse_args(argv)
        _apply_config(args)
        inputs, results = args.fn(args)
        emit({"command": args.subcommand, "inputs": inputs, "results": results}, args.format)
        return EXIT_UNDECIDED if "reason" in results else EXIT_OK
    except ValueError as e:  # InputError, or an argument the model rejects
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (EnumerationBudgetError, TraceNotClosed) as e:  # its message names what it bounds
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNDECIDED


def main() -> None:
    """The process boundary (``run`` is the in-process call): gc.freeze(), then flush stdout."""
    sys.stdout = sys.stdout or open(os.pipe()[0], "w")  # fd 1 closed at start: writes fail (EBADF)
    sys.stdout.reconfigure(write_through=False)  # so that --help's write fails at the flush
    sys.stderr = sys.stderr or open(os.devnull, "w")  # fd 2 closed at start
    try:
        try:
            status = run(sys.argv[1:])
        finally:  # on --help's SystemExit too, which argparse raises before any flush
            gc.freeze()
            sys.stdout.flush()
    except OSError as e:  # stdout closed, or stderr as run() reported e.__context__
        budget = isinstance(e.__context__, (EnumerationBudgetError, TraceNotClosed))
        status = EXIT_UNDECIDED if budget else EXIT_INPUT
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        try:
            print("error: standard output is closed", file=sys.stderr)
        except OSError:  # stderr is closed: the stream that failed, or closed too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    sys.exit(status)


if __name__ == "__main__":  # python -m, or cProfile -m, whose __main__ is cProfile: a handler
    vars(sys.modules.setdefault(f"{__package__}.cli", type(sys)("cli"))).update(globals())
    main()  # module's "from .cli import" finds this run's names and compiles no second copy
