"""Command-line front end: region sweeps, simulations, derivations, entropies.

Subcommands: region, skp, simulate, resources, entropy, replay. Every
output file is accompanied by a <output>.manifest.json recording the
subcommand, the fully resolved options (defaults materialized), the seed,
the tool version, the machine (`_machine`) and the SHA-256 digests of the
input files it read; its relative paths are relative to its own directory,
so it moves with its files. `replay` refuses a manifest whose inputs are
missing or changed (exit 2, naming the path, nothing written), then re-runs
its stored options as they are and reproduces the outputs byte for byte;
each recorded machine field that differs here, and a differing tool
version, is named on stderr.

--zoo, --channel-json and --cq-table exclude each other; --p and --dim go
with --zoo. Exit codes: 0 success, 2 input error (a malformed or missing
file, flag or field), 3 budget error (enumeration or decoder limits); a bug
ends in a traceback.

Tabular output is RFC-4180 CSV with '.' decimals and no locale; structured
output is JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .channels import cq_embedding_channel, isometric_extension, zoo
from .errors import BudgetError, CapacityError, PubPrivError, ValidationError
from .region import OptimizerConfig, PARETO_CSV_COLUMNS, pareto_csv_rows, pareto_surface
from .resources import DERIVATIONS
from .serialize import channel_from_json, ensemble_from_json, float_array, json_field
from .entropics import (
    build_cq_state,
    cond_mutual_info_YB_given_X,
    cond_mutual_info_YE_given_X,
    mutual_info_XB,
    mutual_info_XE,
    mutual_info_XYB,
    mutual_info_XYE,
)
from . import wiretap as wt

#: JSON value types accepted for a field of each Python type (bool is checked apart).
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}
#: Options that name files; the manifest stores them, like its input_digests keys, by _rebase.
_PATH_OPTIONS = ("config", "channel_json", "cq_table", "ensemble", "out")
#: Top-level keys of an experiment spec.
_SPEC_KEYS = ("channel", "input_p", "input_law", "code", "sweep", "security")
#: Each derivation's flags, in the order of its arguments; all but --optimal-key are required.
_DERIVATION_FLAGS = {"section3": ("--ib", "--ie"), "ds03": ("--a", "--b", "--c"),
                     "otp_combination": ("--a", "--b", "--c", "--optimal-key")}


def _rebase(path, start: str, to: str):
    """A relative file path read from directory ``start``, as read from directory ``to`` ('' is the working
    directory); None and absolute paths stay as they are."""
    if path is None or os.path.isabs(path):
        return path
    return os.path.relpath(os.path.join(start, path), to or os.curdir)


def _read_json(path: str, digests: dict):
    """Decoded JSON of an input file; its SHA-256 goes into `digests` for the manifest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digests[path] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{path} is not UTF-8 JSON: {exc}") from None


def _typed(value, type_name: str, what: str):
    """A decoded JSON value checked against a field's type; an int stands for a float."""
    kinds = _JSON_TYPES[type_name]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValidationError(f"{what} must be {type_name}, got {value!r}")
    return float(value) if type_name == "float" else value


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path: str | None, doc: dict, sort_keys: bool = False):
    """Indented JSON to `path`, or to stdout when no path is given."""
    text = json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _machine() -> dict:
    """What can move a run's last bits from one machine to the next: the Python and numpy versions, numpy's BLAS, the
    OpenBLAS kernel forced by OPENBLAS_CORETYPE (when set) and numpy's enabled SIMD dispatch targets; read once per
    process. Every command runs on numpy alone, so no other library is named."""
    config = np.__config__.CONFIG
    blas = config["Build Dependencies"]["blas"]
    build = {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
             "blas": f"{blas.get('name')} {blas.get('version')}",
             "numpy_cpu_dispatch": config["SIMD Extensions"]["found"]}
    if "OPENBLAS_CORETYPE" in os.environ:
        build["OPENBLAS_CORETYPE"] = os.environ["OPENBLAS_CORETYPE"]
    return build


def _dispatch(args: argparse.Namespace, digests: dict):
    """Run the subcommand of `args`; a command that wrote to --out gets its manifest."""
    args.func(args, digests)
    if getattr(args, "out", None):
        home = os.path.dirname(args.out)  # the manifest's directory
        options = {k: _rebase(v, "", home) if k in _PATH_OPTIONS else v
                   for k, v in vars(args).items() if k not in ("func", "subcommand")}
        _write_json(args.out + ".manifest.json", {
            "subcommand": args.subcommand,
            "options": options,
            "seed": options.get("seed"),
            "tool_version": __version__,
            "machine": _machine(),
            "input_digests": {_rebase(path, "", home): digest for path, digest in digests.items()},
            "output": options["out"],
        }, sort_keys=True)


# ---------------------------------------------------------------------------
# Channel loading
# ---------------------------------------------------------------------------


def _load_channel(args, digests: dict):
    for flag, value in (("--p", args.p), ("--dim", args.dim)):
        if value is not None and not args.zoo:
            raise ValidationError(f"{flag} sets a parameter of a --zoo channel; it needs --zoo")
    if args.channel_json:
        return channel_from_json(_read_json(args.channel_json, digests))
    if args.cq_table:
        return cq_embedding_channel(float_array(_read_json(args.cq_table, digests), "--cq-table JSON"))
    if args.zoo:
        return zoo(args.zoo, **{k: v for k, v in (("p", args.p), ("d", args.dim)) if v is not None})
    raise ValidationError("no channel given: use --zoo, --channel-json or --cq-table")


def _add_channel_flags(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--zoo", help="named channel: identity | dephasing | depolarizing | erasure")
    source.add_argument("--channel-json", help="path to a Kraus-family channel JSON")
    source.add_argument("--cq-table", help="path to a row-stochastic p(b|a) JSON for a classical embedding")
    p.add_argument("--p", type=float, default=None, help="zoo channel noise parameter p")
    p.add_argument("--dim", type=int, default=None, help="zoo channel dimension d (identity/erasure)")


def _add_optimizer_flags(p: argparse.ArgumentParser):
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--alphabet-y", type=int, default=None, help="|Y| (default: dim_in^2)")
    p.add_argument("--mixed-states", action="store_true", help="search mixed input states too")


def _optimizer_config(args, alphabet_x: int | None) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        alphabet_x=alphabet_x,
        alphabet_y=args.alphabet_y,
        pure_states_only=not args.mixed_states,
    )


def _parse_weights(items) -> list[tuple[float, float]]:
    grid = []
    for item in items:
        try:
            w_r, w_p = (float(part) for part in item.split(","))
        except ValueError:
            raise ValidationError(f"weights must look like 'wR,wP' with two numbers, got {item!r}") from None
        grid.append((w_r, w_p))
    return grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_region(args, digests):
    iso = isometric_extension(_load_channel(args, digests))
    cfg = _optimizer_config(args, args.alphabet_x)
    samples = pareto_surface(iso, args.rs, _parse_weights(args.weights), cfg)
    _write_csv(args.out, PARETO_CSV_COLUMNS, pareto_csv_rows(samples, cfg))


def cmd_skp(args, digests):
    iso = isometric_extension(_load_channel(args, digests))
    cfg = _optimizer_config(args, alphabet_x=1)  # private-only: trivial public register, maximize P
    samples = pareto_surface(iso, args.rs, [(0.0, 1.0)], cfg)
    header = ("R_S", "P", "I_YB", "I_YE", "seed", "restarts", "converged")
    rows = [(s.r_s, s.result.achieved.P, s.result.constraints.b, s.result.constraints.c,
             cfg.seed, cfg.restarts, int(s.result.converged)) for s in samples]
    _write_csv(args.out, header, rows)


SIMULATE_CSV_COLUMNS = ("n", "rate_public", "rate_private", "rate_key", "decoder", "trials",
                        "error", "ci_low", "ci_high", "full_criterion", "message_secrecy", "seed")


def _code_config(keys: dict) -> wt.CodeConfig:
    """A CodeConfig from experiment-spec keys, each checked against its field's type."""
    fields = {f.name: f for f in dataclasses.fields(wt.CodeConfig)}
    unknown = sorted(set(keys) - set(fields))
    missing = [name for name, f in fields.items() if f.default is dataclasses.MISSING and name not in keys]
    if unknown or missing:
        problem = f"unknown keys {unknown}" if unknown else f"missing keys {missing}"
        raise ValidationError(f"experiment spec 'code' has {problem}; its keys are {', '.join(fields)}")
    return wt.CodeConfig(**{k: _typed(v, fields[k].type, f"experiment spec 'code' key {k!r}")
                            for k, v in keys.items()})


def run_simulation_spec(spec: dict, seed_override: int | None = None):
    """Execute an experiment spec, checked whole before the first codebook; returns (header, rows)."""
    chd = json_field(spec, "channel", "experiment spec")
    unknown = sorted(set(spec) - set(_SPEC_KEYS))
    if unknown:
        raise ValidationError(f"experiment spec has unknown keys {unknown}; its keys are {', '.join(_SPEC_KEYS)}")
    if isinstance(chd, dict) and "p_joint" in chd:
        channel = wt.ClassicalWiretap(float_array(chd["p_joint"], "channel 'p_joint'"))
    elif isinstance(chd, dict) and "p_main" in chd and "p_eve" in chd:
        channel = wt.ClassicalWiretap.from_marginals(float_array(chd["p_main"], "channel 'p_main'"),
                                                     float_array(chd["p_eve"], "channel 'p_eve'"))
    else:
        raise ValidationError("experiment spec 'channel' needs either 'p_joint' or 'p_main'+'p_eve'")
    base, sweep = spec.get("code", {}), spec.get("sweep", [{}])
    if not isinstance(base, dict) or not isinstance(sweep, list) or not all(isinstance(o, dict) for o in sweep):
        raise ValidationError("experiment spec 'code' must be an object and 'sweep' a list of objects")
    if not sweep:
        raise ValidationError("experiment spec 'sweep' is empty; list at least one row, or omit it for one row of 'code'")
    if seed_override is not None:
        base = {**base, "seed": seed_override}
    if ("input_p" in spec) == ("input_law" in spec):
        raise ValidationError("experiment spec needs exactly one of 'input_p' and 'input_law'")
    if "input_p" in spec:
        law = float_array(spec["input_p"], "experiment spec 'input_p'")
    else:
        law = tuple(float_array(json_field(spec["input_law"], key, "experiment spec 'input_law'"),
                                f"input_law '{key}'") for key in ("p_x", "p_a_given_x"))
    modes = ("none",) + wt.SECURITY_MODES
    security_mode = spec.get("security", "none")
    if security_mode not in modes:
        raise ValidationError(f"experiment spec 'security' must be one of {modes}, got {security_mode!r}")
    rows = []
    for cfg in [_code_config({**base, **override}) for override in sweep]:
        codebook = wt.generate_codebook(cfg, channel, law)
        est = wt.estimate_error(cfg, channel, codebook)
        if security_mode == "none":
            full, msg = "", ""
        else:
            rep = wt.security_distance(codebook, cfg, channel, mode=security_mode)
            full, msg = rep.full_criterion, rep.message_secrecy
        rows.append((cfg.n, cfg.rate_public, cfg.rate_private, cfg.rate_key, cfg.decoder,
                     cfg.trials, est.error, est.ci_low, est.ci_high, full, msg, cfg.seed))
    return SIMULATE_CSV_COLUMNS, rows


def cmd_simulate(args, digests):
    header, rows = run_simulation_spec(_read_json(args.config, digests), seed_override=args.seed)
    _write_csv(args.out, header, rows)


def cmd_resources(args, digests):
    if args.action != "derive":
        raise ValidationError(f"unknown resources action {args.action!r}; available: derive")
    name = args.name
    if name not in DERIVATIONS:
        raise ValidationError(f"unknown derivation {name!r}; available: {', '.join(sorted(DERIVATIONS))}")
    flags = _DERIVATION_FLAGS[name]
    values = {flag: getattr(args, flag[2:].replace("-", "_")) for fs in _DERIVATION_FLAGS.values() for flag in fs}
    foreign = [flag for flag, value in values.items() if value is not None and flag not in flags]
    if foreign:
        raise ValidationError(f"{name} does not take {', '.join(foreign)}; it takes {', '.join(flags)}")
    required = [flag for flag in flags if flag != "--optimal-key"]
    if any(values[flag] is None for flag in required):
        raise ValidationError(f"{name} needs {', '.join(required)}")
    _write_json(args.out, DERIVATIONS[name](*(values[flag] for flag in flags)).as_dict())


def cmd_entropy(args, digests):
    iso = isometric_extension(_load_channel(args, digests))
    s = build_cq_state(ensemble_from_json(_read_json(args.ensemble, digests)), iso)
    _write_json(args.out, {
        "I_XB": mutual_info_XB(s),
        "I_XE": mutual_info_XE(s),
        "I_YB_given_X": cond_mutual_info_YB_given_X(s),
        "I_YE_given_X": cond_mutual_info_YE_given_X(s),
        "I_XYB": mutual_info_XYB(s),
        "I_XYE": mutual_info_XYE(s),
    }, sort_keys=True)


def _stored_option(action: argparse.Action, options):
    """The manifest value of one option, checked as its flag would be."""
    value = json_field(options, action.dest, "manifest 'options'")
    if value is None and not action.required:
        return None
    what = f"manifest option {action.dest!r}"
    many = action.nargs == "+"
    if many and not (isinstance(value, list) and value):
        raise ValidationError(f"{what} must be a non-empty list, got {value!r}")
    type_name = "bool" if action.nargs == 0 else action.type.__name__ if action.type else "str"
    items = [_typed(v, type_name, what) for v in (value if many else [value])]
    return items if many else items[0]


def cmd_replay(args, digests):
    manifest = _read_json(args.manifest, {})  # the manifest is not an input of the run it replays
    sub = json_field(manifest, "subcommand", "manifest")
    (choices,) = [a.choices for a in build_parser()._actions if a.dest == "subcommand"]
    replayable = sorted(set(choices) - {"replay"})
    if sub not in replayable:
        raise ValidationError(f"manifest subcommand {sub!r} is not one of {replayable}")
    options = json_field(manifest, "options", "manifest")
    home = os.path.dirname(args.manifest)  # stored relative paths are relative to it
    replayed = argparse.Namespace(subcommand=sub, func=choices[sub].get_default("func"))
    for action in choices[sub]._actions:
        if action.dest != "help":
            value = _stored_option(action, options)
            setattr(replayed, action.dest, _rebase(value, home, "") if action.dest in _PATH_OPTIONS else value)
    recorded = manifest.get("input_digests", {})
    if not isinstance(recorded, dict):
        raise ValidationError("manifest 'input_digests' must be an object")
    for path, digest in sorted(recorded.items()):
        path = _rebase(path, home, "")
        try:
            with open(path, "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            raise ValidationError(f"replay input {path} is missing or unreadable") from None
        if actual != digest:
            raise ValidationError(f"replay input {path} changed since the run: "
                                  f"SHA-256 {actual}, manifest has {digest}")
    machine = manifest.get("machine", {})
    if not isinstance(machine, dict):
        raise ValidationError("manifest 'machine' must be an object")
    _dispatch(replayed, digests)
    now = _machine()
    for name, value in sorted(machine.items()):
        if now.get(name) != value:
            print(f"replay: the run's machine had {name} = {value!r}, this one has {now.get(name)!r}; "
                  "outputs may differ in their last bits", file=sys.stderr)
    if manifest.get("tool_version") != __version__:
        print(f"replay: the run used pubpriv {manifest.get('tool_version')!r}, this is {__version__!r}; "
              "outputs may differ where the tool has changed since", file=sys.stderr)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pubpriv", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_out, seed_default=0):
        """--seed and --out, for the subcommands that read a seed."""
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--out", default=default_out)

    p_region = sub.add_parser("region", help="optimizer sweep over the one-shot region")
    _add_channel_flags(p_region)
    _add_optimizer_flags(p_region)
    p_region.add_argument("--alphabet-x", type=int, default=None, help="|X| (default: cardinality ceiling)")
    p_region.add_argument("--rs", type=float, nargs="+", default=[0.0], help="key-rate sweep")
    p_region.add_argument("--weights", nargs="+", default=["1,0", "0,1"],
                          help="objective weights wR,wP (repeatable)")
    common(p_region, "region.csv")
    p_region.set_defaults(func=cmd_region)

    p_skp = sub.add_parser("skp", help="private-only (trivial X) key-assisted sweep")
    _add_channel_flags(p_skp)
    _add_optimizer_flags(p_skp)
    p_skp.add_argument("--rs", type=float, nargs="+", default=[0.0])
    common(p_skp, "skp.csv")
    p_skp.set_defaults(func=cmd_skp)

    p_sim = sub.add_parser("simulate", help="run a wiretap-code experiment spec")
    p_sim.add_argument("--config", required=True, help="experiment JSON path")
    common(p_sim, "simulate.csv", seed_default=None)  # None: keep the spec's own seed
    p_sim.set_defaults(func=cmd_simulate)

    p_res = sub.add_parser("resources", help="resource-calculus derivations")
    p_res.add_argument("action", help="derive")
    p_res.add_argument("name", help="derivation name (section3, ds03, otp_combination)")
    p_res.add_argument("--ib", type=float, default=None, help="I(X;B)")
    p_res.add_argument("--ie", type=float, default=None, help="I(X;E)")
    p_res.add_argument("--a", type=float, default=None, help="I(X;B) of the witness ensemble")
    p_res.add_argument("--b", type=float, default=None, help="I(Y;B|X)")
    p_res.add_argument("--c", type=float, default=None, help="I(Y;E|X)")
    p_res.add_argument("--optimal-key", type=float, default=None, help="best-known key rate I(XY;E)")
    p_res.add_argument("--out", help="JSON path (default: stdout)")
    p_res.set_defaults(func=cmd_resources)

    p_ent = sub.add_parser("entropy", help="entropic quantities of an ensemble through a channel")
    _add_channel_flags(p_ent)
    p_ent.add_argument("--ensemble", required=True, help="ensemble JSON path")
    p_ent.add_argument("--out", help="JSON path (default: stdout)")
    p_ent.set_defaults(func=cmd_entropy)

    p_rep = sub.add_parser("replay", help="check a manifest's input digests, then re-run it")
    p_rep.add_argument("--manifest", required=True)
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # None: sys.argv[1:]
    try:
        _dispatch(args, {})
    except (BudgetError, CapacityError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (PubPrivError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
