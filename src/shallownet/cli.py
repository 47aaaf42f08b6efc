"""Command-line front end: simulate, erho, verify, lightcone, depthbound, measure.

Exit codes: 0 on success (all checks passing), 1 when a verification sweep
finds a bound violation, 2 on usage, parse or malformed-input errors, 3 on an
internal error (any other exception; its traceback goes to stderr).  All
reports are deterministic for a fixed seed and carry the tool version plus the
resolved configuration; randomness flows from one root seed through the
per-trial split scheme in ``sweeps.trial_seed``.

An optional ``--config FILE`` supplies flat ``key=value`` defaults mirroring
the long flag names; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback

import numpy as np

from . import __version__, lightcone, measurement, sweeps, uncertainty
from . import dsl, network, states
from .dsl import CircuitParseError
from .linalg import SIGMA_X, SIGMA_Z

JSON_KW = {"sort_keys": True, "indent": 2}
# Largest state dimension for which erho writes the d x d witness (a 4096 x 4096
# complex matrix is 256 MiB before its eigendecomposition).
WITNESS_MAX_DIM = 4096


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {line!r} is not key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t)


def _int_list_text(text: str) -> str:
    """A comma separated int list, checked by ``_int_list`` and kept as written."""
    _int_list(text)
    return text


def _report_format(text: str) -> str:
    """``--format`` of the commands that write a report: json or csv.  The
    flag's own choices guard the command line; this guards a config file."""
    if text not in ("json", "csv"):
        raise ValueError(f"must be 'json' or 'csv', got {text!r}")
    return text


def _json_lines_format(text: str) -> str:
    """``--format`` of ``measure``, which writes JSON lines only."""
    if text != "json":
        raise ValueError(f"measure writes JSON lines: format must be 'json', got {text!r}")
    return text


def _resolve(args, spec: dict) -> dict:
    """Merge CLI flags (None means unset) over config-file values over defaults.

    A config key no field reads, or a config value its field's coercion
    refuses, raises a ValueError naming the key and the config file; a flag
    value the coercion refuses raises one naming the flag.
    """
    cfg = _read_config(args.config) if args.config else {}
    for key in cfg:
        if key not in spec:
            raise ValueError(f"config file {args.config}: unknown key {key!r}; "
                             f"this command reads {', '.join(sorted(spec))}")
    out = {}
    for dest, (coerce, default) in spec.items():
        val = getattr(args, dest)
        if val is not None:
            try:
                out[dest] = coerce(val)
            except ValueError as err:
                raise ValueError(f"--{dest.replace('_', '-')}: {err}") from None
        elif dest in cfg:
            try:
                out[dest] = coerce(cfg[dest])
            except ValueError as err:
                raise ValueError(f"config file {args.config}: field {dest!r}: {err}") from None
        else:
            out[dest] = default
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if (not text or text.endswith("\n")) else text + "\n")


def _rows_to_csv(rows: list, columns: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _load_circuit(path: str) -> network.Network:
    with open(path, "r", encoding="utf-8") as fh:
        return dsl.parse(fh.read())


def _build_input(spec: str, n: int, l: int):
    """Input spec: zeros | cat | product:<tokens> | mixture:<file>."""
    if spec == "zeros":
        return states.basis_state(n, l, 0)
    if spec == "cat":
        if l != 2:
            raise ValueError("cat input requires local dimension 2")
        return states.cat_state(n)
    if spec.startswith("product:"):
        tokens = spec[len("product:"):].split(",")
        if len(tokens) != n:
            raise ValueError(f"product input lists {len(tokens)} kets for {n} sites")
        factors = []
        for tok in tokens:
            tok = tok.strip()
            if tok in ("+", "-") and l != 2:
                raise ValueError(f"product ket {tok!r} requires local dimension 2, got {l}")
            if tok == "+":
                factors.append(np.array([1, 1], dtype=complex) / np.sqrt(2))
            elif tok == "-":
                factors.append(np.array([1, -1], dtype=complex) / np.sqrt(2))
            elif tok.isdigit() and int(tok) < l:
                v = np.zeros(l, dtype=complex)
                v[int(tok)] = 1.0
                factors.append(v)
            else:
                raise ValueError(f"unknown ket token {tok!r}")
        return states.product_state(factors)
    if spec.startswith("mixture:"):
        path = spec[len("mixture:"):]
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
            raise ValueError(f"mixture file {path}: field 'terms' is missing or not a list")
        terms = []
        for t, term in enumerate(doc["terms"]):
            where = f"mixture file {path}: terms[{t}]"
            factor_docs = term.get("factors") if isinstance(term, dict) else None
            if not isinstance(factor_docs, list) or not factor_docs:
                raise ValueError(f"{where}: field 'factors' is missing or not a non-empty list")
            weight = term.get("weight")
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ValueError(f"{where}: field 'weight' is missing or not a number, got {weight!r}")
            factors = []
            for f, factor in enumerate(factor_docs):
                try:
                    state = states.to_density(states.state_from_dict(factor))
                except ValueError as err:
                    raise ValueError(f"{where}.factors[{f}]: {err}") from None
                if state.n != 1:
                    raise ValueError(f"{where}.factors[{f}]: a mixture factor must be a "
                                     f"single-site state, got n = {state.n}")
                factors.append(state.matrix)
            terms.append((float(weight), tuple(factors)))
        sep = states.SeparableInput(tuple(terms))
        return states.mix(sep)
    raise ValueError(f"unknown input spec {spec!r}")


def _load_state(args) -> tuple:
    """State from a .json state file, or from --circuit plus --input."""
    source = getattr(args, "state", None)
    if source:
        with open(source, "r", encoding="utf-8") as fh:
            return states.state_from_json(fh.read()), {"state": source}
    if not getattr(args, "circuit", None):
        raise ValueError("provide a state file or --circuit with --input")
    net = _load_circuit(args.circuit)
    input_spec = args.input or "zeros"
    state = network.apply(net, _build_input(input_spec, net.n, net.l))
    return state, {"circuit": args.circuit, "input": input_spec}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    opts = _resolve(args, {
        "input": (str, "zeros"),
        "format": (_report_format, "json"),
        "seed": (int, 0),
        "tol": (float, 1e-9),
    })
    net = _load_circuit(args.circuit)
    state = network.apply(net, _build_input(opts["input"], net.n, net.l))
    report = {
        "version": __version__,
        "config": {"circuit": args.circuit, **opts},
        "n": net.n,
        "l": net.l,
        "depth": net.depth,
        "canonical_depth": network.canonical_depth(net),
        "kind": "pure" if isinstance(state, states.PureState) else "density",
        "purity": state.purity(),
    }
    estimate = uncertainty.estimate_e(state, seed=opts["seed"], tol=opts["tol"])
    report["e_lower"] = estimate.e_lower
    if net.l == 2:
        report["fidelity_to_cat"] = states.fidelity(state, states.cat_state(net.n))
        report["variance"] = {
            axis: uncertainty.variance(uncertainty.SiteObservable(half), state)
            for axis, half in zip("xyz", uncertainty.HALF_PAULIS)
        }
    if args.state_out:
        with open(args.state_out, "w", encoding="utf-8") as fh:
            fh.write(states.state_to_json(state))
        report["state_ref"] = args.state_out
    if opts["format"] == "csv":
        flat = {k: v for k, v in report.items() if not isinstance(v, dict)}
        _emit(_rows_to_csv([flat], list(flat)), args.out)
    else:
        _emit(json.dumps(report, **JSON_KW), args.out)
    return 0


def cmd_erho(args) -> int:
    opts = _resolve(args, {
        "restarts": (int, 8),
        "grid_size": (int, 144),
        "max_iter": (int, 20),
        "tol": (float, 1e-9),
        "seed": (int, 0),
        "format": (_report_format, "json"),
        "input": (str, "zeros"),
    })
    state, source = _load_state(args)
    if args.witness_out and state.dim > WITNESS_MAX_DIM:
        raise ValueError(f"--witness-out writes a d x d matrix; d = {state.dim} exceeds "
                         f"{WITNESS_MAX_DIM}")
    result = uncertainty.estimate_e(
        state,
        restarts=opts["restarts"],
        grid_size=opts["grid_size"],
        max_iter=opts["max_iter"],
        tol=opts["tol"],
        seed=opts["seed"],
    )
    report = {
        "version": __version__,
        "config": {**source, **opts},
        "n": state.n,
        "l": state.l,
        **result.to_dict(),
    }
    if args.witness_out:
        _, dual_b = uncertainty.commutator_witness(result.maximizer, state)
        witness = {"dual_b": [[z.real, z.imag] for z in dual_b.reshape(-1)]}
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(witness, **JSON_KW))
        report["witness_ref"] = args.witness_out
    if opts["format"] == "csv":
        columns = ("n", "l", "e_lower", "variance_bound", "restarts_used",
                   "iterations") + (("witness_ref",) if args.witness_out else ())
        flat = {k: report[k] for k in columns}
        _emit(_rows_to_csv([flat], list(flat)), args.out)
    else:
        _emit(json.dumps(report, **JSON_KW), args.out)
    return 0


def cmd_verify(args) -> int:
    opts = _resolve(args, {
        "trials": (int, 200),
        "n_list": (_int_list, (4, 6, 8)),
        "k_list": (_int_list, (0, 1, 2)),
        "noise": (float, 0.05),
        "seed": (int, 0),
        "tol": (float, 1e-8),
        "format": (_report_format, "json"),
    })
    which = args.which
    fields = {"seed": opts["seed"], "trials": opts["trials"], "n_values": opts["n_list"],
              "k_values": opts["k_list"], "tol": opts["tol"]}
    # validated for both sweeps; sweep 2 runs unitary networks, so its value goes unused
    config = sweeps.RunConfig(noise=opts["noise"], **fields)
    if which == 2:
        config = sweeps.RunConfig(noise=0.0, **fields)
    rows = sweeps.run_sweep(which, config)
    all_pass = all(r["pass"] for r in rows)
    columns = ["trial", "seed", "n", "k", "noise", "lhs", "bound", "pass"]
    if opts["format"] == "csv":
        _emit(_rows_to_csv(rows, columns), args.out)
    else:
        report = {
            "version": __version__,
            "config": {"which": which, **config.to_dict()},
            "rows": rows,
            "all_pass": all_pass,
        }
        _emit(json.dumps(report, **JSON_KW), args.out)
    if which == 1:
        searched = sum(1 for r in rows if r["pass"] and r["e_upper"] > r["bound"] + config.tol)
        if searched:
            print(
                f"note: {searched} passing row(s) not certified: e_upper exceeds the bound, "
                f"and the search found no counterexample",
                file=sys.stderr,
            )
    if not all_pass:
        bad = [r for r in rows if not r["pass"]]
        print(
            f"BOUND VIOLATION: {len(bad)} trial(s) exceeded the depth bound; "
            f"first offender: {json.dumps(bad[0], sort_keys=True)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lightcone(args) -> int:
    opts = _resolve(args, {"format": (_report_format, "json"), "sites": (_int_list_text, "")})
    net = _load_circuit(args.circuit)
    report_obj = lightcone.lightcone_report(net)
    report = {
        "version": __version__,
        "config": {"circuit": args.circuit, **opts},
        "n": net.n,
        "depth": net.depth,
        **report_obj.to_dict(),
    }
    if opts["sites"]:
        seed = frozenset(_int_list(opts["sites"]))
        report["seed_sites"] = sorted(seed)
        report["seed_support"] = sorted(lightcone.dual_support(net, seed))
    if opts["format"] == "csv":
        flat = {
            "n": net.n,
            "depth": net.depth,
            "max_support_size": report["max_support_size"],
            "intersecting_pairs": report["intersecting_pairs"],
            "bound_support": report["bounds"]["support"],
            "bound_multiplicity": report["bounds"]["multiplicity"],
            "bound_pairs_per_obs": report["bounds"]["pairs_per_obs"],
        }
        _emit(_rows_to_csv([flat], list(flat)), args.out)
    else:
        _emit(json.dumps(report, **JSON_KW), args.out)
    return 0


def cmd_depthbound(args) -> int:
    value = lightcone.depth_lower_bound(args.n, args.r)
    clamped = max(0.0, value) if args.clamp else value
    if args.format == "json":
        report = {
            "version": __version__,
            "config": {"n": args.n, "r": args.r, "clamp": bool(args.clamp)},
            "bound": clamped,
        }
        _emit(json.dumps(report, **JSON_KW), args.out)
    elif args.format == "csv":
        _emit(_rows_to_csv([{"n": args.n, "r": args.r, "bound": clamped}],
                           ["n", "r", "bound"]), args.out)
    else:
        _emit(repr(clamped), args.out)
    return 0


def _measure_records(args, opts) -> list:
    state, _ = _load_state(args)
    n = state.n
    if state.l != 2:
        raise ValueError("measurement modes are defined for local dimension 2")
    observable = opts["observable"]
    mode = opts["mode"]
    if observable not in ("parity-x", "parity-z"):
        raise ValueError(f"unknown observable {observable!r}")
    if mode not in ("weak", "strong", "conjugated"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "conjugated" and observable != "parity-x":
        raise ValueError("conjugated mode measures parity-x; observable mismatch")

    pauli = SIGMA_X if observable == "parity-x" else SIGMA_Z
    # weak mode decomposes the site observable once for every site and every shot
    sites = [measurement.spectral_decompose(pauli)] * n if mode == "weak" else None
    # weak post states, one per record, are built only to be written
    posts = bool(args.states_dir)

    def exact_outcomes():
        if mode == "weak":
            return measurement.weak_measure_product_exact(state, sites, post_states=posts)
        if mode == "strong":
            return measurement.parity_measure_exact(state, pauli)
        return measurement.conjugated_strong_measure_exact(state)

    def record(o, seed) -> dict:
        value = o.combined_value if isinstance(o, measurement.WeakOutcome) else o.value
        return {"value": value, "probability": o.probability, "seed": seed, "post": o.post_state}

    if opts["exact"]:
        return [record(o, None) for o in exact_outcomes()]
    if not opts["shots"]:
        return []
    seeds = [sweeps.trial_seed(opts["seed"], shot) for shot in range(opts["shots"])]
    rngs = [np.random.default_rng(sub) for sub in seeds]
    if mode == "weak":
        # one pass over the state builds the outcome tree; a shot is n draws down it
        drawn = measurement.weak_measure_shots(state, sites, rngs, post_states=posts)
    else:
        outcomes = exact_outcomes()
        drawn = [measurement.sample_outcome(outcomes, rng) for rng in rngs]
    return [record(o, sub) for o, sub in zip(drawn, seeds)]


def cmd_measure(args) -> int:
    opts = _resolve(args, {
        "mode": (str, "strong"),
        "observable": (str, "parity-x"),
        "shots": (int, 0),
        "seed": (int, 0),
        "input": (str, "zeros"),
        "format": (_json_lines_format, "json"),
    })
    if opts["shots"] < 0:
        raise ValueError(f"--shots must be at least 0, got {opts['shots']}")
    opts["exact"] = bool(args.exact)
    records = _measure_records(args, opts)
    lines = []
    for idx, rec in enumerate(records):
        ref = None
        if args.states_dir and rec["post"] is not None:
            os.makedirs(args.states_dir, exist_ok=True)
            ref = os.path.join(args.states_dir, f"outcome_{idx}.json")
            with open(ref, "w", encoding="utf-8") as fh:
                fh.write(states.state_to_json(rec["post"]))
        lines.append(json.dumps(
            {"value": rec["value"], "probability": rec["probability"],
             "seed": rec["seed"], "post_state_ref": ref},
            sort_keys=True,
        ))
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument("--format", choices=["json", "csv"], default=None)
    sub.add_argument("--seed", type=int, default=None, help="root seed")
    sub.add_argument("--config", help="flat key=value config file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallownet",
        description="Simulate shallow quantum networks and verify their depth bounds.",
    )
    parser.add_argument("--version", action="version", version=f"shallownet {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a circuit file on an input state")
    sim.add_argument("circuit", help="path to a .qnet circuit file")
    sim.add_argument("--input", default=None,
                     help="zeros | cat | product:<kets> | mixture:<file> (default zeros)")
    sim.add_argument("--state-out", help="also write the full final state JSON here")
    sim.add_argument("--tol", type=float, default=None, help="optimizer tolerance for the summary")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    erho = subs.add_parser("erho", help="macroscopic-uncertainty report for a state")
    erho.add_argument("state", nargs="?", help="state JSON file")
    erho.add_argument("--circuit", help="circuit file; its output state is analyzed")
    erho.add_argument("--input", default=None, help="input spec used with --circuit")
    erho.add_argument("--restarts", type=int, default=None)
    erho.add_argument("--grid-size", type=int, default=None, dest="grid_size")
    erho.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    erho.add_argument("--tol", type=float, default=None)
    erho.add_argument("--witness-out",
                      help="also build the d x d witness dual_b and write it (JSON) here; "
                           f"refused above d = {WITNESS_MAX_DIM}")
    _add_common(erho)
    erho.set_defaults(func=cmd_erho)

    ver = subs.add_parser("verify", help="seeded sweep checking a depth bound")
    ver.add_argument("which", type=int, choices=[1, 2],
                     help="1: uncertainty of prepared states; 2: commutators of propagated projections")
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--n-list", default=None, dest="n_list", help="comma separated site counts")
    ver.add_argument("--k-list", default=None, dest="k_list", help="comma separated depths")
    ver.add_argument("--noise", type=float, default=None,
                     help="depolarizing strength for odd trials (sweep 1 only)")
    ver.add_argument("--tol", type=float, default=None)
    _add_common(ver)
    ver.set_defaults(func=cmd_verify)

    lc = subs.add_parser("lightcone", help="combinatorial support report for a circuit")
    lc.add_argument("circuit")
    lc.add_argument("--sites", default=None, help="optional comma separated seed sites")
    _add_common(lc)
    lc.set_defaults(func=cmd_lightcone)

    db = subs.add_parser("depthbound", help="depth lower bound for crossing level r")
    db.add_argument("n", type=int)
    db.add_argument("r", type=float)
    db.add_argument("--clamp", action="store_true", help="clamp negative bounds to 0")
    db.add_argument("--out")
    db.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    db.set_defaults(func=cmd_depthbound)

    meas = subs.add_parser("measure", help="weak/strong/conjugated measurement records")
    meas.add_argument("state", nargs="?", help="state JSON file")
    meas.add_argument("--circuit", help="circuit file; its output state is measured")
    meas.add_argument("--input", default=None, help="input spec used with --circuit")
    meas.add_argument("--mode", choices=["weak", "strong", "conjugated"], default=None)
    meas.add_argument("--observable", choices=["parity-x", "parity-z"], default=None)
    meas.add_argument("--shots", type=int, default=None)
    meas.add_argument("--exact", action="store_true",
                      help="emit the exact distribution instead of samples")
    meas.add_argument("--states-dir", help="directory for post-state JSON files")
    _add_common(meas)
    meas.set_defaults(func=cmd_measure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CircuitParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # an internal fault must not read as a bound verdict
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
