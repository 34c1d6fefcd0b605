#!/usr/bin/env python3
"""Print SHA-256 digests and exit codes of a fixed set of this checkout's outputs.

    python3 scripts/output_digest.py > DIGEST.json

Diff the output of two checkouts, or this one's against the committed
``DIGEST.json``, to see whether a change moved any verdict or report
byte.  The set is:

- the 16 ``stokolmo verify`` reports of the benchmark's verify_ensemble
  plan (``perfbench/workloads.py``: 8 bundled models, 128 paths, two
  seeds each);
- the ``stokolmo simulate`` CSVs of logistic, holling2d and coop_blowup
  (default horizon, seed 0);
- the verdicts of the benchmark's three face_mc models, under its face
  simulation budget, at face seeds 0-5;
- the reports ``scripts/run_examples.py`` writes at its quick budgets,
  and its printed summary with the timings taken out;
- the ``stokolmo check`` and ``classify`` reports of every bundled model
  and the ``stokolmo foodchain`` reports of the bundled chains, and the
  ``classify`` reports of the benchmark's lattice_screen communities at
  seed 3 (``perfbench/workloads.py``);
- the ``classify`` report of a 15-species community, over the face
  budget, and the ``foodchain`` reports of a chain whose depth-2 system is
  singular and of one whose apex invasion rate is zero;
- the exit code and stderr of ``stokolmo`` on fixed bad inputs
  (``diagnostics/<name>``), with the wall-clock values of a ``timing``
  line taken out.  An exception that escapes the CLI is recorded by its
  class name and message, as a raised ``classify`` error is.

The CLI commands and library calls run in this process against this
checkout's ``src/``; ``run_examples.py`` runs as a child process and
writes ``reports/`` as it always does.  The whole set takes about a
minute on 2 CPUs.  The entries that run no ensemble
(:func:`static_digests`) are recomputed by ``tests/test_digest.py`` and
compared with ``DIGEST.json``; the simulated ones
(:func:`simulated_digests`) are checked by a full run of this script.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))

import stokolmo  # noqa: E402
import stokolmo.cli  # noqa: E402
from stokolmo.report import canonical_json  # noqa: E402

import run_examples  # noqa: E402
import workloads  # noqa: E402

SIMULATED = ("logistic", "holling2d", "coop_blowup")
FACE_SEEDS = range(6)

LOGISTIC = str(ROOT / "models" / "logistic.json")
# bad command lines: the cases of tests/test_cli.py::test_input_errors_are_json_and_exit_2
BAD_ARGV = {
    "missing_model": ["classify", "/no/such/model.json"],
    "missing_positional": ["classify"],
    "unknown_flag": ["classify", LOGISTIC, "--bogus"],
    "unknown_command": ["frobnicate", LOGISTIC],
    "x0_arity": ["simulate", LOGISTIC, "--x0", "1,2"],
    "x0_negative": ["simulate", LOGISTIC, "--x0", "-1"],
    "x0_text": ["simulate", LOGISTIC, "--x0", "a,b"],
    "t_negative": ["simulate", LOGISTIC, "--t", "-5"],
    "t_inf": ["simulate", LOGISTIC, "--t", "inf"],
    "dt_nan": ["simulate", LOGISTIC, "--dt", "nan"],
    "verify_dt_nan": ["verify", LOGISTIC, "--dt", "nan"],
    "simulate_paths": ["simulate", LOGISTIC, "--paths", "7"],
    "verify_csv_without_out": ["verify", LOGISTIC, "--t", "2", "--paths", "4",
                               "--format", "csv"],
    "verify_out_missing_dir": ["verify", LOGISTIC, "--t", "2", "--paths", "4",
                               "--out", "/no/such/dir/run.json"],
    "t_steps_beyond_int64": ["simulate", LOGISTIC, "--t", "1e16"],
    "t_states_beyond_memory": ["simulate", LOGISTIC, "--t", "1e13"],
    "verify_paths_beyond_memory": ["verify", LOGISTIC, "--t", "1", "--paths",
                                   "1000000000000"],
}
OVERFLOW = "x1*1e308*10 - x1*1e308*10"
# bad one-species expression models: (f, g, command and flags)
BAD_MODELS = {
    "deep_parentheses": ("(" * 3000 + "1" + ")" * 3000, "1", ["classify"]),
    "exp_exp_check": ("16", "exp(exp(x1))", ["check"]),
    "exp_exp_classify": ("16", "exp(exp(x1))", ["classify"]),
    "nan_state": ("x1*1e308*10 - x1*1e308*10 + 1 - x1", "1", ["simulate", "--t", "1"]),
    "minus_inf_state": ("1 - 1e200*x1*1e200", "1", ["simulate", "--x0", "2", "--t", "1"]),
    "nonfinite_drift_check": (OVERFLOW + " + 1 - x1", "1", ["check"]),
    "nonfinite_noise_check": ("1 - x1", "1 + " + OVERFLOW, ["check"]),
}
# a two-level chain with a10 left open
CHAIN = (b'{"n": 2, "a10": %s, "death": [1.0], "prey_gain": [2.0], "loss": [1.0], '
         b'"intra": [1.0, 1.0], "sigma_diag": [1.0, 1.0]}')
# three-level chains, (loss, intra, death): no second-level self-limitation
# and no loss to the apex make the depth-2 system singular; an apex death of
# 4/3 puts its invasion rate at zero
CHAINS = {
    "chain_singular_depth": ([0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0]),
    "chain_borderline_rate": ([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 4.0 / 3.0]),
}
# documents the library cannot read or must refuse: (file bytes, command)
BAD_FILES = {
    "model_not_utf8": (b'{"n": 1, "sigma": [[1.0]], "x": "\xe9"}', "classify"),
    "model_long_int": (b'{"n": 1' + b"0" * 5000 + b"}", "classify"),
    "chain_not_utf8": (b'{"n": 2, "x": "\xe9"}', "foodchain"),
    "model_int_beyond_float": (b'{"n": 1, "lv": {"a": [1' + b"0" * 400
                               + b'], "B": [[-1]], "g": [1]}, "sigma": [[1]]}', "check"),
    "chain_int_beyond_float": (CHAIN % (b"1" + b"0" * 400), "foodchain"),
    "chain_a10_overflow": (CHAIN % b"1e999", "foodchain"),
    "model_nested_too_deep": (b'{"n": 1, "lv": {"a": ' + b"[" * 100000 + b"]" * 100000
                              + b"}}", "check"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_output(argv: list[str], out: pathlib.Path) -> dict:
    """Run ``stokolmo <argv> --out <out>``; digest the file, or stderr without
    one, or the exception that escapes."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = stokolmo.cli.main(argv + ["--out", str(out)])
    except Exception as exc:   # a traceback is an output too
        return {"rc": type(exc).__name__, "sha256": sha256(str(exc).encode())}
    if out.exists():
        data = out.read_bytes()
        out.unlink()
    else:
        data = err.getvalue().encode()
    return {"rc": rc, "sha256": sha256(data)}


def diagnostic(argv: list[str]) -> dict:
    """Run ``stokolmo <argv>``; digest stderr, or the exception that escapes."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = stokolmo.cli.main(argv)
    except Exception as exc:   # a traceback is an output too
        return {"rc": type(exc).__name__, "sha256": sha256(str(exc).encode())}
    text = re.sub(r'"timing": \{[^}]*\}', '"timing": {}', err.getvalue())
    return {"rc": rc, "sha256": sha256(text.encode())}


def verdict_output(path: pathlib.Path, face_seed: int) -> dict:
    budget = stokolmo.AnalysisBudget(
        face_sim=stokolmo.SimConfig(**workloads.FACE_SIM, seed=face_seed))
    try:
        verdict = stokolmo.classify(stokolmo.load_model(str(path)), budget)
    except Exception as exc:   # a raised error is an output too
        return {"rc": type(exc).__name__, "sha256": sha256(str(exc).encode())}
    return {"rc": 0, "sha256": sha256(canonical_json(verdict.to_json_dict()).encode())}


def example_outputs() -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_examples.py")],
                          cwd=ROOT, capture_output=True, text=True)
    summary = [re.sub(r"\s+\[[0-9.]+s\]$", "", line) for line in proc.stdout.splitlines()
               if not line.startswith("reports written to")]
    digests = {"examples/summary": {"rc": proc.returncode,
                                    "sha256": sha256("\n".join(summary).encode())}}
    for name in run_examples.MODELS:
        report = ROOT / "reports" / f"{name}.json"
        digests[f"examples/{name}"] = {
            "rc": proc.returncode,
            "sha256": sha256(report.read_bytes()) if report.exists() else None}
    return digests


def static_digests(work: pathlib.Path) -> dict:
    """The entries that run no ensemble: ``check/``, ``classify/``,
    ``foodchain/`` and ``diagnostics/``, written through ``work``."""
    digests = {}
    for path in sorted((ROOT / "models").glob("*.json")):
        commands = ["foodchain"] if "a10" in json.loads(path.read_text()) \
            else ["check", "classify"]
        for command in commands:
            digests[f"{command}/{path.stem}"] = cli_output([command, str(path)],
                                                           work / "out")
    for name, doc in workloads.lattice_inputs(3):
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        digests[f"classify/lattice3/{name}"] = cli_output(["classify", str(path)],
                                                          work / "out")
    path = work / "community15.json"
    rng = np.random.default_rng(0)
    B = -rng.uniform(0.0, 0.1, (15, 15))
    np.fill_diagonal(B, -1.0)
    path.write_text(json.dumps({"n": 15, "lv": {"a": [1.0] * 15, "B": B.tolist(),
                                                "g": [1.0] * 15},
                                "sigma": np.eye(15).tolist()}))
    digests["classify/face_budget15"] = cli_output(["classify", str(path)], work / "out")
    for name, (loss, intra, death) in CHAINS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps({"n": 3, "a10": 4.0, "death": death,
                                    "prey_gain": [2.0, 1.0], "loss": loss,
                                    "intra": intra, "sigma_diag": [1.0] * 3}))
        digests[f"foodchain/{name}"] = cli_output(["foodchain", str(path)], work / "out")
    for name, argv in BAD_ARGV.items():
        digests[f"diagnostics/{name}"] = diagnostic(argv)
    for name, (f, g, argv) in BAD_MODELS.items():
        path = work / "bad.json"
        path.write_text(json.dumps({"n": 1, "general": {"f": [f], "g": [g]},
                                    "sigma": [[1.0]]}))
        digests[f"diagnostics/{name}"] = diagnostic(argv[:1] + [str(path)] + argv[1:])
    for name, (data, command) in BAD_FILES.items():
        path = work / "bad.json"
        path.write_bytes(data)
        digests[f"diagnostics/{name}"] = diagnostic([command, str(path)])
    return digests


def simulated_digests(work: pathlib.Path) -> dict:
    """The entries that simulate: ``verify/``, ``simulate/``, ``face_mc/``
    and ``examples/``, written through ``work``."""
    digests = {}
    for name, horizon, seeds in workloads.VERIFY_PLAN:
        for seed in seeds:
            argv = ["verify", str(ROOT / "models" / f"{name}.json"), "--t", repr(horizon),
                    "--paths", str(workloads.VERIFY_PATHS), "--seed", str(seed)]
            digests[f"verify/{name}/seed{seed}"] = cli_output(argv, work / "out")
    for name in SIMULATED:
        argv = ["simulate", str(ROOT / "models" / f"{name}.json")]
        digests[f"simulate/{name}"] = cli_output(argv, work / "out")
    for name, a, B, _ in workloads.FACE_MC_PLAN:
        path = work / f"{name}.json"
        path.write_text(json.dumps(workloads.general_doc(a, B)))
        for seed in FACE_SEEDS:
            digests[f"face_mc/{name}/seed{seed}"] = verdict_output(path, seed)
    digests.update(example_outputs())
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        digests = {**static_digests(work), **simulated_digests(work)}
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0

if __name__ == "__main__":
    sys.exit(main())
