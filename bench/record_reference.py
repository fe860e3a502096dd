#!/usr/bin/env python3
"""Record bench/reference.json: the expected outcome of every menu entry.

    python3 bench/record_reference.py

Runs each workload's whole menu once through the same entry points the
benchmark times and stores indices, node counts, amplitudes, mu_min and
window q_min.  Re-record only when the expected results change on purpose.
"""

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402


def row_record(row, params=None):
    if row["status"] == "failed":
        return {"status": "failed", "error": row["reason"].split(":", 1)[0]}
    rec = {"status": row["status"], "total_morse_index": row["total_morse_index"],
           "mesh_stable": row["mesh_stable"], "amplitude": row["amplitude"]}
    if params is not None:
        rec["nodes"] = wl.node_count({**params, "alpha": row["alpha"]}, row["amplitude"][0])
    return rec


def main():
    work = HERE.parent / ".bench_out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    runner = wl.Runner(work, reference=None)
    ref = {"tolerance": {"relative": wl.RTOL}}

    headline = {"id": "headline", "kind": "sweep", "params": dict(wl.POWER4),
                "alphas": list(wl.HEADLINE_ALPHAS)}
    rows = [dict(r) for slot in wl.BRANCH_SLOTS for r in slot]
    profiles = [dict(c) for c in wl.CERTIFY_PROFILES]
    runner.prepare([headline] + rows + profiles, "setup0")

    payload = runner.sweep(headline["dirs"]["setup0"])[2]
    ref["headline_sweep"] = {
        "rows": {f"{r['alpha']:g}": row_record(r) for r in payload["rows"]},
        "onset": payload["summary"]["smallest_alpha_with_index_above_1"],
    }
    print("headline", [r["total_morse_index"] for r in payload["rows"]], flush=True)

    ref["branch_mix"] = {}
    for case in rows:
        _, rc, out = runner.sweep(case["dirs"]["setup0"])
        ref["branch_mix"][case["id"]] = row_record(out["rows"][0], case["params"])
        print(case["id"], ref["branch_mix"][case["id"]], flush=True)

    ref["certify"] = {}
    for case in profiles:
        cdir = case["dirs"]["setup0"]
        rc = runner.cli(["verify", "--profile", str(cdir / "profile"),
                         "--out", str(cdir / "verify.json")])
        report = json.loads((cdir / "verify.json").read_text())
        header = json.loads((cdir / "profile.json").read_text())
        ell = next(e["ell"] for e in report["morse"]["per_ell"] if e["negatives"] == 0)
        ref["certify"][case["id"]] = {
            "verify_exit": rc, "verify_pass": report["pass"],
            "amplitude": header["amplitude"],
            "total_morse_index": report["morse"]["total"], "stable_ell": ell,
            "mu_min": runner.weighted_mu_min(cdir / "profile", ell),
        }
        print(case["id"], ref["certify"][case["id"]], flush=True)

    ref["liouville"] = {}
    for energy in wl.LIOUVILLE_ENERGIES:
        out = work / f"liouville{energy:g}"
        rc = runner.cli(["liouville", "--energy", repr(energy), "--out", str(out)])
        windows = json.loads((out / "liouville.json").read_text())["windows"]
        ref["liouville"][f"{energy:g}"] = {
            "exit": rc,
            "all_negative_and_sound": all(w["witness_negative"] and w["sound"] for w in windows),
            "q_min": [w["q_min"] for w in windows],
        }
        print("liouville", energy, ref["liouville"][f"{energy:g}"], flush=True)

    shutil.rmtree(work, ignore_errors=True)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
