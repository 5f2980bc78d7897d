"""Run the three canonical Monte Carlo experiments and save JSON summaries.

Writes consistency.json, clt.json and acf.json under --out-dir.  Goes
through the CLI, so each file is identical to what `digar experiment
consistency|clt|acf` writes with the same arguments.  All runs are
seeded, so rerunning with the same arguments reproduces the files byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from digar.cli import parse_and_dispatch

# Extra CLI arguments per experiment; consistency and clt run at the CLI
# defaults (T=5000, R=500 and T=10000, R=2000).
RUNS = (
    ("consistency", []),
    ("clt", []),
    ("acf", ["-T", "204", "-R", "5000", "--t-obs", "200", "--k-max", "4"]),
)


def _report(kind: str, tree: dict) -> None:
    if kind == "consistency":
        hat, tilde = tree["ols"], tree["corrected"]
        print(
            f"consistency: mean plain slope {hat['estimate_mean']:.5f} "
            f"(limit {hat['target']:.5f}), mean corrected {tilde['estimate_mean']:.5f} "
            f"(target {tilde['target']:.3f})"
        )
    elif kind == "clt":
        m = tree["summary"]["standardized_moments"]
        print(
            f"clt: studentized mean {m['mean']:+.4f}, variance {m['variance']:.4f}, "
            f"KS distance {tree['summary']['ks_distance']:.4f}"
        )
    else:
        for r in tree["rows"]:
            print(
                f"acf k={r['k']}: levels {r['y_empirical']:+.4f} (limit {r['y_theory']:+.4f}), "
                f"innovations {r['xi_empirical']:+.4f} (limit {r['xi_theory']:+.4f})"
            )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phi", type=float, default=0.5)
    ap.add_argument("--rho", type=float, default=0.3)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    common = [f"--phi={args.phi!r}", f"--rho={args.rho!r}", f"--sigma={args.sigma!r}"]

    t0 = time.perf_counter()
    for kind, extra in RUNS:
        target = out_dir / f"{kind}.json"
        argv = ["experiment", kind, *common, "--seed", str(args.seed), *extra]
        code = parse_and_dispatch([*argv, "--out", str(target)])
        if code != 0:
            return code
        _report(kind, json.loads(target.read_text()))

    print(f"wrote {len(RUNS)} files to {out_dir}/ in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
