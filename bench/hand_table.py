"""Best-of-3 wall clock of the CLI calls in the ROADMAP's hand-timed table.

    python3 bench/hand_table.py [--seed N] [--out FILE]

Same inputs, checks and process set-up as run.py; used to set the first
baseline beside the hand-taken numbers.
"""

import argparse
import json
import sys
from pathlib import Path

import run
import workloads

REPEATS = 3


def jobs(seed, work) -> dict:
    entropy, rng = workloads.rng_for(seed, 99, 0)
    inputs = workloads.Inputs(work, "hand")
    P = workloads.positive_chain(rng, 500)
    K = workloads.reversible_chain(rng, 500)
    help_job = workloads.Job("help", ["--help"], 0, None, entropy,
                             lambda code, out, err: (code == 0, 0.0, f"exit {code}"))
    return {
        "--help (import only)": help_job,
        "analyze n=500": inputs.analyze("analyze", P, rng.standard_normal(500), False,
                                        entropy),
        "verify n=500": inputs.verify("verify", P, rng.standard_normal(500), False,
                                      entropy, 0),
        "compare n=500": inputs.compare("compare", K, rng, entropy),
        "simulate 10^6 steps": inputs.simulate(
            "simulate", workloads.positive_chain(rng, 200), rng.standard_normal(200),
            1_000_000, entropy, 0),
        "reproduce-examples": workloads.SmallCli._catalog(entropy),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    env = run.program_env()
    best = {}
    with run.workdir() as work:
        env["BENCH_PEAK_FILE"] = str(work / "peak_kb")
        run.import_wall(env, work)
        for label, job in jobs(args.seed, work).items():
            walls = []
            for _ in range(REPEATS):
                code, wall, out, err = run.run_process(
                    [sys.executable, "-c", run.PROGRAM, *job.args], env, work)
                record = run.checked(job, code, out, err)
                if not record["ok"]:
                    sys.exit(f"error: {label}: {record['reason']}")
                walls.append(wall)
            best[label] = min(walls)
            print(f"{label:<24} {best[label]:.3f} s")
        about = run.machine()
    if args.out:
        args.out.write_text(json.dumps({"machine": about, "best_of_3_s": best}, indent=1)
                            + "\n")


if __name__ == "__main__":
    main()
