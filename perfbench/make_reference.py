"""Write perfbench/reference.json from one seed-0 sample of every workload.

    python3 perfbench/make_reference.py

The reference holds the outputs that run.py compares seed-0 samples with.
Regenerate it only from a commit whose outputs are known to be right, and
only when a workload's inputs change; the file records the source digest it
was made from.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    out = run.HERE / "out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reference = {"src_sha256": run.src_digest(run.ROOT),
                 "git_commit": run.git_commit(run.ROOT)}
    for workload, command in run.COMMANDS.items():
        cfg = run.make_config(workload, 0)
        cfg_path = out / f"{workload}.json"
        cfg_path.write_text(json.dumps(cfg))
        record = run.run_sample(out, len(reference), "full",
                                [command, "--config", str(cfg_path)], 0)
        if record["exit_code"] != 0:
            print(f"{workload} exited with {record['exit_code']}",
                  file=sys.stderr)
            return 1
        _, rows = run._read_csv(record["csv"])
        if command == "sweep":
            if any(row["status"] != "ok" for row in rows):
                print(f"{workload} has error rows", file=sys.stderr)
                return 1
            entry = {"rows": [[float(row[c]) for c in
                               ("floquet_gap", "tc_distance", "star_re",
                                "star_im")] for row in rows]}
        elif command == "trace":
            entry = {"m_x": [float(row["m_x"]) for row in rows]}
        else:
            entry = {"checks": [row["name"] for row in rows]}
        reference[workload] = entry
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
