#!/usr/bin/env python3
"""Writes the benchmark's exhaustive reference tables from `tune` journals.

Each journal must come from an exhaustive search, for example

    build/tools/tune search --app cp --space large --strategy exhaustive \
        --jobs 4 --journal exh-cp-large.jsonl

Usage: tables_from_journals.py OUT_DIR APP-TIER=JOURNAL [APP-TIER=JOURNAL ...]

For every APP-TIER it writes OUT_DIR/configs/APP-TIER.tsv (one
"flat_index simulated_seconds" row per valid configuration) and a line
"app tier valid best_flat best_seconds" in OUT_DIR/optima.tsv.  Times keep
all 17 significant digits, so the harness compares them exactly.
"""
import json
import os
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = argv[1]
    os.makedirs(os.path.join(out_dir, "configs"), exist_ok=True)
    optima = ["# app tier valid best_flat best_seconds "
              "(exhaustive search, GeForce 8800 GTX model)"]
    for spec in argv[2:]:
        name, path = spec.split("=", 1)
        app, tier = name.rsplit("-", 1)
        rows = {}
        with open(path) as f:
            header = json.loads(f.readline())["hdr"]
            if header["strategy"] != "exhaustive" or header["space"] != tier:
                raise SystemExit(f"{path}: not an exhaustive {tier} journal")
            for line in f:
                rec = json.loads(line)["rec"]
                if rec["code"] != 0:
                    raise SystemExit(f"{path}: config {rec['idx']} failed")
                if rec["measured"]:
                    rows[rec["idx"]] = rec["time"]
        with open(os.path.join(out_dir, "configs", name + ".tsv"), "w") as f:
            for idx in sorted(rows):
                f.write(f"{idx} {rows[idx]!r}\n")
        best = min(sorted(rows), key=lambda i: rows[i])
        optima.append(f"{app} {tier} {len(rows)} {best} {rows[best]!r}")
    with open(os.path.join(out_dir, "optima.tsv"), "w") as f:
        f.write("\n".join(optima) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
