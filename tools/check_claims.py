#!/usr/bin/env python3
"""Check EXPERIMENTS.md's headline-claims table against the figure CSVs.

Usage: check_claims.py [ROOT]

ROOT (default: the repository this script lives in) holds EXPERIMENTS.md
and tpdbt_results/*.csv. Each row of the "Headline claims" table quotes
numbers read off the committed figure CSVs; this script re-derives every
row's "Measured" cell from the CSVs and exits non-zero, naming each row
whose cell disagrees with what the CSVs give. A figure change that moves
a crossover, a cost share or a peak then fails here with the paper claim
it moved, not just as a CSV byte diff.
"""

import csv
import os
import sys


def load_csv(root, figure):
    """The figure's rows as {threshold label: {column: float}}, in order."""
    path = os.path.join(root, "tpdbt_results", figure + ".csv")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    table = {}
    for row in body:
        table[row[0]] = {c: float(v) for c, v in zip(header[1:], row[1:])}
    return table


def threshold_value(label):
    """Numeric threshold of a row label ("500", "2k", "1M"); None for train."""
    scale = {"k": 1000, "M": 1000000}
    if label[-1] in scale:
        return int(label[:-1]) * scale[label[-1]]
    return int(label) if label.isdigit() else None


def thresholds(table):
    return [t for t in table if threshold_value(t) is not None]


def crossover(table, column):
    """The first threshold whose INIP error is at or below the train
    reference, and the threshold before it."""
    train = table["train"][column]
    ts = thresholds(table)
    for prev, cur in zip(ts, ts[1:]):
        if table[cur][column] <= train < table[prev][column]:
            return prev, cur
    raise ValueError(f"{column} INIP never crosses its train reference")


def int_crossover(root):
    fig = load_csv(root, "fig08_sd_bp")
    lo, hi = crossover(fig, "int")
    return (f"Sd.BP(train)={fig['train']['int']:.3f}; INIP crosses it between "
            f"{lo} ({fig[lo]['int']:.3f}) and {hi} ({fig[hi]['int']:.3f})")


def fp_crossover(root):
    fig = load_csv(root, "fig08_sd_bp")
    lo, hi = crossover(fig, "fp")
    return (f"Sd.BP(train)={fig['train']['fp']:.3f}; INIP({lo})="
            f"{fig[lo]['fp']:.3f}, INIP({hi})={fig[hi]['fp']:.3f}")


def ops_share(root):
    fig = load_csv(root, "fig18_profiling_ops")
    return (f"{fig['500']['all'] * 100:.2f}% at 500, "
            f"{fig['2k']['all'] * 100:.2f}% at 2k (all-suite)")


def ops_ratio(root):
    fig = load_csv(root, "fig18_profiling_ops")
    return f"all-suite ratio {fig['1M']['all']:.2f} at 1M"


def performance(root):
    fig = load_csv(root, "fig17_performance")
    peak = max(thresholds(fig), key=lambda t: fig[t]["int"])
    return (f"INT peak +{(fig[peak]['int'] - 1) * 100:.1f}% at {peak}; "
            f"{fig['1M']['int']:.2f} at 1M, {fig['4M']['int']:.2f} at 4M")


def persistence(root):
    sd = load_csv(root, "fig09_sd_bp_int")
    mismatch = load_csv(root, "fig11_bp_mismatch_int")
    through = [t for t in thresholds(sd) if threshold_value(t) <= 160000]
    mcf_floor = min(sd[t]["mcf"] for t in through)
    below = [t for t in thresholds(mismatch) if threshold_value(t) < 1000]
    # "High": above the training input's own mismatch at every such T.
    gzip_high = all(mismatch[t]["gzip"] > mismatch["train"]["gzip"]
                    for t in below)
    return (f"mcf Sd.BP ≥ {mcf_floor:.3f} through {through[-1]}; gzip "
            f"mismatch {'high' if gzip_high else 'not high'} below 1k")


# Claim-column prefix -> derivation of the Measured column, in table order.
ROWS = [
    ("INT: INIP(2k)", int_crossover),
    ("FP: INIP(500)", fp_crossover),
    ("Initial profiles at T=500..2k", ops_share),
    ("Training run ≈ INIP(T>1M)", ops_ratio),
    ("Best performance at moderate thresholds", performance),
    ("Phase-heavy benchmarks", persistence),
]


def headline_rows(root):
    """The headline table's rows as (claim, measured) pairs."""
    with open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = lines.index("## Headline claims (paper Section 5)")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("Claim", "---"):
            continue
        rows.append((cells[0], cells[2]))
    return rows


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    table = headline_rows(root)
    failures = []
    if len(table) != len(ROWS):
        failures.append(f"headline table has {len(table)} rows, "
                        f"the checker knows {len(ROWS)}")
    for (claim, measured), (prefix, derive) in zip(table, ROWS):
        if not claim.startswith(prefix):
            failures.append(f"row '{claim}': expected a '{prefix}' row")
            continue
        try:
            want = derive(root)
        except (ValueError, KeyError) as e:
            failures.append(f"row '{prefix}': cannot derive from the CSVs: {e}")
            continue
        if measured != want:
            failures.append(f"row '{prefix}': table says '{measured}', "
                            f"CSVs give '{want}'")
    for f in failures:
        print("check_claims: " + f, file=sys.stderr)
    if failures:
        return 1
    print(f"check_claims: {len(ROWS)} headline rows agree with the CSVs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
