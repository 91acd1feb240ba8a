"""End-to-end demo: synthesize a log with planted anomalies, then find them.

Generates a seeded workload, runs the full pipeline, prints the report for
each planted entity, and writes the artifacts with the planted entities' charts.

    python3 scripts/demo_pipeline.py --out demo_out
"""

import argparse
import sys
from pathlib import Path

from comborank import RunSettings
from comborank.cli import RunConfig, run_pipeline
from comborank.synthgen import generate_log, planted_config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--entries", type=int, default=80_000)
    parser.add_argument("--plants", type=int, default=2)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    log = args.out / "synthetic_log.csv"
    config = planted_config(args.seed, n_plants=args.plants, total_entries=args.entries)
    manifest = generate_log(config, log, args.out / "plant_manifest.json")
    print(f"generated {config.total_entries} entries -> {log}")
    for plant in manifest.planted:
        print(f"  planted {plant.entity} into {'/'.join(plant.combination)} "
              f"({plant.records} extra records)")

    settings = RunSettings(
        categories=tuple(v.name for v in config.categories),
        entity=config.entities.name,
        p=2,
        k=5,
        min_support=10,
    )
    planted = [plant.entity for plant in manifest.planted]
    result = run_pipeline(RunConfig((log,), args.out, settings, report_format="csv"), planted)
    for path in result.written:
        print(f"wrote {path}")

    hit = 0
    for plant in manifest.planted:
        report = result.kept[plant.entity]
        listed = [item.combination for item in report.items]
        position = listed.index(plant.combination) + 1 if plant.combination in listed else None
        hit += position is not None
        print(f"\n{plant.entity}: mrr={report.mrr:.4f} expected_rank={report.expected_rank:.1f}")
        for item in report.items:
            flag = "  <- planted" if item.combination == plant.combination else ""
            print(f"  {'/'.join(item.combination):<40} distance={item.distance:.4f} "
                  f"rank={item.rank}/{item.cohort_size}{flag}")
    print(f"\nrecovered {hit} of {len(manifest.planted)} planted combinations in the top 5")
    return 0 if hit == len(manifest.planted) else 1


if __name__ == "__main__":
    sys.exit(main())
