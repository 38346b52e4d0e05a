"""End-to-end file workflow: dataset in, deterministic report out.

Writes a small CSV dataset and a JSON config to a temporary directory,
writes the report, and shows that the returned report is exactly the
file written and that the aggregate value can be reconstructed from the
report's own per-person records; the script exits 1 if either fails.
The same workflow is available from the command line:

    netpoverty compute --dataset data.csv --config config.json --out report.json
"""

import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import netpoverty as npv


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data_path = os.path.join(tmp, "data.csv")
        with open(data_path, "w", encoding="utf-8") as fh:
            fh.write("id,health,education,income\n")
            fh.write("p1,49,9,1250\n")
            fh.write("p2,80,16,400\n")
            fh.write("p3,72,12,1500\n")

        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "cutoffs": [70.0, 12.0, 1000.0],
                    "alpha": 1.0,
                    "k": {"mode": "fraction", "value": 0.33},
                    "dependence": [
                        [1.0, 0.2, 0.0],
                        [0.6, 1.0, 0.1],
                        [0.1, 0.5, 1.0],
                    ],
                },
                fh,
            )

        dataset = npv.load_dataset(data_path)
        config = npv.load_config(config_path)
        print("persons:", dataset.ids())
        print("resolved k:", round(config.k, 6), "of ceiling", round(config.score_ceiling, 6))

        report_path = os.path.join(tmp, "report.json")
        report = npv.run_report(dataset, config, out_path=report_path)
        with open(report_path, encoding="utf-8") as fh:
            written = json.load(fh)
        print("\nfgt_value       :", report["fgt_value"])
        print("headcount_ratio :", report["headcount_ratio"])
        for record in report["per_person"]:
            print(
                f"  {record['id']}: count {record['deprivation_count']}, "
                f"poor = {record['poor']}"
            )

        rebuilt = npv.recompute_fgt_value(report)
        same = report == written
        matches = abs(rebuilt - report["fgt_value"]) <= 1e-12
        print("\nreturned report equals the file written:", same)
        print("value rebuilt from per-person records:", rebuilt)
        print("matches to 1e-12:", matches)
        return 0 if same and matches else 1


if __name__ == "__main__":
    sys.exit(main())
