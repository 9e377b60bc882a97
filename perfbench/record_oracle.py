"""Record the expected verdicts of the grid workloads.

    python3 perfbench/record_oracle.py

Writes perfbench/oracle/<workload>.json with the verdict tuple (check,
parameters, status, witness) of every report entry.  Run it only at a
commit whose reports are known to be right; the benchmark's failed count
compares later passes against these files.
"""

import json
import tempfile
from pathlib import Path

from worker import ORACLE_DIR, WORKLOADS, import_package

VERDICT_FIELDS = ("check", "parameters", "status", "witness")


def main() -> None:
    package = import_package()
    from homotopy_cumulants import cli, suites

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        exit_code = cli.main(WORKLOADS["verify-all-n4"].argv + ["--out", str(out)])
        verify_entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
    cumulant_entries = [e.to_json_dict() for e in suites.run_suite("cumulants", 5, 3)]
    ORACLE_DIR.mkdir(exist_ok=True)
    for name, entries, extra in (
            ("verify-all-n4", verify_entries, {"exit_code": exit_code}),
            ("cumulants-n5", cumulant_entries, {})):
        record = {"workload": name, "version": package.__version__, **extra,
                  "entries": [{k: e[k] for k in VERDICT_FIELDS} for e in entries]}
        (ORACLE_DIR / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(entries)} entries")


if __name__ == "__main__":
    main()
