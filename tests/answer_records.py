"""Print what `register` answers on a fixed set of instances, one JSON line each.

    PYTHONPATH=src python tests/answer_records.py [--blocks 8] > answers.jsonl

Each line is {"case": ..., "record": ...}, the record being
`helpers.answer_record` of the call, or the refusal's message.  Two
checkouts that print the same lines give the same answers there: a change
meant to leave answers alone is checked by diffing its output against its
parent's.  The instances:

* seed 1, blocks 0 to --blocks - 1 of the benchmark's three register
  workloads (`perfbench/bench.register_block`);
* the two known99_n1000 instances whose first certificate is rejected, so
  that the certificate retry runs (seed 6, block 25, slot 1 and seed 1,
  block 177, slot 5);
* N = 1000 at 95% outliers and unknown scale, seeds 40000 to 40039;

each registered with certification off and on.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(Path(__file__).resolve().parent)]

from bench import WORKLOADS, RegisterWorkload, register_block  # noqa: E402
from helpers import answer_record  # noqa: E402
from tlsreg.geometry import TlsConfig  # noqa: E402
from tlsreg.pipeline import InsufficientInliersError, RegistrationOptions, register  # noqa: E402
from tlsreg.synthetic import SyntheticSpec, generate  # noqa: E402

RETRY_INSTANCES = ((6, 25, 1), (1, 177, 5))
SEEDS_95 = range(40_000, 40_040)


def instances(n_blocks: int):
    """(case name, correspondences, known scale or None) of every instance."""
    register_workloads = [w for w in WORKLOADS.values() if isinstance(w, RegisterWorkload)]
    for w in register_workloads:
        for block in range(n_blocks):
            for slot, inst in enumerate(register_block(w, 1, block)):
                yield f"{w.name}/1/{block}/{slot}", inst.corr, 1.0 if w.known_scale else None
    known99 = WORKLOADS["known99_n1000"]
    for seed, block, slot in RETRY_INSTANCES:
        inst = register_block(known99, seed, block)[slot]
        yield f"known99_n1000/{seed}/{block}/{slot}", inst.corr, 1.0
    for seed in SEEDS_95:
        spec = SyntheticSpec(n_points=1000, sigma=0.01, outlier_rate=0.95, seed=seed)
        yield f"outliers95_n1000/{seed}", generate(spec)[0], None


def answer(corr, known_scale, certify: bool):
    opts = RegistrationOptions(known_scale=known_scale, certify_rotation=certify)
    try:
        return answer_record(register(corr, TlsConfig(), opts))
    except InsufficientInliersError as e:
        return {"refused": str(e)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--blocks", type=int, default=8, help="register workload blocks 0 to BLOCKS - 1"
    )
    args = parser.parse_args(argv)
    for case, corr, known_scale in instances(args.blocks):
        for certify in (False, True):
            record = answer(corr, known_scale, certify)
            print(json.dumps({"case": f"{case}/certify={int(certify)}", "record": record}))


if __name__ == "__main__":
    main()
