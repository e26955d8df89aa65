"""Record the reference outputs that ``run.py`` checks rounds against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the forge digests pin byte-identical output)::

    python3 perfbench/record.py

For every input set it stores the ``train`` final loss and accuracies and the
two ``forge`` digests, and confirms that the ``certify`` round passes, into
``perfbench/references.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, SRC, git_revision, src_digest

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    refs: dict = {"recorded_at": {"git_revision": git_revision(), "src_sha256": src_digest()},
                  "train": {}, "forge": {}}
    for s in range(workloads.INPUT_SETS):
        train = workloads.TrainWorkload(s, eval_passes=1)
        train.setup()
        refs["train"][str(s)] = train.summary(train.run_round())
        forge = workloads.ForgeWorkload(s, OUT / "record-forge")
        forge.setup()
        refs["forge"][str(s)] = forge.summary(forge.run_round())
        shutil.rmtree(OUT / "record-forge")
        certify = workloads.CertifyWorkload(s)
        failures = certify.check(certify.run_round()).failures
        if failures:
            print(f"input set {s}: certify fails: {failures}", file=sys.stderr)
            return 1
        print(s, refs["train"][str(s)], flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
