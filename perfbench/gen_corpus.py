#!/usr/bin/env python3
"""Write a synthetic train/valid/test corpus as text files (the load generator).

    python3 perfbench/gen_corpus.py OUT_DIR '{"n_train": 100, ..., "seed": 3}'

The JSON object holds the keyword arguments of diffetm.synth.write_split_files.
The benchmark runs this in a child process so that the generator's memory and
time stay out of the program's measured process; its time counts in setup_s.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffetm.synth import write_split_files  # noqa: E402


def main() -> None:
    out_dir, spec = sys.argv[1], json.loads(sys.argv[2])
    write_split_files(out_dir, **spec)


if __name__ == "__main__":
    main()
