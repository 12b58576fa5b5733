#!/usr/bin/env python3
"""Generate a synthetic topic-structured corpus as train/valid/test text files.

Example:
    python scripts/make_synthetic_corpus.py --out data/synth \
        --train 10000 --valid 1000 --test 1000 --vocab 2100 --topics 50
"""

import argparse

from diffetm.synth import write_split_files


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--train", type=int, default=10000)
    ap.add_argument("--valid", type=int, default=1000)
    ap.add_argument("--test", type=int, default=1000)
    ap.add_argument("--vocab", type=int, default=2100)
    ap.add_argument("--topics", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--min-len", type=int, default=40)
    ap.add_argument("--max-len", type=int, default=120)
    ap.add_argument("--background", type=float, default=0.0,
                    help="shared unigram mass mixed into every document")
    args = ap.parse_args()

    paths = write_split_files(
        args.out, args.train, args.valid, args.test,
        vocab_size=args.vocab, n_topics=args.topics, seed=args.seed,
        doc_len_range=(args.min_len, args.max_len),
        background_weight=args.background,
    )
    for name, path in paths.items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
