#!/usr/bin/env python3
"""Desk-scale mode comparison on a synthetic newsgroup-sized corpus.

Trains the full model, the noising-removed variant, and the classic
embedded topic model under identical seeds and configs.  It prints the
corpus size, then for each (seed, mode) the best validation perplexity,
its epoch and the run's seconds; then, per seed, the three best
perplexities side by side, and in how many seeds diffusion is below
standard_etm and below no_diffusion.

At the defaults (10000 training documents, V=2071, hidden width 128, 60
epochs) one (seed, mode) run takes 38-44 s on a 2-core x86_64 host.
"""

import argparse
import time

from diffetm.corpus import ingest_presplit
from diffetm.model import ModelConfig
from diffetm.synth import write_split_files
from diffetm.trainer import TrainConfig, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="desk_check")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--hidden", type=int, default=128)
    ap.add_argument("--corpus-seed", type=int, default=100)
    args = ap.parse_args()

    paths = write_split_files(
        f"{args.workdir}/raw", 10000, 1000, 1000,
        vocab_size=2100, n_topics=50, seed=args.corpus_seed,
    )
    data, report = ingest_presplit(
        paths["train"], paths["valid"], paths["test"], min_df=5
    )
    print(f"corpus: V={report.vocab_size} train={report.docs_kept['train']}")

    results: dict[tuple[int, str], float] = {}
    for seed in args.seeds:
        for mode in ("diffusion", "no_diffusion", "standard_etm"):
            mc = ModelConfig(
                num_topics=50, embed_size=300, hidden_size=args.hidden,
                mode=mode, seed=seed,
            )
            tc = TrainConfig(
                epochs=args.epochs, batch_size=1000, learning_rate=0.008,
                eval_every=2, max_checkpoints=1, deterministic=True,
            )
            t0 = time.time()
            rep = train(mc, tc, data)
            results[(seed, mode)] = rep.best_val_perplexity
            print(
                f"seed={seed} mode={mode:<12} best val ppl "
                f"{rep.best_val_perplexity:8.1f} at epoch {rep.best_epoch:3d} "
                f"({time.time() - t0:.0f}s)"
            )

    print("\nbest validation perplexity per seed:")
    wins_vs_etm = wins_vs_plain = 0
    for seed in args.seeds:
        d = results[(seed, "diffusion")]
        n = results[(seed, "no_diffusion")]
        s = results[(seed, "standard_etm")]
        wins_vs_etm += d < s
        wins_vs_plain += d < n
        print(f"  seed {seed}: diffusion {d:.1f} | no_diffusion {n:.1f} | standard {s:.1f}")
    print(f"diffusion < standard_etm in {wins_vs_etm}/{len(args.seeds)} seeds")
    print(f"diffusion < no_diffusion in {wins_vs_plain}/{len(args.seeds)} seeds")


if __name__ == "__main__":
    main()
