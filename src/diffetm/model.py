"""Topic model forward pass and losses.

A document's normalized bag-of-words X feeds three encoder networks: one
produces an enhanced representation X0 that a forward-diffusion process
noises into the latent driver eps, the other two produce the Gaussian
posterior parameters (mu, log sigma^2).  The latent z = eps * sigma + mu
softmaxes into the document-topic distribution theta, the decoder factors
the topic-word distribution beta through topic and word embeddings, and
theta @ beta reconstructs X.  The objective is reconstruction
cross-entropy plus a weighted closed-form Gaussian KL.

Modes, each one case of eps ~ sqrt(abar) * X0 + sqrt(1 - abar) * N(0, I):
  diffusion     abar = alpha_bar_T of the noise schedule
  no_diffusion  abar = 1, so eps = X0 (the noising step removed)
  standard_etm  no X0, so eps ~ N(0, I) (the classic embedded topic model)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import Batch

MODES = ("diffusion", "no_diffusion", "standard_etm")


class InvalidSchedule(ValueError):
    """Noise schedule parameters outside the valid range."""


# the most diffusion steps a config may ask for: the count sizes an array, and
# a checkpoint header is untrusted input
MAX_DIFF_STEPS = 10_000
# the floor under X' before its log, against softmax underflow
LOG_FLOOR = 1e-12


def final_alpha_bar(steps: int, beta_start: float, beta_end: float) -> float:
    """alpha_bar_T, the product of (1 - beta_t) over beta_1..beta_T evenly
    spaced from beta_start to beta_end: the signal share left after the
    noising chain has run to its end.

    A single step uses beta_start alone; zero steps give 1 (no noising).
    """
    if not 0 <= steps <= MAX_DIFF_STEPS:
        raise InvalidSchedule(f"steps must be in [0, {MAX_DIFF_STEPS}], got {steps}")
    if not (0.0 <= beta_start <= beta_end < 1.0):  # also rejects NaN
        raise InvalidSchedule(
            f"need 0 <= beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    return float(np.prod(1.0 - np.linspace(beta_start, beta_end, steps)))


def check_minimums(config, minimums: dict[str, float]) -> None:
    """Raise ValueError naming the first field of config below its minimum, or NaN."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass
class ModelConfig:
    """Architecture and sampling configuration.

    The latent width equals num_topics so the diffusion driver eps lines up
    with the reparameterized z without projection.
    """

    num_topics: int = 50  # number of topics K
    embed_size: int = 300  # word/topic embedding width
    hidden_size: int = 800  # encoder hidden width
    diff_steps: int = 100  # forward-diffusion step count T
    beta_start: float = 0.0  # first noise-schedule beta
    beta_end: float = 0.02  # last noise-schedule beta
    kl_weight: float = 1.0  # weight of the KL term in the loss
    mode: str = "diffusion"  # diffusion | no_diffusion | standard_etm
    seed: int = 0  # master seed for init/shuffle/noise streams

    def validate(self) -> None:
        check_minimums(self, {"num_topics": 2, "embed_size": 1, "hidden_size": 1, "kl_weight": 0})
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 2**63:  # a checkpoint header stores a signed 64-bit seed
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
        self.alpha_bar()  # the step and beta-range rules; InvalidSchedule is a ValueError

    def alpha_bar(self) -> float:
        """The abar of the latent driver: alpha_bar_T of the schedule, or 1 in
        no_diffusion; the schedule is checked in every mode."""
        abar = final_alpha_bar(self.diff_steps, self.beta_start, self.beta_end)
        return 1.0 if self.mode == "no_diffusion" else abar


# encoder parameter-name prefixes, in checkpoint order
ENCODER_PREFIXES = ("diff", "mu", "sigma")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, int]]:
    """Every parameter's shape for this configuration, in checkpoint order."""
    v, h, k, e = vocab_size, config.hidden_size, config.num_topics, config.embed_size
    shapes = {}
    for p in ENCODER_PREFIXES:
        shapes.update({
            f"{p}.w1": (v, h), f"{p}.b1": (1, h),
            f"{p}.w2": (h, h), f"{p}.b2": (1, h),
            f"{p}.w3": (h, k), f"{p}.b3": (1, k),
        })
    shapes["topic_emb"] = (k, e)
    shapes["word_emb"] = (v, e)
    return shapes


def init_params(config: ModelConfig, vocab_size: int, rng: np.random.Generator) -> ad.ParamStore:
    """Glorot-uniform weights, zero biases, seeded by the caller's rng.

    The parameters are float32, the dtype the model computes in; the
    weights are drawn in float64 and rounded, one after another in
    checkpoint order.
    """
    config.validate()
    store = ad.ParamStore()
    for name, shape in param_shapes(config, vocab_size).items():
        if ".b" in name:  # the biases start at zero and draw nothing
            store.add(name, np.zeros(shape, dtype=np.float32))
        else:
            store.add(name, _glorot(rng, *shape))
    return store


def check_param_shapes(store: ad.ParamStore, config: ModelConfig, vocab_size: int) -> None:
    """Verify the store's arrays chain correctly for this configuration."""
    expect = param_shapes(config, vocab_size)
    for name in store.names():
        if name not in expect:
            raise ValueError(f"unexpected parameter {name!r}")
    for name, shape in expect.items():
        if name not in store:
            raise ValueError(f"missing parameter {name!r}")
        got = store[name].data.shape
        if got != shape:
            raise ValueError(f"parameter {name!r} has shape {got}, expected {shape}")


def store_vocab_size(store: ad.ParamStore) -> int:
    return store["word_emb"].rows


def store_dtype(store: ad.ParamStore) -> np.dtype:
    """The dtype the model computes in: that of its parameters."""
    return store["word_emb"].data.dtype


# ---------------------------------------------------------------------------
# forward operations


def _mlp3(x_norm, store: ad.ParamStore, prefix: str) -> ad.Tensor:
    """Three affine layers, the first two with a fused ReLU; the first reads
    the batch's sparse x_norm over its nonzeros alone."""
    h1 = ad.sparse_affine(x_norm, store[f"{prefix}.w1"], store[f"{prefix}.b1"], relu=True)
    h2 = ad.affine(h1, store[f"{prefix}.w2"], store[f"{prefix}.b2"], relu=True)
    return ad.affine(h2, store[f"{prefix}.w3"], store[f"{prefix}.b3"])


def encode_x0(x_norm, store: ad.ParamStore) -> ad.Tensor:
    """Enhanced document representation feeding the diffusion process, from
    a batch's CSC x_norm."""
    return _mlp3(x_norm, store, "diff")


def encode_mu_logvar(x_norm, store: ad.ParamStore) -> tuple[ad.Tensor, ad.Tensor]:
    """Posterior mean and log-variance from two independent encoders, from a
    batch's CSC x_norm.

    The second head is read as log sigma^2; exponentiation guarantees a
    positive standard deviation.
    """
    return _mlp3(x_norm, store, "mu"), _mlp3(x_norm, store, "sigma")


def sample_eps(
    x0: ad.Tensor | None,
    abar: float,
    rng: np.random.Generator | None,
    shape: tuple[int, int],
    dtype: np.dtype,
) -> ad.Tensor:
    """The latent driver eps = sqrt(abar) * X0 + sqrt(1 - abar) * n for one
    batch, n ~ N(0, I): the one-shot closed form of running the noising
    chain to its end.

    Given an rng, n is drawn (the sampled path); without one eps is its
    conditional mean given X0 and no randomness is consumed (the
    deterministic path).  At abar = 1 X0 passes through unchanged.  Without
    X0 (standard_etm) eps is n itself, of the given shape.

    Noise is always drawn in float64, so the rng stream does not depend on
    the dtype, and then cast to dtype.
    """
    if x0 is None:
        if rng is None:
            return ad.Tensor(np.zeros(shape, dtype=dtype))
        return ad.Tensor(rng.standard_normal(shape).astype(dtype, copy=False))
    if abar == 1.0:
        return x0
    if rng is None:
        return ad.scale(x0, math.sqrt(abar))
    noise = rng.standard_normal(x0.data.shape)
    return ad.add(
        ad.scale(x0, math.sqrt(abar)),
        ad.Tensor((math.sqrt(1.0 - abar) * noise).astype(dtype, copy=False)),
    )


def reparameterize(eps: ad.Tensor, mu: ad.Tensor, logvar: ad.Tensor) -> ad.Tensor:
    """z = eps * exp(logvar / 2) + mu."""
    std = ad.exp(ad.scale(logvar, 0.5))
    return ad.add(ad.hadamard(eps, std), mu)


def doc_topic_dist(z: ad.Tensor) -> ad.Tensor:
    """Row softmax of the latent; each row is a topic distribution."""
    return ad.softmax_rows(z)


def topic_word_dist(topic_emb: ad.Tensor, word_emb: ad.Tensor) -> ad.Tensor:
    """Row softmax over the vocabulary of topic_emb @ word_emb^T."""
    return ad.softmax_rows(ad.matmul(topic_emb, ad.transpose(word_emb)))


def reconstruct(theta: ad.Tensor, beta: ad.Tensor) -> ad.Tensor:
    """theta @ beta; rows stay stochastic because both factors are."""
    return ad.matmul(theta, beta)


def reconstruction_loss(
    batch: Batch,
    x_prime: ad.Tensor,
) -> ad.Tensor:
    """Negative log-likelihood -sum(X * log X') averaged over documents.

    Only the entries with a nonzero count can contribute, so X' is read at
    the batch's entries alone (``autodiff.log_likelihood``); every other
    entry of X' gets a zero gradient.  The floor LOG_FLOOR guards the log
    against softmax underflow.  The counts are taken in X''s dtype.
    """
    counts = batch.counts.astype(x_prime.data.dtype)
    log_lik = ad.log_likelihood(x_prime, batch.rows, batch.cols, counts, LOG_FLOOR)
    return ad.scale(log_lik, -1.0 / batch.shape[0])


def kl_loss(mu: ad.Tensor, logvar: ad.Tensor) -> ad.Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0, I)) averaged over documents."""
    kl_sum = ad.gaussian_kl(mu, logvar)
    # every term is >= 0 in exact arithmetic, but rounding can carry a sum
    # of near-zero terms just below 0
    return ad.clamp_min(ad.scale(kl_sum, 0.5 / mu.rows), 0.0)


def total_loss(recon: ad.Tensor, kl: ad.Tensor, weight: float) -> ad.Tensor:
    """recon + weight * kl."""
    return ad.add(recon, ad.scale(kl, weight))


@dataclass
class ForwardResult:
    recon: ad.Tensor
    kl: ad.Tensor
    total: ad.Tensor

    def values(self) -> tuple[float, float, float]:
        return self.recon.item(), self.kl.item(), self.total.item()


def _forward_core(
    batch: Batch,
    store: ad.ParamStore,
    config: ModelConfig,
    rng: np.random.Generator | None,
) -> tuple[ad.Tensor | None, ad.Tensor, ad.Tensor, ad.Tensor]:
    """Encoders, latent driver and decoder, shared by training and
    evaluation; returns X0 (None in standard_etm), mu, logvar and the
    reconstruction X'.

    Everything is computed in the dtype of the store's parameters, which
    the batch must have been built in.  The config is taken as validated
    (train and load_checkpoint validate it).
    """
    dtype = store_dtype(store)
    if batch.x_norm.dtype != dtype:
        raise ValueError(f"forward_batch: a {batch.x_norm.dtype} batch for {dtype} parameters")

    x0 = None if config.mode == "standard_etm" else encode_x0(batch.x_norm, store)
    eps = sample_eps(x0, config.alpha_bar(), rng, (batch.shape[0], config.num_topics), dtype)
    mu, logvar = encode_mu_logvar(batch.x_norm, store)
    z = reparameterize(eps, mu, logvar)
    theta = doc_topic_dist(z)
    beta = topic_word_dist(store["topic_emb"], store["word_emb"])
    return x0, mu, logvar, reconstruct(theta, beta)


def forward_batch(
    x_counts: Batch,
    store: ad.ParamStore,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Full forward pass with losses over a batch from corpus.dense_counts
    (x_counts keeps its name: the benchmark tracer binds it by name).

    Given an rng, eps is sampled (training); without one it is replaced by
    its conditional mean and no randomness is consumed (evaluation).  One
    beta is shared by every document of the batch.

    The loss releases X' once it has gathered the nonzero counts, before
    the backward allocates X''s gradient: X' must be read before this
    returns (wrap ``reconstruct``); reading it after raises GraphConsumed.
    """
    _, mu, logvar, x_prime = _forward_core(x_counts, store, config, rng)
    recon = reconstruction_loss(x_counts, x_prime)
    # no backward reads X''s value: the (B, V) array goes now
    x_prime.data = None
    kl = kl_loss(mu, logvar)
    total = total_loss(recon, kl, config.kl_weight)
    return ForwardResult(recon=recon, kl=kl, total=total)


def predict_batch(
    x_counts: Batch,
    store: ad.ParamStore,
    config: ModelConfig,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluation pass on the deterministic path: X0 (None in standard_etm),
    mu, logvar and X', with no loss and no graph."""
    with ad.no_grad():
        x0, mu, logvar, x_prime = _forward_core(x_counts, store, config, None)
    return None if x0 is None else x0.data, mu.data, logvar.data, x_prime.data
