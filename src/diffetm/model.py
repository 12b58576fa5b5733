"""Topic model forward pass and losses.

A document's normalized bag-of-words X feeds three encoder networks: one
produces an enhanced representation X0 that a forward-diffusion process
noises into the latent driver eps, the other two produce the Gaussian
posterior parameters (mu, log sigma^2).  The latent z = eps * sigma + mu
softmaxes into the document-topic distribution theta, the decoder factors
the topic-word distribution beta through topic and word embeddings, and
theta @ beta reconstructs X.  The objective is reconstruction
cross-entropy plus a weighted closed-form Gaussian KL.

Modes:
  diffusion     eps ~ sqrt(abar_T) * X0 + sqrt(1 - abar_T) * N(0, I)
  no_diffusion  eps = X0 (the noising step removed)
  standard_etm  eps ~ N(0, I), X0 unused (the classic embedded topic model)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

MODES = ("diffusion", "no_diffusion", "standard_etm")


class InvalidSchedule(ValueError):
    """Noise schedule parameters outside the valid range."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise variances beta_t, their complements, and the running
    product alpha_bar that governs the one-shot closed-form marginal."""

    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @property
    def final_alpha_bar(self) -> float:
        return float(self.alpha_bar[-1]) if self.steps > 0 else 1.0


def linear_schedule(steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Evenly spaced beta_1..beta_T from beta_start to beta_end.

    A single step uses beta_start alone; zero steps yield the empty
    schedule (alpha_bar treated as 1, i.e. no noising).
    """
    if steps < 0:
        raise InvalidSchedule(f"steps must be >= 0, got {steps}")
    if beta_start < 0.0 or beta_end >= 1.0 or beta_start > beta_end:
        raise InvalidSchedule(
            f"need 0 <= beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    if steps == 0:
        beta = np.zeros(0)
    elif steps == 1:
        beta = np.array([beta_start])
    else:
        beta = np.linspace(beta_start, beta_end, steps)
    alpha = 1.0 - beta
    return NoiseSchedule(steps=steps, beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha))


@dataclass
class ModelConfig:
    """Architecture and sampling configuration.

    The latent width equals num_topics so the diffusion driver eps lines up
    with the reparameterized z without projection.
    """

    num_topics: int = 50
    embed_size: int = 300
    hidden_size: int = 800
    diff_steps: int = 100
    beta_start: float = 0.0
    beta_end: float = 0.02
    kl_weight: float = 1.0
    mode: str = "diffusion"
    seed: int = 0

    def validate(self) -> None:
        if self.num_topics < 2:
            raise ValueError(f"num_topics must be >= 2, got {self.num_topics}")
        if self.embed_size < 1:
            raise ValueError(f"embed_size must be >= 1, got {self.embed_size}")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.kl_weight < 0:
            raise ValueError(f"kl_weight must be >= 0, got {self.kl_weight}")
        if self.diff_steps < 0:
            raise ValueError(f"diff_steps must be >= 0, got {self.diff_steps}")
        if not (0.0 <= self.beta_start <= self.beta_end < 1.0):
            raise ValueError(
                f"need 0 <= beta_start <= beta_end < 1, got "
                f"({self.beta_start}, {self.beta_end})"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def schedule(self) -> NoiseSchedule:
        return linear_schedule(self.diff_steps, self.beta_start, self.beta_end)


# encoder parameter-name prefixes, in checkpoint order
ENCODER_PREFIXES = ("diff", "mu", "sigma")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(config: ModelConfig, vocab_size: int, rng: np.random.Generator) -> ad.ParamStore:
    """Glorot-uniform weights, zero biases, seeded by the caller's rng."""
    config.validate()
    v, h, k, e = vocab_size, config.hidden_size, config.num_topics, config.embed_size
    store = ad.ParamStore()
    for prefix in ENCODER_PREFIXES:
        store.add(f"{prefix}.w1", _glorot(rng, v, h))
        store.add(f"{prefix}.b1", np.zeros((1, h)))
        store.add(f"{prefix}.w2", _glorot(rng, h, h))
        store.add(f"{prefix}.b2", np.zeros((1, h)))
        store.add(f"{prefix}.w3", _glorot(rng, h, k))
        store.add(f"{prefix}.b3", np.zeros((1, k)))
    store.add("topic_emb", _glorot(rng, k, e))
    store.add("word_emb", _glorot(rng, v, e))
    return store


def check_param_shapes(store: ad.ParamStore, config: ModelConfig, vocab_size: int) -> None:
    """Verify the store's arrays chain correctly for this configuration."""
    v, h, k, e = vocab_size, config.hidden_size, config.num_topics, config.embed_size
    expect = {}
    for p in ENCODER_PREFIXES:
        expect.update({
            f"{p}.w1": (v, h), f"{p}.b1": (1, h),
            f"{p}.w2": (h, h), f"{p}.b2": (1, h),
            f"{p}.w3": (h, k), f"{p}.b3": (1, k),
        })
    expect["topic_emb"] = (k, e)
    expect["word_emb"] = (v, e)
    for name, shape in expect.items():
        if name not in store:
            raise ValueError(f"missing parameter {name!r}")
        got = store[name].data.shape
        if got != shape:
            raise ValueError(f"parameter {name!r} has shape {got}, expected {shape}")


def store_vocab_size(store: ad.ParamStore) -> int:
    return store["word_emb"].rows


# ---------------------------------------------------------------------------
# forward operations


def _mlp3(x: ad.Tensor, store: ad.ParamStore, prefix: str) -> ad.Tensor:
    """Three affine layers with two interleaved ReLUs."""
    h1 = ad.relu(ad.affine(x, store[f"{prefix}.w1"], store[f"{prefix}.b1"]))
    h2 = ad.relu(ad.affine(h1, store[f"{prefix}.w2"], store[f"{prefix}.b2"]))
    return ad.affine(h2, store[f"{prefix}.w3"], store[f"{prefix}.b3"])


def encode_x0(x_norm: ad.Tensor, store: ad.ParamStore) -> ad.Tensor:
    """Enhanced document representation feeding the diffusion process."""
    return _mlp3(x_norm, store, "diff")


def encode_mu_logvar(x_norm: ad.Tensor, store: ad.ParamStore) -> tuple[ad.Tensor, ad.Tensor]:
    """Posterior mean and log-variance from two independent encoders.

    The second head is read as log sigma^2; exponentiation guarantees a
    positive standard deviation.
    """
    return _mlp3(x_norm, store, "mu"), _mlp3(x_norm, store, "sigma")


def sample_eps(
    x0: ad.Tensor | None,
    schedule: NoiseSchedule,
    rng: np.random.Generator | None,
    mode: str,
    shape: tuple[int, int] | None = None,
) -> ad.Tensor:
    """The latent driver eps for one batch.

    Given an rng, eps is drawn (the sampled path); without one it is its
    conditional mean given X0 and no randomness is consumed (the
    deterministic path).  diffusion uses the one-shot closed form of running
    the noising chain to its end; with an empty schedule (or beta
    identically 0) X0 passes through unchanged.  standard_etm has no X0 in
    the model, so shape gives the size of eps there.
    """
    if mode == "no_diffusion":
        return x0
    if mode == "standard_etm":
        shape = x0.data.shape if shape is None else shape
        return ad.Tensor(np.zeros(shape) if rng is None else rng.standard_normal(shape))
    if mode != "diffusion":
        raise ValueError(f"unknown mode {mode!r}")
    abar = schedule.final_alpha_bar
    if abar == 1.0:
        return x0
    if rng is None:
        return ad.scale(x0, math.sqrt(abar))
    noise = rng.standard_normal(x0.data.shape)
    return ad.add(
        ad.scale(x0, math.sqrt(abar)),
        ad.Tensor(math.sqrt(1.0 - abar) * noise),
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
    x_counts: np.ndarray,
    x_prime: ad.Tensor,
    clamp: float | None = 1e-12,
) -> ad.Tensor:
    """Negative log-likelihood -sum(X * log X') averaged over documents.

    clamp guards the log against softmax underflow; pass None to disable,
    in which case a nonpositive entry raises DomainError.
    """
    n_docs = x_counts.shape[0]
    logged = ad.log_rows(x_prime if clamp is None else ad.clamp_min(x_prime, clamp))
    return ad.scale(ad.sum_all(ad.hadamard(ad.Tensor(x_counts), logged)), -1.0 / n_docs)


def kl_loss(mu: ad.Tensor, logvar: ad.Tensor) -> ad.Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0, I)) averaged over documents."""
    if mu.data.shape != logvar.data.shape:
        raise ad.ShapeMismatch(f"kl_loss: {mu.data.shape} vs {logvar.data.shape}")
    n_docs = mu.rows
    term = ad.add_scalar(
        ad.sub(ad.add(ad.hadamard(mu, mu), ad.exp(logvar)), logvar), -1.0
    )
    # every term is >= 0 in exact arithmetic, but rounding can carry a sum
    # of near-zero terms just below 0
    return ad.clamp_min(ad.scale(ad.sum_all(term), 0.5 / n_docs), 0.0)


def total_loss(recon: ad.Tensor, kl: ad.Tensor, weight: float) -> ad.Tensor:
    """recon + weight * kl."""
    if weight < 0:
        raise ValueError(f"kl weight must be >= 0, got {weight}")
    return ad.add(recon, ad.scale(kl, weight))


@dataclass
class LatentBatch:
    """Per-document intermediate arrays for one batch.

    x0 is None in standard_etm mode, where the enhanced representation is
    never computed.
    """

    x0: np.ndarray | None
    eps: np.ndarray
    mu: np.ndarray
    logvar: np.ndarray
    z: np.ndarray
    theta: np.ndarray


@dataclass
class ForwardResult:
    latents: LatentBatch
    recon: ad.Tensor
    kl: ad.Tensor
    total: ad.Tensor

    def values(self) -> tuple[float, float, float]:
        return self.recon.item(), self.kl.item(), self.total.item()


def _forward_core(
    x_counts: np.ndarray,
    store: ad.ParamStore,
    config: ModelConfig,
    rng: np.random.Generator | None,
) -> tuple[LatentBatch, ad.Tensor, ad.Tensor, ad.Tensor]:
    """Encoders, latent driver and decoder, shared by training and
    evaluation; returns the latents, mu, logvar and the reconstruction X'."""
    config.validate()
    totals = x_counts.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("forward_batch: a document row has zero tokens")
    x_norm = ad.Tensor(x_counts / totals)

    x0 = None if config.mode == "standard_etm" else encode_x0(x_norm, store)
    eps = sample_eps(x0, config.schedule(), rng, config.mode, (x_norm.rows, config.num_topics))
    mu, logvar = encode_mu_logvar(x_norm, store)
    z = reparameterize(eps, mu, logvar)
    theta = doc_topic_dist(z)
    beta = topic_word_dist(store["topic_emb"], store["word_emb"])
    x_prime = reconstruct(theta, beta)

    latents = LatentBatch(
        x0=None if x0 is None else x0.data,
        eps=eps.data,
        mu=mu.data,
        logvar=logvar.data,
        z=z.data,
        theta=theta.data,
    )
    return latents, mu, logvar, x_prime


def forward_batch(
    x_counts: np.ndarray,
    store: ad.ParamStore,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Full forward pass with losses over a batch of raw count rows.

    Given an rng, eps is sampled (training); without one it is replaced by
    its conditional mean and no randomness is consumed (evaluation).  One
    beta is shared by every document of the batch.
    """
    latents, mu, logvar, x_prime = _forward_core(x_counts, store, config, rng)
    recon = reconstruction_loss(x_counts, x_prime)
    kl = kl_loss(mu, logvar)
    total = total_loss(recon, kl, config.kl_weight)
    return ForwardResult(latents=latents, recon=recon, kl=kl, total=total)


def predict_batch(
    x_counts: np.ndarray,
    store: ad.ParamStore,
    config: ModelConfig,
) -> tuple[LatentBatch, np.ndarray]:
    """Evaluation pass on the deterministic path: the latents and X', with
    no loss and no graph."""
    with ad.no_grad():
        latents, _, _, x_prime = _forward_core(x_counts, store, config, None)
    return latents, x_prime.data
