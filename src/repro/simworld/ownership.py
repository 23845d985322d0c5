"""Game libraries: who owns how many of which games (Section 5, Figure 4).

Library sizes follow the Table 3 anchored marginal over *owners*, with the
owner fraction solved so the population mean matches the paper's
384.3 M / 108.7 M games per account.  A tiny collector mixture reproduces
Figure 4's extreme tail and its 1268-1290 "bundle bump".  Which games a
user owns is popularity-weighted, with a per-user price tilt (derived from
the ``price`` latent) that decouples account market value from raw library
size — the paper's market-value homophily (0.77) is much stronger than its
library-size homophily (0.45), so the two must not be rank-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simworld.catalog import CatalogTruth
from repro.simworld.config import OwnershipConfig
from repro.simworld.copula import LatentFactors, conditional_uniform
from repro.simworld.marginals import AnchoredCurve, TailSpec
from repro.simworld.vecops import sorted_unique
from repro.store.tables import CSRMatrix

__all__ = ["Ownership", "build_ownership", "owned_curve"]

#: Libraries above this size are sampled exactly (Gumbel top-k without
#: replacement); smaller ones use cheaper with-replacement + dedup rounds.
_EXACT_SAMPLING_THRESHOLD = 60


@dataclass
class Ownership:
    """Per-user library structure (before playtimes are attached)."""

    owner_mask: np.ndarray
    owned_counts: np.ndarray
    owned: CSRMatrix
    is_collector: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.owner_mask)


def owned_curve(config: OwnershipConfig) -> AnchoredCurve:
    """Library-size marginal over owners."""
    return AnchoredCurve(
        anchors=config.owned_anchors,
        x_min=1.0,
        tail=TailSpec("lognormal", config.owned_tail_sigma),
        discrete=True,
    )


def solve_owner_fraction(config: OwnershipConfig) -> float:
    """Owner share making the all-accounts mean hit the paper's 3.54.

    The 1.05 factor compensates the small, systematic shortfall from
    within-library deduplication and collector caps.
    """
    mean_owned = owned_curve(config).mean()
    return min(0.95, 1.05 * config.mean_owned_all_accounts / mean_owned)


def _collector_counts(
    rng: np.random.Generator, n: int, config: OwnershipConfig, n_games: int
) -> np.ndarray:
    """Collector library sizes: log-uniform spread plus the bundle bump."""
    cap = min(config.collector_max_paper, 0.93 * n_games)
    lo, hi = np.log(config.collector_min), np.log(max(cap, config.collector_min + 1))
    counts = np.exp(rng.uniform(lo, hi, size=n))
    bump_lo, bump_hi = config.collector_bump_range
    in_bump = rng.random(n) < config.collector_bump_weight
    counts[in_bump] = rng.integers(bump_lo, bump_hi + 1, size=in_bump.sum())
    return np.minimum(counts.astype(np.int64), int(cap))


def _sample_libraries(
    rng: np.random.Generator,
    counts: np.ndarray,
    tier: np.ndarray,
    catalog: CatalogTruth,
    config: OwnershipConfig,
) -> CSRMatrix:
    """Choose the distinct games per owner.

    ``counts``/``tier`` are aligned with owner order.  Games are sampled
    from tier-tilted popularity weights; duplicates within a user are
    resolved by a few top-up rounds (exactly for very large libraries).
    """
    n_products = catalog.n_products
    price = catalog.table.price_cents / 100.0
    base = catalog.popularity
    tilts = (
        np.linspace(
            -config.price_tilt_span / 2.0,
            config.price_tilt_span / 2.0,
            config.n_price_tiers,
        )
        + config.price_tilt_shift
    )

    price_feature = (price + 4.0) / 14.0
    pair_user: list[np.ndarray] = []
    pair_prod: list[np.ndarray] = []

    for t in range(config.n_price_tiers):
        in_tier = np.flatnonzero(tier == t)
        if len(in_tier) == 0:
            continue
        weights = base * price_feature ** tilts[t]
        total = weights.sum()
        if total <= 0:
            raise ValueError("catalog has no ownable games")
        cdf = np.cumsum(weights / total)
        cdf[-1] = 1.0

        exact = in_tier[counts[in_tier] > _EXACT_SAMPLING_THRESHOLD]
        if len(exact):
            u, p = _sample_exact(rng, exact, counts, weights, n_products)
            pair_user.append(u)
            pair_prod.append(p)

        cheap = in_tier[counts[in_tier] <= _EXACT_SAMPLING_THRESHOLD]
        if len(cheap):
            u, p = _fill_with_replacement(rng, cheap, counts, cdf, n_products)
            pair_user.append(u)
            pair_prod.append(p)

    if pair_user:
        users = np.concatenate(pair_user)
        prods = np.concatenate(pair_prod)
    else:
        users = np.empty(0, dtype=np.int64)
        prods = np.empty(0, dtype=np.int64)
    # One global sort puts every user's games in ascending product order;
    # products are distinct within a user, users disjoint across tiers.
    keys = np.sort(users * np.int64(n_products) + prods)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(users, minlength=len(counts)), out=indptr[1:]
    ) if len(users) else None
    return CSRMatrix(
        indptr=indptr, indices=(keys % np.int64(n_products)).astype(np.int32)
    )


def _sample_exact(
    rng: np.random.Generator,
    users: np.ndarray,
    counts: np.ndarray,
    weights: np.ndarray,
    n_products: int,
    chunk: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact weighted without-replacement libraries, batch-drawn.

    Uses the exponential race (the k smallest ``Exp(1) / weight`` keys
    are a weighted sample without replacement — equivalent to Gumbel
    top-k, but log-free and float32-friendly).  Users are processed in
    chunks sorted by library size so one ``argpartition`` per chunk (at
    the chunk's max k) does nearly all the selection work; the per-row
    refinement only re-partitions the already-small candidate set.
    """
    # Zero-weight products get an inf key *after* the multiply: an
    # inf factor would turn an Exp(1) draw of exactly 0 into NaN.
    inv_w = np.ones(n_products, dtype=np.float32)
    positive = weights > 0
    inv_w[positive] = 1.0 / weights[positive].astype(np.float32)
    zero_weight = np.flatnonzero(~positive)
    users = users[np.argsort(counts[users], kind="stable")]
    out_user: list[np.ndarray] = []
    out_prod: list[np.ndarray] = []
    for start in range(0, len(users), chunk):
        block = users[start : start + chunk]
        ks = counts[block].astype(np.int64)
        kmax = int(ks.max())
        keys = rng.standard_exponential(
            size=(len(block), n_products), dtype=np.float32
        )
        keys *= inv_w[None, :]
        keys[:, zero_weight] = np.inf
        cand = np.argpartition(keys, kmax - 1, axis=1)[:, :kmax]
        for row, (user, k) in enumerate(zip(block, ks)):
            top = cand[row]
            if k < kmax:
                row_keys = keys[row, top]
                top = top[np.argpartition(row_keys, k - 1)[:k]]
            out_user.append(np.full(int(k), user, dtype=np.int64))
            out_prod.append(top.astype(np.int64))
    return np.concatenate(out_user), np.concatenate(out_prod)


def _fill_with_replacement(
    rng: np.random.Generator,
    users: np.ndarray,
    counts: np.ndarray,
    cdf: np.ndarray,
    n_products: int,
    rounds: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Populate small libraries by repeated draw-and-dedup rounds.

    Returns ``(user, product)`` pair arrays with distinct products per
    user.  All users' pending draws happen in one batch per round; a
    user whose dedup overshoots keeps their lowest product indices,
    matching the old per-user ``union1d`` truncation.
    """
    users = users.astype(np.int64)
    need = counts[users].astype(np.int64)
    local = np.arange(len(users), dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    for _ in range(rounds):
        have = (
            np.bincount(keys // n_products, minlength=len(users))
            if len(keys)
            else np.zeros(len(users), dtype=np.int64)
        )
        missing = need - have
        pending = missing > 0
        if not pending.any():
            break
        draw_user = np.repeat(local[pending], missing[pending])
        draws = np.searchsorted(
            cdf, rng.random(len(draw_user)), side="right"
        )
        keys = sorted_unique(
            np.concatenate([keys, draw_user * np.int64(n_products) + draws])
        )
        # Truncate overshoot: unique keys are (user, product)-sorted, so
        # rank-within-user < need keeps each user's smallest products.
        key_user = keys // n_products
        seg_start = np.searchsorted(key_user, local)
        rank = np.arange(len(keys)) - seg_start[key_user]
        keys = keys[rank < need[key_user]]
    return users[keys // n_products], keys % np.int64(n_products)


def build_ownership(
    rng: np.random.Generator,
    latents: LatentFactors,
    catalog: CatalogTruth,
    config: OwnershipConfig,
) -> Ownership:
    """Generate the ownership relation for the whole population."""
    n_users = len(latents)
    owner_frac = solve_owner_fraction(config)
    u_wealth = latents.uniform("wealth")
    owner_mask = u_wealth > 1.0 - owner_frac
    owners = np.flatnonzero(owner_mask)

    curve = owned_curve(config)
    u_cond = conditional_uniform(u_wealth, owner_mask, owner_frac)
    n_games = len(catalog.table.game_ids())
    counts = curve.ppf(u_cond).astype(np.int64)
    counts = np.minimum(counts, int(n_games * 0.5))

    # Collector mixture: a few owners get enormous, bump-shaped libraries.
    n_collectors = int(round(config.collector_share * len(owners)))
    is_collector = np.zeros(n_users, dtype=bool)
    if n_collectors > 0:
        # Collectors skew wealthy: sample among the top half of owners.
        rich = owners[u_wealth[owners] >= np.median(u_wealth[owners])]
        chosen = rng.choice(rich, size=min(n_collectors, len(rich)), replace=False)
        is_collector[chosen] = True
        positions = np.searchsorted(owners, chosen)
        counts[positions] = _collector_counts(
            rng, len(chosen), config, n_games
        )

    tier = np.minimum(
        (latents.uniform("price")[owners] * config.n_price_tiers).astype(int),
        config.n_price_tiers - 1,
    )
    owner_csr = _sample_libraries(rng, counts, tier, catalog, config)

    # Expand owner-indexed CSR to all users.
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    realized = owner_csr.counts()
    per_user = np.zeros(n_users, dtype=np.int64)
    per_user[owners] = realized
    np.cumsum(per_user, out=indptr[1:])
    owned = CSRMatrix(indptr=indptr, indices=owner_csr.indices)

    return Ownership(
        owner_mask=owner_mask,
        owned_counts=per_user,
        owned=owned,
        is_collector=is_collector,
    )
