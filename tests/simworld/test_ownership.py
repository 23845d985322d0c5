"""Library generation (Section 5, Figure 4)."""

import warnings

import numpy as np
import pytest

from repro.simworld.catalog import build_catalog
from repro.simworld.config import CatalogConfig, FactorConfig, OwnershipConfig
from repro.simworld.copula import draw_latents
from repro.simworld.ownership import (
    _sample_exact,
    build_ownership,
    owned_curve,
    solve_owner_fraction,
)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(21)
    catalog = build_catalog(np.random.default_rng(4), CatalogConfig())
    latents = draw_latents(np.random.default_rng(5), 40_000, FactorConfig())
    ownership = build_ownership(rng, latents, catalog, OwnershipConfig())
    return catalog, latents, ownership


class TestOwnerGating:
    def test_owner_fraction_yields_paper_mean(self, setup):
        _, _, ownership = setup
        mean = ownership.owned_counts.mean()
        assert mean == pytest.approx(3.54, rel=0.08)

    def test_solve_owner_fraction_bounded(self):
        frac = solve_owner_fraction(OwnershipConfig())
        assert 0.2 < frac < 0.5

    def test_owners_gated_on_wealth(self, setup):
        _, latents, ownership = setup
        wealth = latents.uniform("wealth")
        assert wealth[ownership.owner_mask].min() > wealth[
            ~ownership.owner_mask
        ].max() - 1e-9


class TestLibraries:
    def test_counts_match_csr(self, setup):
        _, _, ownership = setup
        assert np.array_equal(
            ownership.owned_counts, ownership.owned.counts()
        )

    def test_no_duplicate_games_within_user(self, setup):
        _, _, ownership = setup
        indptr = ownership.owned.indptr
        games = ownership.owned.indices
        for user in range(0, ownership.n_users, 997):
            row = games[indptr[user] : indptr[user + 1]]
            assert len(np.unique(row)) == len(row)

    def test_only_games_are_owned(self, setup):
        catalog, _, ownership = setup
        owned_products = np.unique(ownership.owned.indices)
        assert np.all(catalog.table.is_game[owned_products])

    def test_percentile_anchors(self, setup):
        _, _, ownership = setup
        counts = ownership.owned_counts
        positive = counts[counts > 0]
        assert np.percentile(positive, 50) == pytest.approx(4, abs=1)
        assert np.percentile(positive, 80) == pytest.approx(10, abs=1.5)
        assert np.percentile(positive, 90) == pytest.approx(21, rel=0.15)

    def test_popular_games_owned_more(self, setup):
        catalog, _, ownership = setup
        owners_per_game = np.bincount(
            ownership.owned.indices, minlength=catalog.n_products
        )
        games = catalog.table.game_ids()
        rho = np.corrcoef(
            np.log(catalog.popularity[games] + 1e-12),
            np.log(owners_per_game[games] + 1.0),
        )[0, 1]
        assert rho > 0.7

    def test_price_tilt_decouples_value_from_count(self, setup):
        """Spearman(owned, value) should be well below 1 (Section 7)."""
        from scipy.stats import spearmanr

        catalog, _, ownership = setup
        value = np.zeros(ownership.n_users)
        entry_user = ownership.owned.row_ids()
        np.add.at(
            value,
            entry_user,
            catalog.table.price_cents[ownership.owned.indices] / 100.0,
        )
        owners = ownership.owned_counts > 0
        rho = spearmanr(
            ownership.owned_counts[owners], value[owners]
        ).statistic
        assert 0.4 < rho < 0.85


class TestCollectors:
    def test_collector_counts_at_scale(self):
        """At 200k users a couple of collectors with huge libraries."""
        rng = np.random.default_rng(3)
        catalog = build_catalog(np.random.default_rng(4), CatalogConfig())
        latents = draw_latents(
            np.random.default_rng(5), 150_000, FactorConfig()
        )
        ownership = build_ownership(
            rng, latents, catalog, OwnershipConfig()
        )
        collectors = ownership.is_collector
        assert collectors.sum() >= 1
        assert ownership.owned_counts[collectors].min() >= 450 * 0.9 or (
            ownership.owned_counts[collectors].min()
            >= OwnershipConfig().collector_bump_range[0]
        )

    def test_collectors_are_owners(self, setup):
        _, _, ownership = setup
        assert np.all(ownership.owner_mask[ownership.is_collector])


class _ZeroKeyRng:
    """Every Exp(1) draw is 1, except exactly 0 for product 0 — the
    draw that turned up at 10^6 users."""

    def standard_exponential(self, size, dtype):
        keys = np.ones(size, dtype=dtype)
        keys[:, 0] = 0.0
        return keys


def test_exact_sampling_zero_key_on_zero_weight_product_is_not_nan():
    weights = np.array([0.0, 1.0, 2.0, 3.0])
    counts = np.array([2, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        users, prods = _sample_exact(
            _ZeroKeyRng(), np.array([0, 1]), counts, weights, len(weights)
        )
    # The zero-weight product races last: the heaviest products win.
    assert sorted(prods[users == 0].tolist()) == [2, 3]
    assert sorted(prods[users == 1].tolist()) == [1, 2, 3]
