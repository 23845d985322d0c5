"""The :class:`SteamWorld` orchestrator.

Builds every subsystem in dependency order — geography, accounts, catalog,
latent factors, ownership, playtimes, friendships, groups, achievements,
second snapshot — and assembles the dataset-visible result into a
:class:`repro.store.dataset.SteamDataset`.  Hidden generation truth
(latent factors, true geography, catalog quality) stays on the world
object for calibration tests and ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.obs import Obs
from repro.simworld import accounts as accounts_mod
from repro.simworld import achievements as ach_mod
from repro.simworld import catalog as catalog_mod
from repro.simworld import evolution as evolution_mod
from repro.simworld import friends as friends_mod
from repro.simworld import geography as geography_mod
from repro.simworld import groups as groups_mod
from repro.simworld import ownership as ownership_mod
from repro.simworld import playtime as playtime_mod
from repro.simworld import weekpanel as weekpanel_mod
from repro.simworld.config import WorldConfig
from repro.simworld.copula import LatentFactors, draw_latents
from repro.simworld.rng import substream
from repro.store.dataset import DatasetMeta, SteamDataset
from repro.store.tables import AccountTable, FriendTable, LibraryTable

__all__ = ["SteamWorld"]


@dataclass
class SteamWorld:
    """A fully generated synthetic Steam universe."""

    config: WorldConfig
    dataset: SteamDataset
    #: Hidden truth, for calibration tests and ablations.
    latents: LatentFactors = field(repr=False)
    geography: geography_mod.Geography = field(repr=False)
    catalog_truth: catalog_mod.CatalogTruth = field(repr=False)
    friend_graph: friends_mod.FriendGraph = field(repr=False)
    ownership: ownership_mod.Ownership = field(repr=False)
    playtimes: playtime_mod.Playtimes = field(repr=False)
    #: The scope generation recorded its spans into.
    obs: Obs | None = field(default=None, repr=False, compare=False)

    @classmethod
    def generate(
        cls,
        config: WorldConfig | None = None,
        *,
        obs: Obs | None = None,
        **kwargs,
    ) -> "SteamWorld":
        """Generate a world.

        Either pass a full :class:`WorldConfig` or keyword overrides for
        its top-level fields (``n_users=...``, ``seed=...``).  A span
        per generation stage lands on ``obs`` (a private
        :class:`~repro.obs.Obs` when omitted; see :mod:`repro.obs`).
        """
        if config is None:
            config = WorldConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a config or keyword overrides")
        if obs is None:
            obs = Obs()
        seed = config.seed
        n = config.n_users

        with obs.span("generate", n_users=n, seed=seed):
            with obs.span("generate:geography"):
                geography = geography_mod.build_geography(
                    substream(seed, "geography"), n, config.geography
                )
            with obs.span("generate:accounts"):
                accounts = accounts_mod.build_accounts(
                    substream(seed, "accounts"), n, config.social
                )
            with obs.span("generate:catalog"):
                catalog = catalog_mod.build_catalog(
                    substream(seed, "catalog"), config.catalog
                )
            with obs.span("generate:latents"):
                latents = draw_latents(
                    substream(seed, "latents"), n, config.factors
                )

            with obs.span("generate:ownership"):
                ownership = ownership_mod.build_ownership(
                    substream(seed, "ownership"),
                    latents,
                    catalog,
                    config.ownership,
                )
            with obs.span("generate:playtime"):
                playtimes = playtime_mod.build_playtimes(
                    substream(seed, "playtime"),
                    latents,
                    ownership,
                    catalog,
                    config.ownership,
                    config.playtime,
                )
                library = LibraryTable(
                    owned=ownership.owned,
                    total_min=playtimes.total_min,
                    twoweek_min=playtimes.twoweek_min,
                )
                value_cents = library.user_value_cents(
                    catalog.table.price_cents
                )
                total_min_user = library.user_total_min()

            with obs.span("generate:friends"):
                friend_graph = friends_mod.build_friends(
                    substream(seed, "friends"),
                    latents,
                    geography,
                    accounts,
                    config.social,
                    ownership.owned_counts,
                    value_cents,
                    total_min_user,
                )
            with obs.span("generate:groups"):
                group_table = groups_mod.build_groups(
                    substream(seed, "groups"),
                    latents,
                    ownership,
                    catalog,
                    config.groups,
                    entry_total_min=playtimes.total_min,
                    user_total_min=total_min_user,
                )
            with obs.span("generate:achievements"):
                achievements = ach_mod.build_achievements(
                    substream(seed, "achievements"),
                    catalog,
                    config.achievements,
                )
            with obs.span("generate:evolution"):
                snapshot2 = evolution_mod.build_snapshot2(
                    substream(seed, "evolution"),
                    latents,
                    ownership,
                    playtimes,
                    value_cents,
                    total_min_user,
                    config.ownership.owned_anchors,
                    config.evolution,
                    config.playtime,
                )

            with obs.span("generate:assemble"):
                account_table = AccountTable(
                    id_offset=accounts.id_offset,
                    created_day=accounts.created_day,
                    country=geography.reported_country(),
                    city=geography.reported_city(),
                    country_names=geography.country_names,
                )
                friend_table = FriendTable(
                    u=friend_graph.u,
                    v=friend_graph.v,
                    day=friend_graph.day,
                    n_users=n,
                )
                dataset = SteamDataset(
                    accounts=account_table,
                    friends=friend_table,
                    groups=group_table,
                    catalog=catalog.table,
                    library=library,
                    achievements=achievements,
                    snapshot2=snapshot2,
                    meta=DatasetMeta(
                        seed=seed,
                        scale_note=(
                            f"synthetic world: {n} accounts "
                            f"({config.scale_factor:.2e} of paper scale)"
                        ),
                    ),
                )
        return cls(
            config=config,
            dataset=dataset,
            latents=latents,
            geography=geography,
            catalog_truth=catalog,
            friend_graph=friend_graph,
            ownership=ownership,
            playtimes=playtimes,
            obs=obs,
        )

    def player_achievements(self):
        """Per-player achievement unlocks (the Section 9 future-work data).

        Generated lazily and deterministically from the world seed; see
        :mod:`repro.simworld.player_achievements`.
        """
        from repro.simworld.player_achievements import (
            build_player_achievements,
        )

        if self.dataset.achievements is None:
            raise ValueError("world has no achievement data")
        return build_player_achievements(
            substream(self.config.seed, "player-achievements"),
            self.ownership,
            self.dataset.achievements,
            self.dataset.library.total_min,
        )

    def week_panel(self) -> weekpanel_mod.WeekPanel:
        """Simulate the Figure 12 week-long daily playtime panel."""
        snap_day = constants.days_since_launch(constants.PROFILE_CRAWL_END)
        age = np.maximum(
            snap_day - self.dataset.accounts.created_day, 1
        ).astype(np.float64)
        return weekpanel_mod.build_week_panel(
            substream(self.config.seed, "weekpanel"),
            self.dataset.library.user_total_min(),
            self.dataset.library.user_twoweek_min(),
            self.playtimes.idler_mask,
            age,
            self.config.panel,
        )
