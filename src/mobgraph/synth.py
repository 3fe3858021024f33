"""Synthetic comment corpora with planted mob structure.

Organic commenters hit each video of their channel independently; a mob is a
fixed set of accounts that co-comments across every video of the channels it
covers. Planted mobs therefore surface as dense cliques in the co-commenter
graphs, which is exactly what the downstream ranking is supposed to find.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidConfig
from .ingest import CommentRecord
from .seeding import rng_for
from .textio import TextTarget, write_json


@dataclass
class MobSpec:
    size: int
    channels: list[int]  # indices into the channel list
    prob: float  # per-member, per-video comment probability


@dataclass
class SynthConfig:
    n_channels: int = 20
    videos_per_channel: int = 30
    organic_commenters: int = 40
    organic_prob: float = 0.1
    mobs: list[MobSpec] = field(default_factory=list)
    families: list[str] | None = None  # per-channel ground-truth label
    seed: int = 0


@dataclass
class GroundTruth:
    channel_families: dict[str, str]
    commenter_mobs: dict[str, str]  # mob members only


def validate_config(config: SynthConfig) -> None:
    if config.n_channels < 1:
        raise InvalidConfig(f"n_channels must be >= 1, got {config.n_channels}")
    if config.videos_per_channel < 1:
        raise InvalidConfig(
            f"videos_per_channel must be >= 1, got {config.videos_per_channel}"
        )
    if config.organic_commenters < 0:
        raise InvalidConfig(
            f"organic_commenters must be >= 0, got {config.organic_commenters}"
        )
    if not 0.0 <= config.organic_prob <= 1.0:
        raise InvalidConfig(f"organic_prob must be in [0, 1], got {config.organic_prob}")
    for m, mob in enumerate(config.mobs):
        if mob.size < 1:
            raise InvalidConfig(f"mob {m}: size must be >= 1, got {mob.size}")
        if not 0.0 <= mob.prob <= 1.0:
            raise InvalidConfig(f"mob {m}: prob must be in [0, 1], got {mob.prob}")
        for c in mob.channels:
            if not 0 <= c < config.n_channels:
                raise InvalidConfig(f"mob {m}: channel index {c} out of range")
    if config.families is not None and len(config.families) != config.n_channels:
        raise InvalidConfig(
            f"families must list {config.n_channels} labels, got {len(config.families)}"
        )


def channel_id(c: int) -> str:
    return f"ch{c:02d}"


def mob_id(m: int) -> str:
    return f"mob{m:02d}"


def generate_corpus(config: SynthConfig) -> tuple[list[CommentRecord], GroundTruth]:
    """Sample a corpus; byte-identical for a fixed config and seed.

    Every (channel, mob-or-organic) stream draws from its own derived seed,
    so channels can be generated in parallel without changing the corpus.
    Without explicit families, a channel's label is "mobbed" when at least
    one mob covers it, else "organic".
    """
    validate_config(config)
    records: list[CommentRecord] = []
    families: dict[str, str] = {}
    mobs_by_channel: dict[int, list[int]] = {c: [] for c in range(config.n_channels)}
    for m, mob in enumerate(config.mobs):
        for c in mob.channels:
            mobs_by_channel[c].append(m)

    for c in range(config.n_channels):
        cid = channel_id(c)
        if config.families is not None:
            families[cid] = config.families[c]
        else:
            families[cid] = "mobbed" if mobs_by_channel[c] else "organic"
        organic_rng = rng_for(config.seed, "organic", cid)
        mob_rngs = {
            m: rng_for(config.seed, "mob", mob_id(m), cid) for m in mobs_by_channel[c]
        }
        counter = 0
        for j in range(config.videos_per_channel):
            vid = f"{cid}_v{j:03d}"
            for i in range(config.organic_commenters):
                if organic_rng.random() < config.organic_prob:
                    records.append(
                        CommentRecord(
                            channel_id=cid,
                            video_id=vid,
                            commenter_id=f"{cid}_u{i:03d}",
                            comment_id=f"{cid}_c{counter:06d}",
                        )
                    )
                    counter += 1
            for m in mobs_by_channel[c]:
                mob = config.mobs[m]
                for i in range(mob.size):
                    if mob_rngs[m].random() < mob.prob:
                        records.append(
                            CommentRecord(
                                channel_id=cid,
                                video_id=vid,
                                commenter_id=f"{mob_id(m)}_u{i:02d}",
                                comment_id=f"{cid}_c{counter:06d}",
                            )
                        )
                        counter += 1

    commenter_mobs = {
        f"{mob_id(m)}_u{i:02d}": mob_id(m)
        for m, mob in enumerate(config.mobs)
        for i in range(mob.size)
    }
    return records, GroundTruth(channel_families=families, commenter_mobs=commenter_mobs)


def two_family_config(
    seed: int = 0,
    n_channels: int = 20,
    videos_per_channel: int = 40,
    organic_commenters: int = 50,
    organic_prob: float = 0.1,
    heavy_mob_size: int = 12,
    heavy_mob_prob: float = 0.6,
    light_mob_size: int = 3,
    light_mob_prob: float = 0.35,
) -> SynthConfig:
    """Two planted channel families: the first half carries large overlapping
    mobs, the second half only small ones. Mirrors a corpus where one group
    of channels is worked by heavy coordinated crews and the other is mostly
    organic with light coordination."""
    if n_channels < 4 or n_channels % 2 != 0:
        raise InvalidConfig("two_family_config needs an even n_channels >= 4")
    half = n_channels // 2
    heavy = list(range(half))
    light = list(range(half, n_channels))
    mobs = [
        MobSpec(size=heavy_mob_size, channels=heavy[: (half + 1) // 2], prob=heavy_mob_prob),
        MobSpec(size=heavy_mob_size, channels=heavy[half // 2:], prob=heavy_mob_prob),
        MobSpec(size=heavy_mob_size, channels=heavy[::2], prob=heavy_mob_prob),
        MobSpec(size=heavy_mob_size, channels=heavy[1::2], prob=heavy_mob_prob),
        MobSpec(size=light_mob_size, channels=light[: (half + 1) // 2], prob=light_mob_prob),
        MobSpec(size=light_mob_size, channels=light[half // 2:], prob=light_mob_prob),
    ]
    families = ["heavy"] * half + ["light"] * (n_channels - half)
    return SynthConfig(
        n_channels=n_channels,
        videos_per_channel=videos_per_channel,
        organic_commenters=organic_commenters,
        organic_prob=organic_prob,
        mobs=mobs,
        families=families,
        seed=seed,
    )


def write_ground_truth(truth: GroundTruth, sink: TextTarget) -> None:
    write_json(
        {"channel_families": truth.channel_families, "commenter_mobs": truth.commenter_mobs},
        sink,
    )
