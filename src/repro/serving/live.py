"""``LiveFairHMSIndex``: serve FairHMS queries while the data changes.

The static :class:`~repro.serving.index.FairHMSIndex` is build-once: any
data change means a brand-new index, throwing away every cached delta-net,
:class:`~repro.hms.truncated.TruncatedEngine`, envelope, and memoized
result.  The live index instead accepts :meth:`~LiveFairHMSIndex.insert` /
:meth:`~LiveFairHMSIndex.delete` / :meth:`~LiveFairHMSIndex.observe_stream`
between queries and answers every query *as if* a fresh index had been
built over the surviving tuples — bit-identical results — while paying
only for what actually changed:

* a :class:`~repro.extensions.dynamic.DynamicFairHMS` maintains the
  per-group skyline incrementally (inserts are dominance checks against
  the current skyline; deletes of skyline members mark the group for a
  lazy rebuild);
* updates are applied lazily: mutating calls only bump the dynamic
  store's version, and the next query *refreshes* — advancing the
  serving **epoch** once per batch of pending updates;
* each epoch applies *staged invalidation* to the shared
  :class:`~repro.serving.artifacts.SolverArtifacts`: the result memo and
  constraint cache are dropped unconditionally (any update moves the
  population group sizes proportional constraints depend on), while
  engines and the 2-D geometry are marked dirty **only when the skyline
  actually changed** — an update dominated by the current skyline keeps
  every cache warm, and delta-nets survive every epoch because they
  depend on ``(m, d, seed)`` alone.

Normalization is frozen at build time: the paper's max-normalization is
data-dependent, so a live index scales every inserted point by the column
maxima captured when the index was created (or by 1 when built with
``normalize=False`` / from an empty start).  Points streaming in that
beat the build-time maxima simply score above 1 in that direction —
happiness *ratios* are unaffected because numerator and denominator share
the frame.

``observe_stream`` threads the bounded-memory
:class:`~repro.extensions.streaming.StreamingFairHMS` sieve in front of
the index: observed tuples enter the live set only while they are
near-champions for some net direction, and sieve evictions delete them
again, so unbounded streams serve from bounded state.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset
from ..extensions.dynamic import DynamicFairHMS
from ..extensions.streaming import StreamingFairHMS
from .artifacts import SolverArtifacts
from .index import FairHMSIndex

__all__ = ["LiveFairHMSIndex"]


class LiveFairHMSIndex(FairHMSIndex):
    """A :class:`FairHMSIndex` that stays fresh under inserts and deletes.

    Args:
        dataset: optional initial database; its rows are inserted with
            their ``ids`` as keys.  Omit it (and pass ``dim`` /
            ``num_groups``) to start empty.
        dim / num_groups: shape of the live table when no ``dataset`` is
            given (ignored otherwise).
        normalize: freeze the paper's max-normalization frame from the
            initial dataset's column maxima; every later insert is scaled
            by the same maxima.  With ``normalize=False`` (or an empty
            start) points are taken as-is and the caller must feed
            consistently scaled data.
        default_seed / cache_results / max_cached_results: as for
            :class:`FairHMSIndex`.
        stream_buffer_per_group / stream_slack / stream_net_size:
            configuration of the :class:`StreamingFairHMS` sieve behind
            :meth:`observe_stream` (created lazily on first use).

    Mutations are O(skyline) and never recompute artifacts themselves;
    all invalidation is staged and paid at the next query.  Like the
    static index, every public entry point — including :meth:`insert`,
    :meth:`delete`, and :meth:`observe_stream` — serializes on the
    shared :attr:`lock`, so concurrent readers and writers are safe but
    see serialized throughput; the service gateway additionally fences
    whole query batches against writes per dataset.
    """

    frozen = False

    def __init__(
        self,
        dataset: Dataset | None = None,
        *,
        dim: int | None = None,
        num_groups: int | None = None,
        normalize: bool = True,
        default_seed: int = 7,
        cache_results: bool = True,
        max_cached_results: int = 1024,
        stream_buffer_per_group: int = 256,
        stream_slack: float = 0.2,
        stream_net_size: int | None = None,
    ) -> None:
        if dataset is not None:
            dim = dataset.dim
            num_groups = dataset.num_groups
        if dim is None or num_groups is None:
            raise ValueError(
                "provide an initial dataset, or dim and num_groups for an "
                "empty start"
            )
        self._dyn = DynamicFairHMS(int(dim), int(num_groups))
        self._scale = np.ones(int(dim))
        if dataset is not None and normalize:
            col_max = dataset.points.max(axis=0)
            self._scale = np.where(col_max > 0, col_max, 1.0)
        self._stream: StreamingFairHMS | None = None
        self._stream_config = {
            "buffer_per_group": int(stream_buffer_per_group),
            "slack": float(stream_slack),
            "net_size": stream_net_size,
        }
        self._streamed: set[int] = set()
        if dataset is not None:
            self._dyn.bulk_insert(
                dataset.ids, dataset.points / self._scale, dataset.labels
            )
        self._skyline_keys: tuple[int, ...] = ()
        self._init_state(
            None,
            None,
            default_seed=default_seed,
            cache_results=cache_results,
            max_cached_results=max_cached_results,
        )
        self._served_version = -1  # force the first refresh
        self._refresh()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert(self, key: int, point, group: int) -> None:
        """Insert tuple ``key`` (scaled into the frozen frame) into ``group``.

        O(group skyline) dominance maintenance; no artifact is touched
        until the next query refreshes the epoch.
        """
        arr = np.asarray(point, dtype=np.float64) / self._scale
        with self._serve_lock:
            self._dyn.insert(int(key), arr, int(group))

    def delete(self, key: int) -> None:
        """Delete tuple ``key``; raises ``KeyError`` if it is not alive."""
        with self._serve_lock:
            self._dyn.delete(int(key))

    def observe_stream(self, keys, points, groups) -> int:
        """Feed tuples through the bounded-memory sieve; sync the live set.

        Only near-champion tuples (within the sieve's slack of the running
        per-direction top) enter the live index; tuples the sieve evicts
        are deleted again.  Returns how many of the observed tuples were
        admitted.  Keys must not collide with directly inserted ones, and
        stream-managed keys should not be deleted manually.
        """
        with self._serve_lock:
            if self._stream is None:
                self._stream = StreamingFairHMS(
                    self._dyn.dim,
                    self._dyn.num_groups,
                    seed=self._default_seed,
                    **self._stream_config,
                )
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim == 1:
                pts = pts[None, :]
                keys = [keys]
                groups = [groups]
            admitted = self._stream.observe_many(keys, pts / self._scale, groups)
            current = self._stream.buffered_keys()
            for key in self._streamed - current:
                if key in self._dyn:  # manual deletes are tolerated
                    self._dyn.delete(key)
            for key, point, group in self._stream.buffered_items():
                if key not in self._dyn:
                    self._dyn.insert(key, point, group)
            self._streamed = current
            return admitted

    # ------------------------------------------------------------------ #
    # snapshot persistence
    # ------------------------------------------------------------------ #

    def live_state(self) -> dict:
        """Point-in-time export of the live table (snapshot persistence).

        Returns the alive tuples in deterministic ``(group, key)`` order —
        ``keys`` / ``points`` / ``groups`` arrays, with points already in
        the frozen normalization frame — plus ``scale``, the table shape,
        the update ``version``, and the serving ``epoch``.  Pending (not
        yet refreshed) updates are included: the arrays describe the data,
        not the serving state.  The streaming sieve behind
        :meth:`observe_stream` is deliberately *not* part of the state:
        its buffer is a lossy view of an unbounded stream, so a restored
        index starts a fresh sieve (see ``docs/PERSISTENCE.md``).
        """
        with self._serve_lock:
            self._refresh()
            keys: list[int] = []
            groups: list[int] = []
            points: list[np.ndarray] = []
            for key, point, group in self._dyn.items():
                keys.append(key)
                groups.append(group)
                points.append(point)
            return {
                "keys": np.asarray(keys, dtype=np.int64),
                "points": (
                    np.asarray(points)
                    if points
                    else np.empty((0, self._dyn.dim))
                ),
                "groups": np.asarray(groups, dtype=np.int64),
                "scale": self._scale.copy(),
                "dim": self._dyn.dim,
                "num_groups": self._dyn.num_groups,
                "version": self._dyn.version,
                "epoch": self.epoch,
            }

    @classmethod
    def from_live_state(
        cls,
        keys,
        points,
        groups,
        *,
        scale,
        dim: int,
        num_groups: int,
        version: int | None = None,
        epoch: int | None = None,
        **config,
    ) -> "LiveFairHMSIndex":
        """Rebuild a live index from a :meth:`live_state` export.

        The restored index answers every query bit-identically to the
        exported one: the alive table is reloaded in the same
        deterministic order, the normalization frame is reinstated
        verbatim, and version/epoch counters resume where they left off
        so epoch-stamped diagnostics and gateway version fences stay
        monotone across the spill.  ``config`` takes the
        :meth:`~FairHMSIndex.serving_config` keywords.
        """
        index = cls(dim=int(dim), num_groups=int(num_groups), **config)
        with index._serve_lock:
            index._scale = np.asarray(scale, dtype=np.float64).copy()
            keys = np.asarray(keys, dtype=np.int64)
            if keys.size:
                # Points are already in the frozen frame: load through the
                # dynamic store directly, bypassing insert()'s re-scaling.
                index._dyn.bulk_insert(keys, np.asarray(points), groups)
            if version is not None:
                index._dyn.advance_version(int(version))
            index._refresh()
            if epoch is not None and index._artifacts is not None:
                index._artifacts.restore_epoch(int(epoch))
        return index

    # ------------------------------------------------------------------ #
    # refresh / epochs
    # ------------------------------------------------------------------ #

    def _refresh(self) -> None:
        """Apply pending updates: advance the epoch, stage invalidation.

        Runs before every query (and on state inspection); a no-op while
        no update is pending, so back-to-back queries pay nothing.  One
        refresh covers *all* updates since the last one — the epoch
        advances once per batch, not once per update.
        """
        if self._dyn.version == self._served_version:
            return
        if len(self._dyn) == 0:
            self._skyline = None
            self._dataset = None
            self._skyline_keys = ()
            if self._artifacts is not None:
                self._artifacts.bump_epoch(skyline_changed=True)
            self._start_epoch()
            self._served_version = self._dyn.version
            return
        new_keys = tuple(self._dyn.skyline_keys())
        sky = self._dyn.skyline_dataset()
        # Unchanged means unchanged *content*, not just the key set: a key
        # deleted and re-inserted with different coordinates (or group)
        # must invalidate like any other skyline change.
        skyline_changed = not (
            new_keys == self._skyline_keys
            and self._skyline is not None
            and np.array_equal(sky.points, self._skyline.points)
            and np.array_equal(sky.labels, self._skyline.labels)
        )
        if skyline_changed:
            self._skyline = sky
            if self._artifacts is None:
                self._artifacts = SolverArtifacts(sky)
                self._artifacts.bump_epoch(skyline_changed=True)
            else:
                self._artifacts.rebind(sky)
            self._skyline_keys = new_keys
        else:
            # Same solver input, but the population counts (which
            # proportional constraints reference) may have moved.
            self._skyline.meta["population_group_sizes"] = sky.meta[
                "population_group_sizes"
            ]
            self._artifacts.bump_epoch(skyline_changed=False)
        self._dataset = None  # alive snapshot rebuilt lazily on access
        self._start_epoch()
        self._served_version = self._dyn.version

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def dataset(self) -> Dataset:
        """Snapshot of every alive tuple, rebuilt lazily per epoch."""
        self._refresh()
        if self._dataset is None:
            if len(self._dyn) == 0:
                raise ValueError("no tuples alive")
            self._dataset = self._dyn.alive_dataset("live")
        return self._dataset

    def __len__(self) -> int:
        """Alive tuples (including pending, not-yet-served updates)."""
        return len(self._dyn)

    def __contains__(self, key: int) -> bool:
        return key in self._dyn

    @property
    def version(self) -> int:
        """Update counter of the backing store (bumped per mutation)."""
        return self._dyn.version

    @property
    def scale(self) -> np.ndarray:
        """The frozen normalization frame every inserted point is scaled by."""
        return self._scale.copy()

    def group_sizes(self) -> np.ndarray:
        """Alive tuples per group (original group ids, before remap)."""
        return self._dyn.group_sizes()

    def skyline_keys(self) -> list[int]:
        """Keys of the current per-group skyline (forces maintenance)."""
        return self._dyn.skyline_keys()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sky = len(self._dyn.skyline_keys()) if len(self._dyn) else 0
        return (
            f"LiveFairHMSIndex(n={len(self._dyn)}, skyline={sky}, "
            f"d={self._dyn.dim}, C={self._dyn.num_groups}, "
            f"epoch={self.epoch}, version={self._dyn.version})"
        )
