"""Precomputed per-dataset solver artifacts.

Every FairHMS solver starts from the same dataset-dependent (but
constraint-independent) state: BiGreedy needs a delta-net and the
``(m, n)`` score-ratio matrix of a :class:`~repro.hms.truncated.
TruncatedEngine`; IntCov needs the upper score-line envelope and its
:class:`~repro.core.intcov.TauLadder` (sampled rungs of the candidate-MHR
set, the brackets listed between them and each point's peak ratio, which
bounds the rows an interval pass must visit).  :class:`SolverArtifacts`
owns one dataset and lazily builds and caches each artifact on first use,
so a query-serving layer (or any caller issuing many solves against one
dataset) pays for each at most once.

Cache keys and determinism:

* nets and engines are keyed by ``(m, seed)`` where ``seed`` is an
  integer — a cache miss samples ``sample_directions(m, d,
  default_rng(seed))``, exactly the stream a cold solver call would draw,
  so cached and cold results are bit-identical;
* non-integer seeds (``None`` = fresh entropy, or a live ``Generator``)
  are *bypassed*, not cached: freezing them would silently change the
  caller's randomness semantics;
* the envelope and the tau ladder depend only on the points and are
  cached unconditionally (2-D datasets only).

Artifacts are bound to one :class:`~repro.data.dataset.Dataset` *object*:
datasets are immutable by convention, so object identity is the cache
validity test (see :meth:`SolverArtifacts.matches`).

Epochs and staged invalidation (live serving):

The all-or-nothing :meth:`clear` is too blunt for a live index whose
dataset mutates between queries — most updates leave the solver-input
skyline unchanged, and even a changed skyline invalidates only the
*data-dependent* artifacts (engines, envelope, tau ladder) while the
delta-nets, which depend on ``(m, d, seed)`` alone, stay valid.  So a
data change is recorded with :meth:`bump_epoch` (same dataset object,
e.g. population counts shifted) or :meth:`rebind` (new skyline dataset
object), both of which only *stage* invalidation via per-component dirty
flags; the flags are applied lazily by :meth:`flush_invalidations`,
which every accessor (and ``solve_fairhms``) calls before trusting the
cache.  Skyline-unchanged epochs therefore keep every artifact warm.
"""

from __future__ import annotations

import numpy as np

from .._rng import ensure_rng
from ..core.intcov import TauLadder
from ..data.dataset import Dataset
from ..geometry.deltanet import sample_directions
from ..geometry.envelope import Envelope, upper_envelope
from ..hms.truncated import TruncatedEngine

__all__ = ["SolverArtifacts"]


def _seed_key(seed) -> int | None:
    """Hashable cache key for a seed, or ``None`` when not cacheable.

    Only plain integers (and numpy integers) reproduce the same stream on
    every use; ``None`` means fresh entropy and a ``Generator`` is
    stateful, so both bypass the cache.
    """
    if isinstance(seed, bool):  # bools are ints but almost surely a bug
        return None
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return None


class SolverArtifacts:
    """Lazily built, cached per-dataset state shared across solver calls.

    Args:
        dataset: the solver-input dataset (normally a per-group skyline).
            All cached engines are built over ``dataset.points``.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._nets: dict[tuple[int, int], np.ndarray] = {}
        self._engines: dict[tuple[int, int], TruncatedEngine] = {}
        self._envelope: Envelope | None = None
        self._ladder: TauLadder | None = None
        self._epoch = 0
        self._dirty_engines = False
        self._dirty_geometry = False  # envelope + tau ladder
        self.counters = {
            "net_hits": 0,
            "net_misses": 0,
            "net_bypasses": 0,
            "engine_hits": 0,
            "engine_misses": 0,
            "epoch_bumps": 0,
            "engine_invalidations": 0,
        }

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def epoch(self) -> int:
        """Data version these artifacts serve; bumped on every data change."""
        return self._epoch

    def matches(self, dataset: Dataset) -> bool:
        """True iff these artifacts were built for exactly this dataset.

        Identity, not equality: datasets are immutable by convention, so a
        different object may hold different points and must not reuse
        cached state.  Solvers call this before trusting the cache and
        fall back to inline computation on a mismatch.
        """
        return dataset is self._dataset

    # ------------------------------------------------------------------ #
    # epochs and staged invalidation
    # ------------------------------------------------------------------ #

    def bump_epoch(self, *, skyline_changed: bool = True) -> int:
        """Advance the epoch; stage invalidation iff the data changed shape.

        ``skyline_changed=False`` records a data version the solver input
        is insensitive to (e.g. only population counts moved): every
        cached artifact stays warm and valid.  ``skyline_changed=True``
        marks the engines and the 2-D geometry (envelope + tau ladder)
        dirty; they are dropped lazily at the next flush.  Nets are
        never invalidated — they depend only on ``(m, d, seed)``.

        Returns the new epoch.
        """
        self._epoch += 1
        self.counters["epoch_bumps"] += 1
        if skyline_changed:
            self._dirty_engines = True
            self._dirty_geometry = True
        return self._epoch

    def rebind(self, dataset: Dataset) -> int:
        """Swap in a new dataset object and stage full data invalidation.

        The live index calls this when the maintained skyline actually
        changed (new :class:`Dataset` snapshot).  The dimension must
        match so the cached delta-nets remain valid.  Returns the new
        epoch; a no-op (epoch unchanged) when the object is already
        bound.
        """
        if dataset is self._dataset:
            return self._epoch
        if dataset.dim != self._dataset.dim:
            raise ValueError(
                f"cannot rebind artifacts across dimensions "
                f"({self._dataset.dim} -> {dataset.dim})"
            )
        self._dataset = dataset
        return self.bump_epoch(skyline_changed=True)

    def flush_invalidations(self) -> None:
        """Apply staged invalidation: drop every dirty component.

        Cheap when clean; called by every artifact accessor and by
        ``solve_fairhms`` before a solve, so a stale engine or envelope
        can never be served after a :meth:`rebind`.
        """
        if self._dirty_engines:
            if self._engines:
                self.counters["engine_invalidations"] += len(self._engines)
            self._engines.clear()
            self._dirty_engines = False
        if self._dirty_geometry:
            self._envelope = None
            self._ladder = None
            self._dirty_geometry = False

    def restore_epoch(self, epoch: int) -> int:
        """Fast-forward the epoch counter without staging invalidation.

        Snapshot restore uses this so a reloaded live index resumes at
        the epoch it was spilled at instead of restarting from 0; a
        target at or below the current epoch is a no-op (epochs are
        monotone).  Returns the resulting epoch.
        """
        if int(epoch) > self._epoch:
            self._epoch = int(epoch)
        return self._epoch

    def prime_net(self, m: int, seed: int, net: np.ndarray) -> None:
        """Install an externally provided direction net (snapshot restore).

        The caller guarantees ``net`` equals ``sample_directions(m, d,
        default_rng(seed))`` bit for bit — nets are persisted, never
        recomputed, exactly because the equality holds.
        """
        key = _seed_key(seed)
        if key is None:
            raise ValueError("only integer-seed nets are cacheable")
        net_arr = np.asarray(net, dtype=np.float64)
        if net_arr.shape != (int(m), self._dataset.dim):
            raise ValueError(
                f"net shape {net_arr.shape} does not match "
                f"(m={int(m)}, d={self._dataset.dim})"
            )
        self._nets[(int(m), key)] = net_arr

    def prime_engine(self, m: int, seed: int, engine: TruncatedEngine) -> None:
        """Install an externally restored engine (snapshot restore).

        Flushes staged invalidation first so the primed engine cannot be
        dropped by a stale dirty flag; the engine must have been built
        over exactly this dataset's points for the cached answers to be
        bit-identical.
        """
        key = _seed_key(seed)
        if key is None:
            raise ValueError("only integer-seed engines are cacheable")
        if engine.n != self._dataset.n:
            raise ValueError(
                f"engine covers {engine.n} points, dataset has {self._dataset.n}"
            )
        self.flush_invalidations()
        self._engines[(int(m), key)] = engine

    def prime_geometry(self, envelope: Envelope) -> None:
        """Install an externally restored envelope (snapshot restore).

        Clears the geometry dirty flag so the next solve uses it instead
        of recomputing; the tau ladder is rebuilt from it on first use.
        The envelope must be the one :func:`upper_envelope` computes for
        this dataset's points, bit for bit.
        """
        self._envelope = envelope
        self._ladder = None
        self._dirty_geometry = False

    def dirty_components(self) -> tuple[str, ...]:
        """Names of components staged for invalidation (empty when clean)."""
        dirty = []
        if self._dirty_engines:
            dirty.append("engines")
        if self._dirty_geometry:
            dirty.append("geometry")
        return tuple(dirty)

    # ------------------------------------------------------------------ #
    # BiGreedy artifacts: delta-nets and truncated-MHR engines
    # ------------------------------------------------------------------ #

    def net(self, m: int, seed) -> np.ndarray:
        """The ``(m, d)`` direction net for ``seed``, cached for int seeds."""
        key = _seed_key(seed)
        if key is None:
            self.counters["net_bypasses"] += 1
            return sample_directions(int(m), self._dataset.dim, ensure_rng(seed))
        cache_key = (int(m), key)
        net = self._nets.get(cache_key)
        if net is None:
            self.counters["net_misses"] += 1
            net = sample_directions(int(m), self._dataset.dim, ensure_rng(key))
            self._nets[cache_key] = net
        else:
            self.counters["net_hits"] += 1
        return net

    def engine(self, m: int, seed) -> TruncatedEngine:
        """A :class:`TruncatedEngine` over the dataset for net ``(m, seed)``.

        The engine's score-ratio matrix is the dominant precomputation of
        BiGreedy; for integer seeds repeated queries with the same
        ``(m, seed)`` share one engine object.
        """
        self.flush_invalidations()
        key = _seed_key(seed)
        if key is None:
            return TruncatedEngine(self._dataset.points, self.net(m, seed))
        cache_key = (int(m), key)
        engine = self._engines.get(cache_key)
        if engine is None:
            self.counters["engine_misses"] += 1
            engine = TruncatedEngine(self._dataset.points, self.net(m, seed))
            self._engines[cache_key] = engine
        else:
            self.counters["engine_hits"] += 1
        return engine

    # ------------------------------------------------------------------ #
    # IntCov artifacts: envelope and tau ladder (2-D only)
    # ------------------------------------------------------------------ #

    def envelope(self) -> Envelope:
        """Upper score-line envelope of the dataset (2-D only)."""
        if self._dataset.dim != 2:
            raise ValueError("score-line envelopes exist only for 2-D datasets")
        self.flush_invalidations()
        if self._envelope is None:
            self._envelope = upper_envelope(self._dataset.points)
        return self._envelope

    def tau_ladder(self) -> TauLadder:
        """IntCov's ladder over the candidate-MHR values (2-D only)."""
        envelope = self.envelope()
        if self._ladder is None:
            self._ladder = TauLadder(self._dataset.points, envelope)
        return self._ladder

    # ------------------------------------------------------------------ #
    # snapshot export: point-in-time views of the cache contents
    # ------------------------------------------------------------------ #

    def cached_nets(self) -> dict[tuple[int, int], np.ndarray]:
        """Copy of the ``(m, seed) -> net`` cache (snapshot persistence)."""
        return dict(self._nets)

    def cached_engines(self) -> dict[tuple[int, int], TruncatedEngine]:
        """Copy of the ``(m, seed) -> engine`` cache, post-invalidation.

        Staged invalidation is flushed first so a snapshot can never
        capture an engine a live index already marked stale.
        """
        self.flush_invalidations()
        return dict(self._engines)

    def cached_envelope(self) -> Envelope | None:
        """The cached 2-D envelope, or None.

        Unlike :meth:`envelope` this never *builds* anything — a snapshot
        captures what is resident.
        """
        self.flush_invalidations()
        return self._envelope

    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept).

        Engines are the memory-heavy artifact (``(m, n)`` score matrices,
        one per distinct ``(m, seed)``); callers serving adversarial or
        per-client seeds should clear periodically.
        """
        self._nets.clear()
        self._engines.clear()
        self._envelope = None
        self._ladder = None
        self._dirty_engines = False
        self._dirty_geometry = False

    def cache_bytes(self) -> int:
        """Estimated resident bytes of the cached artifacts.

        Sums every numpy array reachable from the caches — nets, engine
        score matrices (the dominant term: one ``(m, n)`` matrix per
        distinct ``(m, seed)``), the 2-D envelope, and the tau ladder with
        its per-point slopes and peak ratios and its listed brackets.
        Used by the service registry's byte-budgeted eviction; safe to
        call while another thread fills the caches (snapshots, partial
        counts on a race — an estimate, never corruption).
        """
        total = 0
        try:
            total += sum(net.nbytes for net in list(self._nets.values()))
            for engine in list(self._engines.values()):
                for value in list(vars(engine).values()):
                    if isinstance(value, np.ndarray):
                        total += value.nbytes
        except RuntimeError:  # cache resized mid-snapshot
            pass
        envelope = self._envelope
        if envelope is not None:
            for value in list(vars(envelope).values()):
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        ladder = self._ladder
        if ladder is not None:
            try:
                total += ladder.nbytes
            except RuntimeError:  # brackets listed mid-count
                pass
        return int(total)

    def cache_info(self) -> dict:
        """Hit/miss counters plus current cache occupancy and epoch."""
        info = dict(self.counters)
        info["nets_cached"] = len(self._nets)
        info["engines_cached"] = len(self._engines)
        info["envelope_cached"] = self._envelope is not None
        info["ladder_cached"] = self._ladder is not None
        info["cache_bytes"] = self.cache_bytes()
        info["epoch"] = self._epoch
        info["dirty_components"] = self.dirty_components()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverArtifacts({self._dataset.name!r}, n={self._dataset.n}, "
            f"engines={len(self._engines)})"
        )
