"""``FairHMSIndex``: answer many FairHMS queries over one dataset fast.

The one-shot API (``solve_fairhms``) redoes skyline extraction, delta-net
sampling, and score-matrix construction on every call.  In a serving
setting a single dataset is queried repeatedly with varying ``k``,
fairness constraints, and ``eps``; the index performs the dataset-level
work once at build time and shares the rest through a
:class:`~repro.serving.artifacts.SolverArtifacts` cache:

* **build time** — normalization and per-group skyline extraction;
* **first use** — the 2-D envelope + tau ladder (IntCov), and
  one delta-net + truncated-MHR engine per distinct ``(m, seed)``
  (BiGreedy / BiGreedy+);
* **every repeat** — fully solved queries are memoized, so identical
  queries (the common case under real traffic) are answered from the
  result cache without running the solver at all.

Warm answers are *bit-identical* to the corresponding cold
``solve_fairhms`` call with the same seed: cache misses draw from exactly
the seed-derived stream the cold path would use.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.solution import Solution
from ..core.solve import solve_fairhms
from ..planner import Plan, Planner
from ..data.dataset import Dataset
from ..fairness.constraints import FairnessConstraint
from ..hms.evaluation import MhrEvaluation, MhrEvaluator
from ..obs.trace import current_span
from .artifacts import SolverArtifacts

__all__ = ["FairHMSIndex", "Query"]

_CONSTRAINT_SCHEMES = ("proportional", "balanced", "unconstrained")


def _trace_solve(parent, started, algorithm, constraint, solution) -> None:
    """Attach a ``solve`` span (with per-phase children) to a request trace.

    The solver already timed its phases into ``Solution.stats["phases"]``
    (recorded in execution order); they are replayed as back-to-back
    child spans offset from the solve's start — same numbers the phase
    histograms aggregate, now visible per request.  Only called when a
    trace is active, so the untraced hot path never allocates here.
    """
    span = parent.child(
        "solve", start=started, algorithm=str(algorithm), k=int(constraint.k)
    )
    stats = getattr(solution, "stats", None)
    phases = stats.get("phases") if isinstance(stats, dict) else None
    if isinstance(phases, dict):
        cursor = started
        for phase, seconds in phases.items():
            try:
                seconds = max(0.0, float(seconds))
            except (TypeError, ValueError):
                continue
            child = span.child(str(phase), start=cursor)
            cursor += seconds
            child.end(cursor)
    span.end()


@dataclass(frozen=True)
class Query:
    """One FairHMS query, for :meth:`FairHMSIndex.query_batch`.

    Either ``constraint`` or ``k`` must be set; with only ``k`` the index
    builds the constraint from ``scheme``/``alpha``.  ``seed=None`` means
    the index default.  ``options`` is forwarded verbatim to the solver
    (e.g. ``{"mode": "bicriteria"}``).
    """

    k: int | None = None
    constraint: FairnessConstraint | None = None
    eps: float = 0.02
    algorithm: str = "auto"
    seed: int | None = None
    alpha: float = 0.1
    scheme: str = "proportional"
    options: dict = field(default_factory=dict)


class FairHMSIndex:
    """Reusable query-serving index over one dataset.

    Args:
        dataset: the raw database.  Normalization and per-group skyline
            extraction (the paper's standard preprocessing) run once here;
            disable with ``normalize=False`` / ``per_group_skyline=None``
            if the dataset is already preprocessed.
        normalize: max-normalize each attribute before indexing.
        per_group_skyline: ``True`` for the union of per-group skylines
            (the paper's setting), ``False`` for the global skyline,
            ``None`` to index ``dataset`` as-is.
        default_seed: seed used when a query does not specify one; an
            integer so that default queries hit the deterministic caches.
        cache_results: memoize fully solved queries (keyed by algorithm,
            constraint, and solver options).  Cached hits return the same
            :class:`Solution` object — treat solutions as read-only.
        max_cached_results: bound on the result memo, evicted LRU — a
            cache hit refreshes an entry's recency, so the hottest
            repeated queries survive one-off bursts of distinct ones.
            The artifact (net/engine) caches are not
            auto-evicted — each distinct ``(m, seed)`` key holds an
            ``(m, n)`` score matrix, so serve with a fixed seed policy
            and call :meth:`clear_caches` if clients control seeds.

    Concurrency model: every public entry point (queries, cache
    management, evaluation — and, on the live subclass, mutations)
    serializes on one internal reentrant lock (:attr:`lock`), because
    cached :class:`TruncatedEngine` objects memoize per-``tau`` state in
    place.  Concurrent callers are therefore *safe* but see serialized
    throughput on a single index; for cross-dataset parallelism and
    request coalescing put ``repro.service.Gateway`` in front (it fences
    reads and writes per dataset), or give each worker its own index —
    indexes over the same dataset return identical answers.

    The static index is the *frozen* special case of live serving: its
    dataset never changes, so :meth:`_refresh` is a no-op and the epoch
    stays 0 forever.  ``repro.serving.LiveFairHMSIndex`` subclasses it to
    accept inserts/deletes/streams between queries.
    """

    #: Whether the indexed dataset is immutable.  The live subclass sets
    #: this to False; everything keyed on it (epochs, refresh) is shared.
    frozen = True

    def __init__(
        self,
        dataset: Dataset,
        *,
        normalize: bool = True,
        per_group_skyline: bool | None = True,
        default_seed: int = 7,
        cache_results: bool = True,
        max_cached_results: int = 1024,
    ) -> None:
        data = dataset.normalized() if normalize else dataset
        if per_group_skyline is None:
            sky = data
        else:
            sky = data.skyline(per_group=per_group_skyline)
        self._init_state(
            data,
            sky,
            default_seed=default_seed,
            cache_results=cache_results,
            max_cached_results=max_cached_results,
        )

    def _init_state(
        self,
        dataset: Dataset | None,
        skyline: Dataset | None,
        *,
        default_seed: int,
        cache_results: bool,
        max_cached_results: int,
    ) -> None:
        """Shared serving-state setup (also used by the live subclass,
        which preprocesses its data through a ``DynamicFairHMS`` instead
        of the one-shot normalize+skyline pipeline)."""
        # Reentrant so internal calls (query -> constraint_for) nest; see
        # the class docstring for the concurrency model.
        self._serve_lock = threading.RLock()
        self._dataset = dataset
        self._skyline = skyline
        # Dispatch policy in one place: every query plans through this.
        # The default static planner reproduces ``resolve_algorithm``
        # exactly; the service registry swaps in its shared (possibly
        # adaptive) planner via :meth:`set_planner`.
        self._planner = Planner()
        self._artifacts = SolverArtifacts(skyline) if skyline is not None else None
        self._default_seed = int(default_seed)
        self._cache_results = bool(cache_results)
        self._max_cached_results = max(1, int(max_cached_results))
        self._results: OrderedDict[tuple, Solution] = OrderedDict()
        self._result_hits = 0
        self._result_misses = 0
        self._constraints: dict[tuple, FairnessConstraint] = {}
        self._evaluator: MhrEvaluator | None = None
        # Last known optimal tau per IntCov query key.  Deliberately NOT
        # dropped on epoch changes: a hint is only ever *verified* by the
        # solver (two decision evaluations), so a stale hint costs a
        # galloping fallback search, never a wrong answer.  Evicted LRU
        # (like ``_results``): hits refresh recency, so the hot working
        # set survives a burst of one-off keys instead of being wiped
        # wholesale and paying a full-search latency cliff for every key.
        self._tau_hints: OrderedDict[tuple, float] = OrderedDict()
        self._max_tau_hints = 4 * self._max_cached_results
        # Optimal tau of the last k-built IntCov solve: the hint for a
        # k-built query with no hint of its own; kept across epochs too.
        self._last_k_tau: float | None = None

    @classmethod
    def from_preprocessed(
        cls,
        dataset: Dataset,
        skyline: Dataset,
        *,
        default_seed: int = 7,
        cache_results: bool = True,
        max_cached_results: int = 1024,
    ) -> "FairHMSIndex":
        """Index over an already normalized dataset and extracted skyline.

        The entry point of the sharded parallel builder
        (``repro.service.build_index_sharded``), which computes exactly
        what ``FairHMSIndex(dataset)`` would — the max-normalized
        database and its per-group skyline — across a process pool, then
        hands both here.  No validation beyond a dimension check is done:
        the caller guarantees ``skyline`` is the per-group skyline of
        ``dataset`` (answers are wrong, not just slow, otherwise).

        Only meaningful for the frozen index; the live subclass owns its
        preprocessing pipeline.
        """
        if not cls.frozen:
            raise TypeError(
                "from_preprocessed builds frozen indexes only; construct "
                f"{cls.__name__} from a dataset instead"
            )
        if dataset.dim != skyline.dim:
            raise ValueError(
                f"dataset and skyline dimensions differ "
                f"({dataset.dim} != {skyline.dim})"
            )
        index = cls.__new__(cls)
        index._init_state(
            dataset,
            skyline,
            default_seed=default_seed,
            cache_results=cache_results,
            max_cached_results=max_cached_results,
        )
        return index

    # ------------------------------------------------------------------ #
    # refresh / epochs
    # ------------------------------------------------------------------ #

    def _refresh(self) -> None:
        """Sync serving state with the underlying data (no-op: frozen).

        The live subclass overrides this to apply pending inserts/deletes
        — advancing the epoch, staging artifact invalidation, and
        dropping the result memo — before any query is answered.
        """

    @property
    def epoch(self) -> int:
        """Data version being served (always 0 for a frozen index)."""
        return 0 if self._artifacts is None else self._artifacts.epoch

    def _start_epoch(self) -> None:
        """Drop per-epoch serving state after a data change.

        The result memo and the constraint cache go unconditionally: any
        insert or delete moves the population group sizes that
        proportional constraints (and therefore memoized answers) depend
        on.  The evaluator is rebuilt lazily over the new database.
        Artifact invalidation is staged separately by the caller
        (``bump_epoch``/``rebind``) so skyline-unchanged epochs keep
        nets, engines, and geometry warm.
        """
        self._results.clear()
        self._constraints.clear()
        self._evaluator = None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def lock(self) -> threading.RLock:
        """The reentrant lock every public entry point serializes on.

        Exposed so an external scheduler (e.g. the service gateway) can
        fence a multi-call sequence — refresh, then a batch of queries —
        against concurrent mutations of a live index.
        """
        return self._serve_lock

    @property
    def dataset(self) -> Dataset:
        """The (normalized) full database queries are answered about."""
        self._refresh()
        return self._dataset

    @property
    def skyline(self) -> Dataset:
        """The solver-input dataset all solutions index into."""
        self._refresh()
        return self._skyline

    @property
    def artifacts(self) -> SolverArtifacts:
        """The shared per-dataset artifact cache (nets, engines, envelope)."""
        self._refresh()
        return self._artifacts

    def cache_info(self) -> dict:
        """Artifact hit/miss counters plus result-cache statistics."""
        with self._serve_lock:
            self._refresh()
            if self._artifacts is None:  # empty live: keep the shape stable
                info = {"epoch": self.epoch, "dirty_components": ()}
            else:
                info = self._artifacts.cache_info()
            info["result_hits"] = self._result_hits
            info["result_misses"] = self._result_misses
            info["results_cached"] = len(self._results)
            info["cache_bytes"] = self.cache_bytes()
            return info

    def cache_bytes(self) -> int:
        """Estimated resident bytes of this index's cached state.

        Counts the dataset and skyline arrays, the artifact caches (nets,
        engine score matrices, 2-D geometry), memoized solution points,
        and the evaluator — the byte account ``repro.service.
        DatasetRegistry`` budgets its LRU eviction with.  An estimate:
        python object overhead and small scalars are ignored.

        Deliberately does **not** take the serve lock: the registry
        accounts memory while other datasets (and possibly this one) are
        mid-solve, and an accounting pass must never wait on a busy
        index.  Snapshots tolerate concurrent cache mutation; a race can
        only skew the estimate, never corrupt state.
        """
        total = 0
        for data in (self._dataset, self._skyline):
            if data is not None:
                total += (
                    data.points.nbytes + data.labels.nbytes + data.ids.nbytes
                )
        artifacts = self._artifacts
        if artifacts is not None:
            total += artifacts.cache_bytes()
        try:
            for solution in list(self._results.values()):
                total += solution.points.nbytes + solution.indices.nbytes
        except RuntimeError:  # resized mid-snapshot: partial count is fine
            pass
        evaluator = self._evaluator
        if evaluator is not None:
            for value in list(vars(evaluator).values()):
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        return int(total)

    def serving_config(self) -> dict:
        """The construction-time serving parameters (snapshot persistence).

        Exactly the keyword arguments a restore must pass so the reloaded
        index keys its caches — and draws its default randomness — the
        same way this one does.
        """
        return {
            "default_seed": self._default_seed,
            "cache_results": self._cache_results,
            "max_cached_results": self._max_cached_results,
        }

    def memoized_results(self) -> dict[tuple, Solution]:
        """Copy of the result memo, LRU order preserved (persistence)."""
        with self._serve_lock:
            return dict(self._results)

    def prime_result(self, key: tuple, solution: Solution) -> None:
        """Install a memoized solution under ``key`` (snapshot restore).

        The caller guarantees ``key`` is exactly what :meth:`query` would
        compute for the solution's parameters — snapshot load replays
        keys captured from :meth:`memoized_results`, never synthesizes
        them.  No-op when result caching is disabled.
        """
        if not self._cache_results:
            return
        with self._serve_lock:
            while len(self._results) >= self._max_cached_results:
                self._results.popitem(last=False)
            self._results[tuple(key)] = solution

    def clear_result_cache(self) -> None:
        """Drop memoized solutions (artifact caches are kept)."""
        with self._serve_lock:
            self._results.clear()

    def clear_caches(self) -> None:
        """Drop memoized solutions AND the net/engine artifact caches.

        For long-running servers whose clients control seeds: each
        distinct ``(m, seed)`` engine holds an ``(m, n)`` score matrix,
        so periodic clearing bounds memory at the cost of warm-up.
        """
        with self._serve_lock:
            self._results.clear()
            self._tau_hints.clear()
            self._last_k_tau = None
            self._evaluator = None
            if self._artifacts is not None:
                self._artifacts.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FairHMSIndex({self._dataset.name!r}, n={self._dataset.n}, "
            f"skyline={self._skyline.n}, d={self._dataset.dim}, "
            f"C={self._dataset.num_groups})"
        )

    # ------------------------------------------------------------------ #
    # constraints
    # ------------------------------------------------------------------ #

    def constraint_for(
        self, k: int, *, alpha: float = 0.1, scheme: str = "proportional"
    ) -> FairnessConstraint:
        """Standard constraint for solution size ``k``, cached per key.

        ``proportional`` follows the paper's Section 5.1 recipe: shares of
        the *population* group sizes (pre-skyline), clamped, with lower
        bounds capped by per-group skyline availability.  ``balanced``
        gives every group ~``k / C``; ``unconstrained`` turns FairHMS into
        vanilla HMS.
        """
        if scheme not in _CONSTRAINT_SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {_CONSTRAINT_SCHEMES}"
            )
        with self._serve_lock:
            self._refresh()
            if self._skyline is None:
                raise ValueError("no tuples alive; insert data before querying")
            key = (scheme, int(k), float(alpha))
            cached = self._constraints.get(key)
            if cached is not None:
                return cached
            sky = self._skyline
            if scheme == "proportional":
                base = FairnessConstraint.proportional(
                    k, sky.population_group_sizes, alpha=alpha, clamp=True
                )
            elif scheme == "balanced":
                base = FairnessConstraint.balanced(
                    k, sky.num_groups, alpha=alpha, clamp=True
                )
            else:
                base = FairnessConstraint.unconstrained(k, sky.num_groups)
            constraint = base.capped_by_availability(sky.group_sizes)
            self._constraints[key] = constraint
            return constraint

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def planner(self) -> Planner:
        """The :class:`~repro.planner.Planner` dispatching this index."""
        return self._planner

    def set_planner(self, planner: Planner) -> None:
        """Install a (possibly shared, possibly adaptive) planner.

        The service registry calls this after every build and spill
        reload so all tenants feed one estimator and one set of plan
        counters; a bare index keeps its private static planner.
        """
        with self._serve_lock:
            self._planner = planner

    def _dataset_label(self, dataset: str | None) -> str:
        if dataset is not None:
            return str(dataset)
        if self._dataset is not None and getattr(self._dataset, "name", None):
            return str(self._dataset.name)
        return ""

    def plan_query(
        self,
        query: "Query",
        *,
        dataset: str | None = None,
        queue_depth: int = 0,
        record: bool = True,
    ) -> Plan:
        """Plan one query without running it.

        The gateway calls this once per request, keys its coalescing on
        the returned plan, and passes the same plan back into
        :meth:`query` — so an adaptive decision can never flip between
        scheduling and execution.

        Args:
            query: the request (a :class:`Query`).
            dataset: estimator label; defaults to the dataset's name.
                The gateway passes its registry name so planning and its
                :meth:`~repro.planner.Planner.observe` feedback share keys.
            queue_depth: requests currently queued on this dataset.
            record: count this decision in the planner's plan counters
                (pass ``False`` for inspection-only calls).
        """
        with self._serve_lock:
            self._refresh()
            if self._skyline is None:
                raise ValueError("no tuples alive; insert data before querying")
            constraint = query.constraint
            if constraint is None:
                if query.k is None:
                    raise ValueError(
                        "provide either k or an explicit constraint"
                    )
                constraint = self.constraint_for(
                    query.k, alpha=query.alpha, scheme=query.scheme
                )
            seed = query.seed if query.seed is not None else self._default_seed
            return self._planner.plan(
                self._skyline,
                constraint,
                algorithm=query.algorithm,
                dataset=self._dataset_label(dataset),
                eps=query.eps,
                seed=seed,
                options=query.options,
                artifacts=self._artifacts,
                queue_depth=queue_depth,
                record=record,
            )

    def resolve_query(self, query: "Query") -> str:
        """The concrete algorithm name ``query`` will run under.

        Applies exactly the dispatch rule :meth:`query` applies — a
        planner decision over the current skyline and the query's
        (possibly constructed) constraint — so schedulers in front of the
        index (the service gateway) can treat ``"auto"`` and its
        resolution as the same request, and drop knobs the resolved
        algorithm ignores (IntCov takes neither ``eps`` nor ``seed``).
        """
        return self.plan_query(query, record=False).algorithm

    def query(
        self,
        k: int | None = None,
        *,
        constraint: FairnessConstraint | None = None,
        eps: float = 0.02,
        algorithm: str = "auto",
        seed: int | None = None,
        alpha: float = 0.1,
        scheme: str = "proportional",
        plan: Plan | None = None,
        **options,
    ) -> Solution:
        """Solve one FairHMS query against the index.

        Equivalent to ``solve_fairhms(index.skyline, constraint,
        algorithm=..., epsilon=eps, seed=seed, **options)`` — same
        solution, bit for bit — but served from the index's caches.
        Dispatch flows through the index's :class:`~repro.planner.Planner`;
        running the plan is always ``solve_fairhms(skyline, constraint,
        algorithm=plan.algorithm, **plan.solver_kwargs())``, so a planned
        answer is bit-identical to the same configuration run by hand.
        An IntCov solve starts its search at a ``tau_hint``: the last
        optimum of the same query, else — for a constraint built from
        ``k`` — the last optimum of any k-built IntCov solve.  A hint
        moves where the search starts, never what it returns.

        Args:
            k: solution size; builds a ``scheme`` constraint when no
                explicit ``constraint`` is given.
            constraint: explicit fairness bounds (overrides ``k``/``alpha``
                /``scheme``).
            eps: cap-search granularity for the BiGreedy family (ignored
                by the exact IntCov).
            algorithm: ``"auto"``, ``"IntCov"``, ``"BiGreedy"`` or
                ``"BiGreedy+"``; auto resolves exactly as ``solve_fairhms``.
            seed: RNG seed; ``None`` uses the index's ``default_seed``.
                Pass a ``numpy.random.Generator`` for non-reproducible
                draws (those bypass the caches).
            alpha / scheme: constraint construction (see
                :meth:`constraint_for`).
            plan: a :class:`~repro.planner.Plan` from :meth:`plan_query`
                to execute verbatim (the gateway pins its coalescing
                decision this way); ``None`` plans here.  A supplied plan
                overrides ``eps``/``algorithm``/``seed``/``options``.
            **options: forwarded to the solver (``mode=``, ``net_size=``,
                ``extra_steps=``, ...).

        Returns:
            The solver's :class:`Solution` (possibly memoized — see
            ``cache_results``).
        """
        with self._serve_lock:
            self._refresh()
            if self._skyline is None:
                raise ValueError("no tuples alive; insert data before querying")
            k_built = constraint is None
            if k_built:
                if k is None:
                    raise ValueError(
                        "provide either k or an explicit constraint"
                    )
                constraint = self.constraint_for(k, alpha=alpha, scheme=scheme)
            if plan is None:
                if seed is None:
                    seed = self._default_seed
                plan = self._planner.plan(
                    self._skyline,
                    constraint,
                    algorithm=algorithm,
                    dataset=self._dataset_label(None),
                    eps=eps,
                    seed=seed,
                    options=options,
                    artifacts=self._artifacts,
                )
            algorithm = plan.algorithm
            solver_kwargs = plan.solver_kwargs()
            key = self._result_key(algorithm, constraint, solver_kwargs)
            parent = current_span()
            if parent is not None:
                parent.annotate(plan_reason=plan.reason)
            if key is not None:
                cached = self._results.get(key)
                if cached is not None:
                    self._result_hits += 1
                    self._results.move_to_end(key)  # true LRU: hits refresh
                    if parent is not None:
                        parent.annotate(
                            result_cache_hit=True, algorithm=str(algorithm)
                        )
                    return cached
            if algorithm == "IntCov":
                hint = None if key is None else self._tau_hint_for(key)
                if hint is None and k_built:
                    hint = self._last_k_tau
                if hint is not None:
                    solver_kwargs["tau_hint"] = hint
            started = time.perf_counter() if parent is not None else 0.0
            solution = solve_fairhms(
                self._skyline,
                constraint,
                algorithm=algorithm,
                artifacts=self._artifacts,
                **solver_kwargs,
            )
            if parent is not None:
                _trace_solve(parent, started, algorithm, constraint, solution)
            if algorithm == "IntCov":
                if key is not None:
                    self._record_tau_hint(key, solution)
                if k_built:
                    self._last_k_tau = float(solution.stats["tau"])
            if key is not None:
                self._result_misses += 1
                while len(self._results) >= self._max_cached_results:
                    self._results.popitem(last=False)  # least recently used
                self._results[key] = solution
            return solution

    def _tau_hint_for(self, key: tuple) -> float | None:
        """Fetch a tau hint, refreshing its LRU recency on the hit."""
        hint = self._tau_hints.get(key)
        if hint is not None:
            self._tau_hints.move_to_end(key)
        return hint

    def _record_tau_hint(self, key: tuple, solution: Solution) -> None:
        """Remember a solved query's optimal tau, evicting LRU past the cap.

        Per-entry eviction (not a wholesale ``clear``): under key churn the
        old behavior dropped every hot hint with the cold ones, forcing a
        full-search latency cliff on the next solve of each hot key.
        """
        tau = solution.stats.get("tau")
        if tau is None:
            return
        self._tau_hints[key] = float(tau)
        self._tau_hints.move_to_end(key)
        while len(self._tau_hints) > self._max_tau_hints:
            self._tau_hints.popitem(last=False)

    def query_batch(self, queries) -> list[Solution]:
        """Answer a heterogeneous batch of queries in one call.

        Accepts :class:`Query` objects or dicts of Query fields.  All
        queries share the index's delta-net, engine, envelope, and result
        caches, so a batch whose queries repeat an ``(m, seed)``
        combination samples that net and builds its score matrix exactly
        once, and duplicate queries are solved once.
        """
        specs = [q if isinstance(q, Query) else Query(**q) for q in queries]
        return [
            self.query(
                q.k,
                constraint=q.constraint,
                eps=q.eps,
                algorithm=q.algorithm,
                seed=q.seed,
                alpha=q.alpha,
                scheme=q.scheme,
                **q.options,
            )
            for q in specs
        ]

    def _result_key(self, algorithm, constraint, solver_kwargs) -> tuple | None:
        """Memoization key, or ``None`` when the query must not be cached
        (caching disabled, or an option is stateful/unhashable)."""
        if not self._cache_results:
            return None
        items = []
        for name, value in sorted(solver_kwargs.items()):
            if isinstance(value, (bool, str, type(None))):
                items.append((name, value))
            elif isinstance(value, (int, np.integer)):
                items.append((name, int(value)))
            elif isinstance(value, (float, np.floating)):
                items.append((name, float(value)))
            else:
                return None  # e.g. a Generator seed or explicit net array
        return (
            algorithm,
            int(constraint.k),
            tuple(int(v) for v in constraint.lower),
            tuple(int(v) for v in constraint.upper),
            tuple(items),
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    @property
    def evaluator(self) -> MhrEvaluator:
        """Shared :class:`MhrEvaluator` over the full (current) database."""
        with self._serve_lock:
            self._refresh()
            if self._evaluator is None:
                self._evaluator = MhrEvaluator(self.dataset.points)
            return self._evaluator

    def evaluate(self, solution: Solution) -> MhrEvaluation:
        """Exact (or refined-net) MHR of a solution against the full
        database; the evaluator's candidate set and direction net are
        discovered once and reused across calls."""
        points = solution.points if isinstance(solution, Solution) else solution
        with self._serve_lock:
            return self.evaluator.evaluate(np.asarray(points, dtype=np.float64))
