"""Versioned on-disk snapshots of serving indexes: the registry's spill tier.

Everything a warm :class:`~repro.serving.index.FairHMSIndex` holds is a
deterministic array — the normalized dataset, the per-group skyline, the
delta-nets, the engines' score-ratio matrices, IntCov's envelope, and
the memoized solution indices.  A
:class:`SnapshotStore` persists those arrays bit-exactly (one ``npz`` +
one JSON manifest per snapshot) so that

* an evicted index **reloads** instead of rebuilding — same answers, a
  fraction of the cost (``benchmarks/bench_snapshot.py`` measures it);
* a **process restart** warm-starts from disk instead of from nothing;
* a :class:`~repro.serving.live.LiveFairHMSIndex` becomes *spillable*:
  its alive table (the system of record for applied inserts/deletes) is
  part of the snapshot, so budget pressure no longer has to pin it.

Snapshot layout (``<root>/<name>/``):

* ``arrays-<checksum>.npz`` — every numpy array, under structured keys
  (``dataset.points``, ``net.<m>.<seed>``, ``engine.<m>.<seed>``,
  ``memo.<i>``, ``live.keys``, ...); content-addressed by the payload
  checksum so an overwrite never touches the previous payload in place;
* ``manifest.json`` — format version, kind (``frozen`` / ``live``), the
  payload file name, a git-independent SHA-256 **content checksum** over
  the arrays, a **dataset fingerprint** identifying the data the
  snapshot answers for, the index's serving config, epoch/version
  counters, and the metadata needed to rebuild ``Dataset`` /
  ``Solution`` objects.

The manifest is written last and atomically (temp file + rename) and is
the only commit point: a crash anywhere mid-save — including an
overwrite of an existing snapshot — leaves the previous complete
snapshot readable (or none, on a first save); superseded payloads are
garbage collected only after the new manifest is durable.
:meth:`SnapshotStore.load_index` verifies the checksum (and the format
version) before trusting anything, raising :class:`SnapshotError` on any
corruption.  See ``docs/PERSISTENCE.md`` for the format contract and the
live-index durability caveats.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import time
import zipfile
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from ..core.solution import Solution
from ..data.dataset import Dataset
from ..fairness.constraints import FairnessConstraint
from ..geometry.envelope import Envelope
from ..hms.truncated import TruncatedEngine
from ..serving.index import FairHMSIndex
from ..serving.live import LiveFairHMSIndex

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotStore",
    "dataset_fingerprint",
    "load_index",
    "save_index",
]

#: On-disk format version; bumped on any incompatible layout change.
FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_ARRAYS_PREFIX = "arrays-"  # content-addressed: arrays-<checksum12>.npz


class SnapshotError(RuntimeError):
    """A snapshot is missing, incomplete, corrupt, or from another format."""


# --------------------------------------------------------------------- #
# hashing
# --------------------------------------------------------------------- #


def _hash_arrays(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over array names, dtypes, shapes, and raw bytes (sorted).

    Depends only on content — not on file layout, git state, or the
    process that wrote it — so two snapshots of bit-identical state hash
    identically on any machine.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash identifying the data a snapshot answers queries for."""
    return _hash_arrays(
        {
            "points": dataset.points,
            "labels": dataset.labels,
            "ids": dataset.ids,
        }
    )


# --------------------------------------------------------------------- #
# (de)serialization helpers
# --------------------------------------------------------------------- #


def _jsonable(value) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _dataset_block(dataset: Dataset) -> dict:
    """JSON manifest block for one dataset (arrays travel separately)."""
    return {
        "name": dataset.name,
        "group_attribute": dataset.group_attribute,
        "group_names": list(dataset.group_names),
        "meta": {k: v for k, v in dataset.meta.items() if _jsonable(v)},
    }


def _dataset_arrays(prefix: str, dataset: Dataset, arrays: dict) -> None:
    arrays[f"{prefix}.points"] = dataset.points
    arrays[f"{prefix}.labels"] = dataset.labels
    arrays[f"{prefix}.ids"] = dataset.ids


def _restore_dataset(prefix: str, block: dict, arrays: dict) -> Dataset:
    dataset = Dataset(
        points=arrays[f"{prefix}.points"],
        labels=arrays[f"{prefix}.labels"],
        name=block["name"],
        group_attribute=block["group_attribute"],
        group_names=tuple(block["group_names"]),
        ids=arrays[f"{prefix}.ids"],
    )
    dataset.meta.update(block.get("meta", {}))
    return dataset


def _export_index(name: str, index: FairHMSIndex) -> tuple[dict, dict]:
    """One consistent (arrays, manifest) export, under the index's lock."""
    with index.lock:
        live = not index.frozen
        arrays: dict[str, np.ndarray] = {}
        manifest: dict = {
            "format_version": FORMAT_VERSION,
            "kind": "live" if live else "frozen",
            "name": str(name),
            "created_at": time.time(),
            "config": index.serving_config(),
            "epoch": int(index.epoch),
        }
        if live:
            state = index.live_state()
            arrays["live.keys"] = state["keys"]
            arrays["live.points"] = state["points"]
            arrays["live.groups"] = state["groups"]
            arrays["live.scale"] = state["scale"]
            manifest["live"] = {
                "dim": int(state["dim"]),
                "num_groups": int(state["num_groups"]),
                "version": int(state["version"]),
            }
            manifest["epoch"] = int(state["epoch"])
            manifest["dataset_fingerprint"] = _hash_arrays(
                {k: arrays[k] for k in ("live.keys", "live.points", "live.groups")}
            )
        else:
            dataset = index.dataset
            skyline = index.skyline
            _dataset_arrays("dataset", dataset, arrays)
            _dataset_arrays("skyline", skyline, arrays)
            manifest["dataset"] = _dataset_block(dataset)
            manifest["skyline"] = _dataset_block(skyline)
            manifest["dataset_fingerprint"] = dataset_fingerprint(dataset)
            manifest["memo"] = _export_memo(index, arrays)
        artifacts = index.artifacts
        net_keys: list[list[int]] = []
        engine_keys: list[list[int]] = []
        if artifacts is not None:
            for (m, seed), net in sorted(artifacts.cached_nets().items()):
                arrays[f"net.{m}.{seed}"] = net
                net_keys.append([int(m), int(seed)])
            for (m, seed), engine in sorted(artifacts.cached_engines().items()):
                arrays[f"engine.{m}.{seed}"] = engine.ratios
                engine_keys.append([int(m), int(seed)])
            if not live:
                # Live geometry is rebuilt lazily after the restore.
                envelope = artifacts.cached_envelope()
                if envelope is not None:
                    arrays["envelope.breaks"] = envelope.breaks
                    arrays["envelope.lines"] = envelope.lines
                    arrays["envelope.point_index"] = envelope.point_index
        manifest["artifacts"] = {
            "nets": net_keys,
            "engines": engine_keys,
            "geometry": "envelope.breaks" in arrays,
        }
        return arrays, manifest


def _export_memo(index: FairHMSIndex, arrays: dict) -> list[dict]:
    """Persist the result memo: tiny index arrays + JSON provenance.

    Memoized solutions are the purest warm state — a reloaded index
    answers repeated queries without solving at all.  Only solutions over
    the index's own skyline with JSON-able provenance are kept (that is
    every solution :meth:`FairHMSIndex.query` memoizes today).
    """
    entries: list[dict] = []
    for key, solution in index.memoized_results().items():
        if solution.dataset is not index.skyline:  # pragma: no cover - guard
            continue
        constraint = solution.constraint
        entry = {
            "key": repr(tuple(key)),
            "algorithm": solution.algorithm,
            "mhr_estimate": solution.mhr_estimate,
            "stats": {
                k: v for k, v in solution.stats.items() if _jsonable(v)
            },
            "constraint": None
            if constraint is None
            else {
                "lower": [int(v) for v in constraint.lower],
                "upper": [int(v) for v in constraint.upper],
                "k": int(constraint.k),
            },
        }
        arrays[f"memo.{len(entries)}"] = solution.indices
        entries.append(entry)
    return entries


def _restore_memo(index: FairHMSIndex, manifest: dict, arrays: dict) -> None:
    skyline = index.skyline
    for i, entry in enumerate(manifest.get("memo", ())):
        try:
            key = ast.literal_eval(entry["key"])
        except (ValueError, SyntaxError) as exc:
            raise SnapshotError(f"unreadable memo key {entry['key']!r}") from exc
        block = entry.get("constraint")
        constraint = (
            None
            if block is None
            else FairnessConstraint(
                lower=block["lower"], upper=block["upper"], k=block["k"]
            )
        )
        solution = Solution(
            indices=arrays[f"memo.{i}"],
            dataset=skyline,
            algorithm=entry["algorithm"],
            constraint=constraint,
            mhr_estimate=entry["mhr_estimate"],
            stats=dict(entry.get("stats", {})),
        )
        index.prime_result(key, solution)


def _restore_artifacts(index: FairHMSIndex, manifest: dict, arrays: dict) -> None:
    artifacts = index.artifacts
    block = manifest.get("artifacts", {})
    if artifacts is None:
        return
    for m, seed in block.get("nets", ()):
        artifacts.prime_net(m, seed, arrays[f"net.{m}.{seed}"])
    for m, seed in block.get("engines", ()):
        net_key = f"net.{m}.{seed}"
        if net_key not in arrays:
            raise SnapshotError(
                f"engine ({m}, {seed}) persisted without its net"
            )
        artifacts.prime_engine(
            m,
            seed,
            TruncatedEngine.from_ratios(arrays[f"engine.{m}.{seed}"], arrays[net_key]),
        )
    if block.get("geometry"):
        # Older snapshots also carry IntCov's full candidate array; the
        # search no longer needs it, so only the envelope is restored.
        envelope = Envelope(
            breaks=arrays["envelope.breaks"],
            lines=arrays["envelope.lines"],
            point_index=arrays["envelope.point_index"],
        )
        artifacts.prime_geometry(envelope)


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #


class SnapshotStore:
    """Directory of named index snapshots (one subdirectory per name).

    Args:
        root: base directory; created on first use.  Names are
            percent-encoded into file-system-safe subdirectory names, so
            any registry name round-trips.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- naming ------------------------------------------------------- #

    def path_for(self, name: str) -> Path:
        # Percent-encoding alone leaves "." and ".." intact (dots are
        # unreserved), which would escape the store root — encode dots
        # too, so every name maps to a fresh subdirectory *inside* it.
        encoded = quote(str(name), safe="").replace(".", "%2E")
        if not encoded:
            raise ValueError("snapshot names must be non-empty")
        return self.root / encoded

    def __contains__(self, name: str) -> bool:
        return (self.path_for(name) / _MANIFEST).is_file()

    def names(self) -> tuple[str, ...]:
        """Names with a complete (manifest-bearing) snapshot, sorted."""
        if not self.root.is_dir():
            return ()
        return tuple(
            sorted(
                unquote(p.name)
                for p in self.root.iterdir()
                if (p / _MANIFEST).is_file()
            )
        )

    # -- metadata ----------------------------------------------------- #

    def manifest(self, name: str) -> dict:
        """The snapshot's manifest; raises :class:`SnapshotError` if absent."""
        path = self.path_for(name) / _MANIFEST
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError as exc:
            raise SnapshotError(f"no snapshot for {name!r} under {self.root}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable manifest for {name!r}: {exc}") from exc
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot {name!r} has format version {version!r}; this "
                f"build reads version {FORMAT_VERSION}"
            )
        return manifest

    def size_bytes(self, name: str) -> int:
        """On-disk bytes of the snapshot (0 when absent)."""
        path = self.path_for(name)
        if not path.is_dir():
            return 0
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())

    def remove(self, name: str) -> bool:
        """Delete the snapshot; True if one existed."""
        path = self.path_for(name)
        if not path.is_dir():
            return False
        existed = False
        # Manifest first: a half-removed snapshot must read as absent,
        # never as complete-but-corrupt.
        manifest = path / _MANIFEST
        if manifest.is_file():
            existed = True
            manifest.unlink()
        for payload in path.glob(_ARRAYS_PREFIX + "*.npz"):
            existed = True
            payload.unlink()
        try:
            path.rmdir()
        except OSError:  # pragma: no cover - foreign files in the dir
            pass
        return existed

    # -- save / load -------------------------------------------------- #

    def save_index(
        self, name: str, index: FairHMSIndex, *, registration: dict | None = None
    ) -> Path:
        """Persist ``index`` under ``name``; returns the snapshot directory.

        Captures one consistent point-in-time state (the index's lock is
        held during export, so live writes serialize against the save).
        Overwrites any previous snapshot of the same name atomically:
        the array payload is content-addressed (``arrays-<checksum>``)
        and the manifest — replaced last, by rename — is the only commit
        point, so a crash anywhere mid-save leaves the *previous*
        complete snapshot readable; superseded payload files are garbage
        collected only after the new manifest is durable.

        ``registration``, if given, is recorded verbatim in the manifest
        — the registry stores the spec's index kwargs there so a reload
        under a *different* registration can detect the mismatch.
        """
        arrays, manifest = _export_index(name, index)
        checksum = _hash_arrays(arrays)
        manifest["checksum"] = checksum
        arrays_name = f"{_ARRAYS_PREFIX}{checksum[:12]}.npz"
        manifest["arrays_file"] = arrays_name
        if registration is not None:
            manifest["registration"] = registration
        path = self.path_for(name)
        path.mkdir(parents=True, exist_ok=True)
        arrays_tmp = path / (arrays_name + ".tmp")
        with open(arrays_tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(arrays_tmp, path / arrays_name)
        manifest_tmp = path / (_MANIFEST + ".tmp")
        with open(manifest_tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(manifest_tmp, path / _MANIFEST)
        for stale in path.glob(_ARRAYS_PREFIX + "*.npz"):
            if stale.name != arrays_name:
                stale.unlink(missing_ok=True)
        return path

    def load_index(self, name: str, *, verify: bool = True) -> FairHMSIndex:
        """Reload the snapshot into a fully warm serving index.

        The reloaded index answers bit-identically to the one that was
        saved (and, by determinism, to a cold build of the same data):
        datasets, nets, engine matrices, geometry, and memoized results
        are restored from the exact bytes the original computed.

        Args:
            verify: recompute the content checksum over the loaded
                arrays and compare with the manifest (on by default; the
                cost is one hash pass over data just read).

        Raises:
            SnapshotError: missing snapshot, wrong format version,
                checksum mismatch, or a structurally incomplete payload.
        """
        manifest = self.manifest(name)
        arrays_name = manifest.get("arrays_file")
        if not isinstance(arrays_name, str) or not arrays_name.startswith(
            _ARRAYS_PREFIX
        ):
            raise SnapshotError(
                f"snapshot {name!r} names no array payload in its manifest"
            )
        arrays_path = self.path_for(name) / arrays_name
        try:
            with np.load(arrays_path, allow_pickle=False) as payload:
                arrays = {key: payload[key] for key in payload.files}
        except FileNotFoundError as exc:
            raise SnapshotError(f"snapshot {name!r} has no array payload") from exc
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise SnapshotError(f"unreadable arrays for {name!r}: {exc}") from exc
        if verify and _hash_arrays(arrays) != manifest.get("checksum"):
            raise SnapshotError(
                f"checksum mismatch for {name!r}: the snapshot is corrupt "
                f"(or was edited); refusing to serve from it"
            )
        config = dict(manifest.get("config", {}))
        try:
            if manifest["kind"] == "live":
                block = manifest["live"]
                index: FairHMSIndex = LiveFairHMSIndex.from_live_state(
                    arrays["live.keys"],
                    arrays["live.points"],
                    arrays["live.groups"],
                    scale=arrays["live.scale"],
                    dim=block["dim"],
                    num_groups=block["num_groups"],
                    version=block.get("version"),
                    epoch=manifest.get("epoch"),
                    **config,
                )
            else:
                index = FairHMSIndex.from_preprocessed(
                    _restore_dataset("dataset", manifest["dataset"], arrays),
                    _restore_dataset("skyline", manifest["skyline"], arrays),
                    **config,
                )
            _restore_artifacts(index, manifest, arrays)
            if manifest["kind"] == "frozen":
                _restore_memo(index, manifest, arrays)
        except KeyError as exc:
            raise SnapshotError(
                f"snapshot {name!r} is missing component {exc}"
            ) from exc
        return index


# --------------------------------------------------------------------- #
# module-level convenience (single-snapshot use, CLI, benchmarks)
# --------------------------------------------------------------------- #


def save_index(directory, name: str, index: FairHMSIndex) -> Path:
    """Persist one index snapshot under ``directory/<name>/``."""
    return SnapshotStore(directory).save_index(name, index)


def load_index(directory, name: str, *, verify: bool = True) -> FairHMSIndex:
    """Reload one index snapshot saved by :func:`save_index`."""
    return SnapshotStore(directory).load_index(name, verify=verify)
