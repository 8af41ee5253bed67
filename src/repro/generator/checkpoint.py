"""Checkpoint/resume for long generation runs.

The paper's week-long 37K-UE traces (§7) assume multi-hour generation
that real infrastructure cannot promise to keep alive; this module
makes runs *restartable* instead.  A :class:`GenerationCheckpoint`
snapshots run progress — completed hours (or, for the parallel path,
completed chunks), the per-UE chain states, RNG provenance, and the
content hash of the fitted model set — to a single file that is always
replaced atomically (``trace.io.write_npz_arrays``), so a crash at any
instant leaves either the previous checkpoint or the new one, never a
torn file.

Every random draw is a Philox counter keyed on ``(seed, ue position)``,
so the carryover needed for bit-identical continuation is tiny:

- **generate / stream**: the per-UE chain-state array plus the hour
  counter (:meth:`CompiledPopulation.snapshot`); personas and Philox
  keys are replayed from the seed.  A ``generate`` checkpoint also holds
  the events of the finished hours, a ``stream`` checkpoint the number
  of events already yielded.
- **parallel**: completed chunks are independent pure functions of the
  run parameters, so the checkpoint simply stores their finished event
  columns and the remaining chunks are (re)generated.

A checkpoint is bound to its run by a :class:`RunKey` — every
generation parameter plus :meth:`ModelSet.content_hash`.  Resuming with
*any* differing parameter (or a re-fitted model set) raises
:class:`CheckpointMismatchError` instead of silently producing a trace
that is not bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from typing import Any, Dict, Optional

import numpy as np

from ..model.model_set import ModelSet
from ..telemetry import get_telemetry
from ..trace.events import DeviceType
from ..trace.io import write_npz_arrays
from .compiled import Columns, CompiledPopulation

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointMismatchError",
    "GenerationCheckpoint",
    "RunKey",
]

CHECKPOINT_FORMAT = "repro-generation-checkpoint-v1"

_COLUMN_NAMES = ("ue", "time", "event", "device")
_COLUMN_DTYPES = (np.int64, np.float64, np.int8, np.int8)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, unreadable, or malformed."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint was produced by a run with different parameters."""


#: What produced the random streams (recorded, checked by humans).
_RNG_PROVENANCE = {"numpy": np.__version__, "rng": "philox4x64-10 counter"}


@dataclasses.dataclass(frozen=True)
class RunKey:
    """Everything that determines a generation run's output bits."""

    kind: str                #: "generate" | "parallel" | "stream"
    seed: int
    start_hour: int
    num_hours: int
    first_ue_id: int
    counts: Dict[str, int]   #: device name -> UE count
    model_hash: str
    chunk_size: int = 0      #: parallel runs only (0 otherwise)

    @classmethod
    def for_run(
        cls,
        model_set: ModelSet,
        counts: Dict[DeviceType, int],
        *,
        kind: str,
        seed: int,
        start_hour: int,
        num_hours: int,
        first_ue_id: int,
        chunk_size: int = 0,
    ) -> "RunKey":
        return cls(
            kind=kind,
            seed=int(seed),
            start_hour=int(start_hour),
            num_hours=int(num_hours),
            first_ue_id=int(first_ue_id),
            counts={dt.name: int(n) for dt, n in counts.items()},
            model_hash=model_set.content_hash(),
            chunk_size=int(chunk_size),
        )

    @classmethod
    def from_dict(cls, fields: Any, source: str) -> "RunKey":
        """Rebuild a key read from the checkpoint ``source``.

        Keys written while the generator still had an ``engine`` option
        carry that field; ``"compiled"`` is the engine every run now
        uses, any other value belongs to a different run.  Unknown or
        missing fields raise :class:`CheckpointError` naming them.
        """
        if not isinstance(fields, dict):
            raise CheckpointError(f"{source}: run key is not a mapping")
        fields = dict(fields)
        engine = fields.pop("engine", "compiled")
        if engine != "compiled":
            raise CheckpointMismatchError(
                f"{source}: checkpoint does not belong to this run — "
                f"engine: checkpoint has {engine!r}, run has 'compiled'"
            )
        known = {f.name: f for f in dataclasses.fields(cls)}
        problems = []
        unknown = sorted(set(fields) - set(known))
        if unknown:
            problems.append(f"unknown fields {unknown}")
        missing = sorted(
            name
            for name, f in known.items()
            if name not in fields and f.default is dataclasses.MISSING
        )
        if missing:
            problems.append(f"missing fields {missing}")
        if problems:
            raise CheckpointError(
                f"{source}: malformed run key — " + "; ".join(problems)
            )
        return cls(**fields)

    def validate_against(self, run: "RunKey") -> None:
        """Raise :class:`CheckpointMismatchError` naming every mismatch."""
        mismatches = [
            f"{field.name}: checkpoint has {getattr(self, field.name)!r}, "
            f"run has {getattr(run, field.name)!r}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != getattr(run, field.name)
        ]
        if mismatches:
            raise CheckpointMismatchError(
                "checkpoint does not belong to this run — "
                + "; ".join(mismatches)
            )


@dataclasses.dataclass
class GenerationCheckpoint:
    """One run's resumable progress (see module docstring).

    Only the fields relevant to the run ``kind`` are populated:
    ``population_state`` + ``columns`` for ``generate``,
    ``population_state`` + ``events_emitted`` for ``stream``,
    ``chunk_columns`` for ``parallel``.
    """

    key: RunKey
    hours_done: int = 0
    events_emitted: int = 0  #: stream runs: events yielded so far
    population_state: Optional[np.ndarray] = None   # per-UE chain states
    columns: Optional[Columns] = None               # accumulated events
    chunk_columns: Dict[int, Columns] = dataclasses.field(default_factory=dict)
    provenance: Dict[str, Any] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        path: "str | os.PathLike[str]",
        key: RunKey,
        *,
        resume: bool,
        population: Optional[CompiledPopulation] = None,
    ) -> "GenerationCheckpoint":
        """Open the checkpoint of the run ``key`` at ``path``.

        With ``resume`` the file is loaded and verified against ``key``,
        and ``population`` (if given) continues from its chain states
        and hour counter.  Otherwise a fresh checkpoint is saved before
        any work, so a run killed before its first snapshot still
        leaves a resumable file.
        """
        if resume:
            checkpoint = cls.load_for_run(path, key)
            if population is not None:
                if checkpoint.population_state is None:
                    raise CheckpointError(
                        f"{path}: checkpoint is missing the population "
                        "carryover state"
                    )
                population.restore(
                    checkpoint.population_state, checkpoint.hours_done
                )
            return checkpoint
        checkpoint = cls(key=key)
        if population is not None:
            checkpoint.population_state = population.snapshot()[0]
        checkpoint.save(path)
        return checkpoint

    def snapshot(
        self, population: CompiledPopulation, path: "str | os.PathLike[str]"
    ) -> None:
        """Record ``population``'s carryover state and save to ``path``."""
        self.population_state, self.hours_done = population.snapshot()
        self.save(path)

    # ------------------------------------------------------------------
    def save(self, path: "str | os.PathLike[str]") -> None:
        """Atomically write the checkpoint (``trace.io.write_npz_arrays``).

        Every snapshot is recorded on the ambient telemetry collector:
        a ``checkpoint`` span entry plus the ``checkpoint_snapshots``
        and ``checkpoint_bytes`` counters.
        """
        tele = get_telemetry()
        with tele.span("checkpoint"):
            self._save(path)
        tele.count("checkpoint_snapshots")
        try:
            tele.count("checkpoint_bytes", os.path.getsize(path))
        except OSError:  # pragma: no cover - racing deletion
            pass

    def _save(self, path: "str | os.PathLike[str]") -> None:
        meta = {
            "format": CHECKPOINT_FORMAT,
            "key": dataclasses.asdict(self.key),
            "hours_done": int(self.hours_done),
            "events_emitted": int(self.events_emitted),
            "completed_chunks": sorted(self.chunk_columns),
            "has_population_state": self.population_state is not None,
            "has_columns": self.columns is not None,
            "provenance": _RNG_PROVENANCE,
        }
        arrays: Dict[str, np.ndarray] = {"meta": np.asarray(json.dumps(meta))}
        if self.population_state is not None:
            arrays["population_state"] = np.asarray(
                self.population_state, dtype=np.int32
            )
        if self.columns is not None:
            for name, col in zip(_COLUMN_NAMES, self.columns):
                arrays[f"col_{name}"] = col
        for idx, cols in self.chunk_columns.items():
            for name, col in zip(_COLUMN_NAMES, cols):
                arrays[f"chunk{idx}_{name}"] = col

        write_npz_arrays(path, arrays)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "GenerationCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                if meta.get("format") != CHECKPOINT_FORMAT:
                    raise CheckpointError(
                        f"{path}: unknown checkpoint format "
                        f"{meta.get('format')!r}"
                    )
                key = RunKey.from_dict(meta.get("key"), str(path))
                population_state = (
                    np.asarray(data["population_state"], dtype=np.int32)
                    if meta["has_population_state"]
                    else None
                )
                columns: Optional[Columns] = None
                if meta["has_columns"]:
                    columns = tuple(
                        np.asarray(data[f"col_{name}"], dtype=dtype)
                        for name, dtype in zip(_COLUMN_NAMES, _COLUMN_DTYPES)
                    )
                chunk_columns: Dict[int, Columns] = {}
                for idx in meta["completed_chunks"]:
                    chunk_columns[int(idx)] = tuple(
                        np.asarray(data[f"chunk{idx}_{name}"], dtype=dtype)
                        for name, dtype in zip(_COLUMN_NAMES, _COLUMN_DTYPES)
                    )
                return cls(
                    key=key,
                    hours_done=int(meta["hours_done"]),
                    events_emitted=int(meta["events_emitted"]),
                    population_state=population_state,
                    columns=columns,
                    chunk_columns=chunk_columns,
                    provenance=meta.get("provenance", {}),
                )
        except CheckpointError:
            raise
        except (
            OSError, KeyError, TypeError, ValueError, zipfile.BadZipFile
        ) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc

    @classmethod
    def load_for_run(
        cls, path: "str | os.PathLike[str]", key: RunKey
    ) -> "GenerationCheckpoint":
        """Load and verify the checkpoint belongs to the run ``key``."""
        checkpoint = cls.load(path)
        checkpoint.key.validate_against(key)
        return checkpoint
