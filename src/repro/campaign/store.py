"""The content-addressed result store: trial outcomes keyed by meaning.

Every campaign trial is a pure function of its payload -- that is the
runtime determinism contract -- so its result can be cached forever under
a key that names the computation: a SHA-256 over the canonical JSON
encoding of ``(store format, repro version, trial payload)``.  Any change
that could change the outcome (CPU model, boot seed, batch count, test
value, eviction mode, a new repro release) changes the encoding and
therefore the key; re-running a campaign after an edit replays what is
still valid and executes only the delta.

On disk the store is one append-only JSONL file, ``results.jsonl`` under
the store root (default ``.campaigns/``).  Appending after every batch
is the runner's checkpoint mechanism: an interrupted sweep loses at most
the in-flight batch.  Every record carries a checksum over its body
(``sum``), so *any* on-disk damage -- a torn tail, a truncated line, a
single flipped bit inside an otherwise well-formed record -- is detected
at load time: the damaged record is skipped with a warning and its trial
simply re-executes.  Corruption can degrade to recomputation, never to a
silently wrong result (``tests/test_faults_properties.py`` injects
bit-flips and truncation through :class:`repro.faults.inject.FaultyStore`
to enforce exactly that).

Stored outcomes are either :class:`~repro.runtime.tasks.TrialResult`
(``"result"`` records) or :class:`~repro.runtime.tasks.TrialFailure`
(``"failure"`` records): a trial that failed every retry checkpoints its
structured failure under the same content address its success would have
used, which is what lets a resumed campaign replay failures instead of
re-poisoning itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import __version__ as REPRO_VERSION
from repro.runtime.tasks import TrialFailure, TrialResult

#: Bump when the record layout changes; invalidates every cached result.
#: Format 2: per-record checksums + structured failure records.
STORE_FORMAT = 2

#: What a store holds per key.
StoredOutcome = Union[TrialResult, TrialFailure]

DEFAULT_ROOT = ".campaigns"


# -- canonical encoding --------------------------------------------------------


def canonical_encode(obj):
    """Reduce *obj* to a JSON-serialisable canonical form.

    Dataclasses carry their type name (two payload kinds with identical
    fields must not collide), bytes become hex, tuples become lists.
    The encoding is total over everything a campaign spec or trial
    payload contains.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: canonical_encode(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if isinstance(obj, (tuple, list)):
        return [canonical_encode(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical_encode(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload) -> str:
    return hashlib.sha256(_json_text(payload).encode()).hexdigest()


def trial_key(trial, version: str = REPRO_VERSION) -> str:
    """The content address of one trial's result.

    Keyed by the full trial payload plus the repro version: a new release
    may change simulator timing, so cached results never leak across
    versions.
    """
    return _digest(
        {
            "format": STORE_FORMAT,
            "version": version,
            "trial": canonical_encode(trial),
        }
    )


#: The leaf types trial payloads are made of, and their JSON text as
#: ``_json_text`` writes it.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


class _CanonicalText:
    """``_json_text(canonical_encode(obj))``, built directly for dataclasses.

    Dataclass texts are memoised by object identity for the encoder's
    lifetime, so a ``MachineSpec`` shared by a cell's trials is encoded
    once.  Identity, not equality: ``MachineSpec(seed=True)`` equals
    ``MachineSpec(seed=1)`` but encodes ``true``, not ``1``.  The memo
    holds each object, so an id cannot be reused while it is alive.
    """

    def __init__(self) -> None:
        self._memo: Dict[int, Tuple[object, str]] = {}
        self._layouts: Dict[type, Tuple[Tuple[str, Optional[str]], ...]] = {}

    def _layout(self, cls: type) -> Tuple[Tuple[str, Optional[str]], ...]:
        """*cls*'s members in sorted-key order, as ``(text, attribute)``:
        *text* is a field's ``"name":`` prefix, or the whole
        ``"__type__":"Name"`` member when *attribute* is None."""
        layout = self._layouts.get(cls)
        if layout is None:
            # canonical_encode's {"__type__": ..., **fields}: a field named
            # __type__ would win the key, so resolve the members the same way.
            members: Dict[str, Optional[str]] = {"__type__": None}
            for field in dataclasses.fields(cls):
                members[field.name] = field.name
            layout = self._layouts[cls] = tuple(
                (
                    encode_basestring_ascii(name) + ":"
                    + ("" if attr is not None else encode_basestring_ascii(cls.__name__)),
                    attr,
                )
                for name, attr in sorted(members.items())
            )
        return layout

    def __call__(self, obj) -> str:
        leaf = _LEAVES.get(type(obj))
        if leaf is not None:
            return leaf(obj)
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            # Floats, bytes, containers, subclassed leaves: rare in a
            # payload, so they take the reference path.
            return _json_text(canonical_encode(obj))
        hit = self._memo.get(id(obj))
        if hit is not None:
            return hit[1]
        text = "{" + ",".join([
            prefix if attr is None else prefix + self(getattr(obj, attr))
            for prefix, attr in self._layout(type(obj))
        ]) + "}"
        self._memo[id(obj)] = (obj, text)
        return text


def trial_keys(trials: Iterable, version: str = REPRO_VERSION) -> List[str]:
    """``[trial_key(trial, version) for trial in trials]``, byte for byte.

    The batched path the runner uses: it writes the canonical JSON text
    directly instead of building ``canonical_encode`` dicts and dumping
    them, and encodes each shared dataclass once per call.
    ``trial_key`` stays the reference it is tested against.
    """
    encode = _CanonicalText()
    head = '{"format":' + encode(STORE_FORMAT) + ',"trial":'
    tail = ',"version":' + encode(version) + "}"
    sha256 = hashlib.sha256
    return [
        sha256((head + encode(trial) + tail).encode()).hexdigest()
        for trial in trials
    ]


def spec_digest(spec) -> str:
    """A stable fingerprint of a whole campaign spec (for reports)."""
    return _digest(
        {"format": STORE_FORMAT, "version": REPRO_VERSION, "spec": canonical_encode(spec)}
    )


# -- record encoding -----------------------------------------------------------


def _outcome_body(outcome: StoredOutcome) -> dict:
    """The record body for one stored outcome (result or failure)."""
    if isinstance(outcome, TrialFailure):
        return {
            "failure": {
                "attempts": outcome.attempts,
                "faults": list(outcome.faults),
                "error": outcome.error,
            }
        }
    return {"result": {"totes": list(outcome.totes), "cycles": outcome.cycles}}


def _record_sum(key: str, body: dict) -> str:
    """The record checksum: SHA-256 over key + canonical body, truncated.

    Covers the content address *and* the outcome payload, so any damage
    that still parses as JSON -- a flipped bit in a stored value, or one
    in the key that would silently re-home the record under another
    trial's address -- fails verification at load time instead of
    replaying a wrong result.
    """
    text = _json_text({"key": key, **body})
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sum_of_text(line: str) -> Optional[str]:
    """The checksum a record *line* must carry, computed from its text.

    Records are written canonically and ``sum`` sorts last, so a sound
    line minus its trailing ``,"sum":"<16 hex>"`` is exactly the text
    ``_record_sum`` hashed, and load needs no re-encode.  None when the
    line does not end that way, which no written record can.
    """
    head, member, tail = line.rpartition(',"sum":"')
    if not member or len(tail) != 18 or not tail.endswith('"}'):
        return None
    return hashlib.sha256((head + "}").encode()).hexdigest()[:16]


# -- the on-disk store ---------------------------------------------------------


class ResultStore:
    """Append-only JSONL store of checksummed ``key -> outcome`` records."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root
        self.path = os.path.join(root, "results.jsonl")
        self._index: Optional[Dict[str, StoredOutcome]] = None

    # -- loading ---------------------------------------------------------------

    def _load(self) -> Dict[str, StoredOutcome]:
        if self._index is not None:
            return self._index
        index: Dict[str, StoredOutcome] = {}
        if os.path.exists(self.path):
            with open(self.path, "r") as handle:
                for lineno, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    record = self._parse_line(line, lineno)
                    if record is not None:
                        key, result = record
                        index[key] = result
        self._index = index
        return index

    def _parse_line(self, line: str, lineno: int):
        try:
            record = json.loads(line)
            key = record["key"]
            body = {
                field: record[field]
                for field in ("result", "failure")
                if field in record
            }
            if len(body) != 1:
                raise ValueError("record needs exactly one of result/failure")
            if record["sum"] != _sum_of_text(line):
                raise ValueError("record checksum mismatch")
            if "failure" in body:
                failure = body["failure"]
                outcome: StoredOutcome = TrialFailure(
                    attempts=int(failure["attempts"]),
                    faults=tuple(str(fault) for fault in failure["faults"]),
                    error=str(failure["error"]),
                )
            else:
                result = body["result"]
                outcome = TrialResult(
                    totes=tuple(int(t) for t in result["totes"]),
                    cycles=int(result["cycles"]),
                )
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"{self.path}:{lineno}: skipping corrupt store record "
                f"({type(exc).__name__}: {exc}); its trial will re-execute",
                stacklevel=2,
            )
            return None
        return key, outcome

    # -- queries ---------------------------------------------------------------

    def get(self, key: str) -> Optional[StoredOutcome]:
        """The cached outcome under *key* (result or failure), or None."""
        return self._load().get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, StoredOutcome]:
        """All cached outcomes among *keys*."""
        index = self._load()
        return {key: index[key] for key in keys if key in index}

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def __len__(self) -> int:
        return len(self._load())

    # -- writes ----------------------------------------------------------------

    def _encode_record(self, key: str, outcome: StoredOutcome) -> str:
        """One record as its on-disk line (no trailing newline).

        The seam fault injection hooks: :class:`repro.faults.inject.FaultyStore`
        overrides this to damage the bytes between encoding and disk.
        """
        if (
            type(outcome) is TrialResult
            and type(outcome.cycles) is int
            and all(type(tote) is int for tote in outcome.totes)
        ):
            # The common record, written as text: exactly what the
            # reference path below dumps, hashed once for ``sum``.
            text = (
                '{"key":' + encode_basestring_ascii(key)
                + ',"result":{"cycles":' + int.__repr__(outcome.cycles)
                + ',"totes":[' + ",".join(map(int.__repr__, outcome.totes))
                + "]}}"
            )
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            return text[:-1] + ',"sum":"' + digest + '"}'
        body = _outcome_body(outcome)
        return _json_text({"key": key, **body, "sum": _record_sum(key, body)})

    def put(self, key: str, outcome: StoredOutcome) -> None:
        """Record one outcome (appends and flushes -- a checkpoint)."""
        self.put_many([(key, outcome)])

    def put_many(self, records: Iterable[Tuple[str, StoredOutcome]]) -> None:
        """Append a batch of outcomes in one flush (the runner checkpoint)."""
        records = list(records)
        if not records:
            return
        index = self._load()
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a") as handle:
            # Heal a torn tail before appending: a writer killed mid-record
            # leaves a partial line with no newline, and appending straight
            # onto it would corrupt the first new record too (costing a
            # second re-execution on the next resume).  Terminating the
            # tail confines the damage to the already-torn record.
            if handle.tell() > 0:
                with open(self.path, "rb") as reader:
                    reader.seek(-1, os.SEEK_END)
                    if reader.read(1) != b"\n":
                        handle.write("\n")
            for key, outcome in records:
                handle.write(self._encode_record(key, outcome) + "\n")
                index[key] = outcome
            handle.flush()
            os.fsync(handle.fileno())

    def clear(self) -> int:
        """Drop every cached result; returns how many were dropped."""
        dropped = len(self._load())
        if os.path.exists(self.path):
            os.remove(self.path)
        self._index = {}
        return dropped

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r}, {len(self)} records)"
