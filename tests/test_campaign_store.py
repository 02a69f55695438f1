"""The content-addressed store: cache keys name the computation.

The contract under test: a trial's key changes iff something that could
change its outcome changes (machine model, boot seed, trial count, test
value, repro version), the JSONL store survives process boundaries, and
damaged records degrade to a warning plus re-execution -- never a wrong
result.
"""

import dataclasses
import enum
import json

import pytest

from repro.campaign import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    ResultStore,
    builtin_campaign,
    canonical_encode,
    channel_cell,
    kaslr_cell,
    spec_digest,
    trial_key,
    trial_keys,
)
from repro.campaign.store import _outcome_body, _record_sum, _sum_of_text
from repro.runtime import ChannelTrial, MachineSpec, TrialFailure, TrialResult


def make_trial(**overrides) -> ChannelTrial:
    spec_fields = dict(model="i7-7700", seed=9)
    trial_fields = dict(byte=0x41, test=0x41, batches=2, trial_index=3)
    for key, value in overrides.items():
        target = spec_fields if key in spec_fields else trial_fields
        target[key] = value
    return ChannelTrial(spec=MachineSpec(**spec_fields), **trial_fields)


class TestTrialKey:
    def test_identical_payload_identical_key(self):
        assert trial_key(make_trial()) == trial_key(make_trial())

    @pytest.mark.parametrize(
        "change",
        [
            {"model": "i9-13900K"},  # CPU model
            {"seed": 10},            # boot seed
            {"batches": 3},          # trial count
            {"test": 0x42},          # probed value
            {"trial_index": 4},      # noise-stream index
        ],
    )
    def test_any_field_change_misses(self, change):
        assert trial_key(make_trial(**change)) != trial_key(make_trial())

    def test_version_change_misses(self):
        trial = make_trial()
        assert trial_key(trial, version="1.0.0") != trial_key(trial, version="9.9.9")

    def test_key_is_hex_sha256(self):
        key = trial_key(make_trial())
        assert len(key) == 64
        int(key, 16)


class Color(enum.IntEnum):
    RED = 3


@dataclasses.dataclass(frozen=True)
class Awkward:
    """Leaves and containers ``trial_keys`` writes by hand, with field
    names that sort around ``__type__`` and each other."""

    a: object = None
    a1: object = 1
    Zed: object = "Z"
    blob: object = b""
    nested: object = ()
    table: object = dataclasses.field(default_factory=dict)
    ratio: object = 0.0


ADVERSARIAL = [
    Awkward(),
    Awkward(a=True, a1=False, Zed=None),
    Awkward(blob=b"\x00\xff", nested=(1, (2, [3, (b"\x01",)]), []), ratio=-0.0),
    Awkward(table={"b": 1, "a": (None, 2.5), "a b": 0, 3: "three", "3": "str-three"}),
    Awkward(table={}, nested=((), {}), a=bytearray(b"ab")),
    Awkward(ratio=1e300, a=float("inf"), a1=float("-inf"), Zed=float("nan")),
    Awkward(ratio=0.1, a=2**70, a1=-(2**63), Zed=Color.RED),
    Awkward(Zed='quote " slash \\ tab \t nul \x00 snowman ☃ astral \U0001f600'),
    Awkward(a=MachineSpec(seed=True), a1=MachineSpec(seed=1)),
    Awkward(a=make_trial(), nested=(make_trial(), make_trial(seed=None))),
    dataclasses.make_dataclass("Shadowed", [("__type__", str), ("x", int)])("mine", 1),
    ChannelTrial(
        spec=MachineSpec(secret=b"\x53", noise_amplitude=2),
        byte=0, test=0, batches=1, trial_index=0, suppression="tsx",
    ),
]


class TestBatchedKeys:
    """``trial_keys`` is ``trial_key`` over a list, byte for byte."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_CAMPAIGNS))
    def test_builtin_campaigns(self, name):
        trials = [ref.trial for ref in builtin_campaign(name).expand()]
        assert trial_keys(trials) == [trial_key(trial) for trial in trials]

    def test_adversarial_payloads(self):
        assert trial_keys(ADVERSARIAL) == [trial_key(p) for p in ADVERSARIAL]
        assert trial_keys(ADVERSARIAL, version="9.9.9") == [
            trial_key(p, version="9.9.9") for p in ADVERSARIAL
        ]

    def test_true_and_one_seeds_stay_distinct(self):
        # MachineSpec(seed=True) == MachineSpec(seed=1), so a memo keyed
        # by equality would hand both trials the first one's text.
        as_bool, as_int = make_trial(seed=True), make_trial(seed=1)
        assert as_bool == as_int
        for pair in ([as_bool, as_int], [as_int, as_bool]):
            keys = trial_keys(pair)
            assert keys == [trial_key(trial) for trial in pair]
            assert keys[0] != keys[1]

    def test_shared_and_equal_but_distinct_specs(self):
        spec = MachineSpec(model="i9-13900K", seed=4)
        twin = MachineSpec(model="i9-13900K", seed=4)
        assert spec == twin and spec is not twin
        trials = [
            ChannelTrial(spec=machine, byte=1, test=test, batches=2, trial_index=test)
            for test in range(3)
            for machine in (spec, twin)
        ]
        keys = trial_keys(trials)
        assert keys == [trial_key(trial) for trial in trials]
        assert keys[0::2] == keys[1::2]

    def test_empty(self):
        assert trial_keys([]) == []

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            trial_keys([Awkward(a=object())])

    def test_pinned_literal_key(self):
        # Changing both paths together must still fail: this is the key
        # every store written so far holds for this payload.
        pinned = "bb8ff7745b3a72462e8b885b92ff6da36c333f62f9fdc621902a15304c31ea3e"
        assert trial_key(make_trial(), version="1.0.0") == pinned
        assert trial_keys([make_trial()], version="1.0.0") == [pinned]


class TestCanonicalEncoding:
    def test_bytes_become_hex(self):
        assert canonical_encode(b"\x01\xff") == {"__bytes__": "01ff"}

    def test_tuples_and_lists_agree(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_dataclasses_carry_their_type(self):
        encoded = canonical_encode(MachineSpec(seed=4))
        assert encoded["__type__"] == "MachineSpec"
        assert encoded["seed"] == 4

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            canonical_encode(object())


class TestSpecDigest:
    def spec(self, seed=5, payload=b"\x07"):
        return CampaignSpec(
            name="t",
            cells=(channel_cell(MachineSpec(seed=seed), payload=payload),),
        )

    def test_stable(self):
        assert spec_digest(self.spec()) == spec_digest(self.spec())

    def test_sensitive_to_cells(self):
        assert spec_digest(self.spec(seed=5)) != spec_digest(self.spec(seed=6))
        assert spec_digest(self.spec()) != spec_digest(self.spec(payload=b"\x08"))

    def test_kaslr_cells_digest_too(self):
        spec = CampaignSpec(
            name="k", cells=(kaslr_cell(MachineSpec(seed=5, kpti=True)),)
        )
        assert spec_digest(spec) == spec_digest(spec)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = TrialResult(totes=(10, 20), cycles=300)
        store.put("k1", result)
        assert store.get("k1") == result
        assert "k1" in store
        assert len(store) == 1

    def test_persists_across_instances(self, tmp_path):
        ResultStore(str(tmp_path)).put("k1", TrialResult(totes=(1,), cycles=2))
        reloaded = ResultStore(str(tmp_path))
        assert reloaded.get("k1") == TrialResult(totes=(1,), cycles=2)

    def test_get_many(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_many(
            [(f"k{i}", TrialResult(totes=(i,), cycles=i)) for i in range(4)]
        )
        found = store.get_many(["k1", "k3", "missing"])
        assert sorted(found) == ["k1", "k3"]

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", TrialResult(totes=(1,), cycles=1))
        store.put("k", TrialResult(totes=(2,), cycles=2))
        assert ResultStore(str(tmp_path)).get("k").totes == (2,)

    def test_clear(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("k", TrialResult(totes=(1,), cycles=1))
        assert store.clear() == 1
        assert len(ResultStore(str(tmp_path))) == 0

    def test_missing_store_is_empty(self, tmp_path):
        assert len(ResultStore(str(tmp_path / "nowhere"))) == 0


class TestCorruptRecords:
    def fill(self, tmp_path, count=3) -> ResultStore:
        store = ResultStore(str(tmp_path))
        store.put_many(
            [(f"k{i}", TrialResult(totes=(i,), cycles=i)) for i in range(count)]
        )
        return store

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        store = self.fill(tmp_path)
        lines = open(store.path).read().splitlines()
        lines[1] = '{"key": "k1", "result": {"totes": [not json'
        open(store.path, "w").write("\n".join(lines) + "\n")
        reloaded = ResultStore(str(tmp_path))
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert len(reloaded) == 2
        assert reloaded.get("k1") is None  # will re-execute
        assert reloaded.get("k0") is not None
        assert reloaded.get("k2") is not None

    def test_truncated_tail_skipped_with_warning(self, tmp_path):
        store = self.fill(tmp_path)
        text = open(store.path).read()
        open(store.path, "w").write(text[: len(text) - 20])  # tear the tail
        reloaded = ResultStore(str(tmp_path))
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert len(reloaded) == 2

    def test_wrong_shape_skipped_with_warning(self, tmp_path):
        store = self.fill(tmp_path, count=1)
        with open(store.path, "a") as handle:
            handle.write('{"key": "k9", "result": {"cycles": 1}}\n')  # no totes
        with pytest.warns(UserWarning, match="corrupt store record"):
            assert ResultStore(str(tmp_path)).get("k9") is None

    def test_blank_lines_ignored_silently(self, tmp_path):
        store = self.fill(tmp_path, count=1)
        with open(store.path, "a") as handle:
            handle.write("\n\n")
        assert len(ResultStore(str(tmp_path))) == 1

    def test_damaged_value_fails_the_checksum(self, tmp_path):
        store = self.fill(tmp_path, count=1)
        text = open(store.path).read()
        assert '"cycles":0' in text
        open(store.path, "w").write(text.replace('"cycles":0', '"cycles":7'))
        with pytest.warns(UserWarning, match="checksum mismatch"):
            assert ResultStore(str(tmp_path)).get("k0") is None

    def test_non_canonical_layout_is_rejected(self, tmp_path):
        # Load verifies a line's own text, so only the writer's exact
        # layout passes, even when the parsed record is unchanged.
        store = self.fill(tmp_path, count=1)
        record = json.loads(open(store.path).read())
        open(store.path, "w").write(json.dumps(record) + "\n")
        with pytest.warns(UserWarning, match="checksum mismatch"):
            assert ResultStore(str(tmp_path)).get("k0") is None

    @pytest.mark.parametrize(
        "outcome",
        [
            TrialResult(totes=(0, 5, 1 << 40), cycles=12),
            TrialFailure(attempts=3, faults=("crash", "hang"), error='é "q"\n'),
        ],
    )
    def test_written_line_text_hashes_to_its_sum(self, tmp_path, outcome):
        line = ResultStore(str(tmp_path))._encode_record("k\u2603", outcome)
        expected = _record_sum("k\u2603", _outcome_body(outcome))
        assert _sum_of_text(line) == expected
        assert json.loads(line)["sum"] == expected
