"""Crash injection: SIGKILL a durable store mid-stream and recover.

The harness runs a real store process over a deterministic workload,
kills it with ``SIGKILL`` at a randomized point (so death lands between
arbitrary instructions — mid-append, mid-apply, mid-fsync), then
recovers the directory in-process and checks the two durability
guarantees:

* **prefix consistency** — the recovered state is byte-identical to the
  true pre-crash state at *some* flushed version (the log is always a
  valid prefix of the session), matching both the independently
  recomputed per-version texts and the stateless replay oracle;
* **acknowledged durability** — every batch the child acknowledged
  (printed after ``flush`` returned, i.e. after the WAL fsync) survives
  the crash.

A deterministic variant cuts the final segment at sampled byte offsets
instead of killing a process, which pins the same prefix property
without scheduler noise.
"""

import os
import random
import shutil
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.store import DocumentStore, StatelessBaseline, replay_oracle
from repro.store.durability import encode_record, scan_wal
from repro.workloads import generate_client_batches, generate_xmark
from repro.xdm.serializer import serialize

CLIENTS = 2
ROUNDS = 25
OPS_PER_ROUND = 6
WORKLOAD_SEED = 13

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir, "src")

CHILD_SCRIPT = textwrap.dedent("""
    import sys

    from repro.store import DocumentStore
    from repro.workloads import generate_client_batches, generate_xmark
    from repro.xdm.serializer import serialize

    wal_dir = sys.argv[1]
    document = generate_xmark(scale=0.02, seed=7)
    batches, __ = generate_client_batches(
        document, clients={clients}, rounds={rounds},
        ops_per_round={ops}, seed={seed})
    store = DocumentStore(durability="log", wal_dir=wal_dir)
    store.open("d", serialize(document))
    for submissions in batches:
        for client, pul in submissions:
            store.submit("d", pul.copy(), client=client)
        store.flush("d")
        # past this line the batch's WAL record is fsynced: the flush
        # is acknowledged and must survive any crash
        print("acked", store.version("d"), flush=True)
    store.close()
    print("done", flush=True)
""").format(clients=CLIENTS, rounds=ROUNDS, ops=OPS_PER_ROUND,
            seed=WORKLOAD_SEED)


@pytest.fixture(scope="module")
def expected_states():
    """``version -> serialized text`` recomputed by the stateless
    baseline, independently of the store and of the WAL."""
    document = generate_xmark(scale=0.02, seed=7)
    batches, __ = generate_client_batches(
        document, clients=CLIENTS, rounds=ROUNDS,
        ops_per_round=OPS_PER_ROUND, seed=WORKLOAD_SEED)
    baseline = StatelessBaseline()
    baseline.open("d", serialize(document))
    states = {0: baseline.text("d")}
    for submissions in batches:
        for client, pul in submissions:
            baseline.submit("d", pul.copy(), client=client)
        baseline.flush("d")
        states[baseline.version("d")] = baseline.text("d")
    return states


def _recover_and_check(wal_dir, expected_states, acked):
    with DocumentStore(durability="log",
                       wal_dir=wal_dir) as recovered:
        if not recovered.doc_ids():
            # the cut fell inside the very first record: the valid
            # prefix is empty, which is only consistent if nothing was
            # ever acknowledged
            assert acked == 0
            assert replay_oracle(wal_dir) == {}
            return None
        assert recovered.doc_ids() == ["d"]
        version = recovered.version("d")
        text = recovered.text("d")
    assert version >= acked, (
        "acknowledged batch lost: recovered v{} < acked v{}".format(
            version, acked))
    assert text == expected_states[version], (
        "recovered v{} differs from the true pre-crash state".format(
            version))
    oracle = replay_oracle(wal_dir)
    assert oracle["d"] == (text, version)
    return version


@pytest.mark.parametrize("kill_seed", [0, 1, 2])
def test_sigkill_mid_flush_recovers_consistently(tmp_path, kill_seed,
                                                 expected_states):
    wal_dir = str(tmp_path / "wal")
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-u", str(script), wal_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        # kill at a randomized point while batches are flushing; wait
        # for the first ack so the session is actually under way
        first = child.stdout.readline()
        assert first.startswith(b"acked"), first
        delay = random.Random(kill_seed).uniform(0.05, 0.9)
        try:
            child.wait(timeout=delay)
        except subprocess.TimeoutExpired:
            child.kill()  # SIGKILL: no handlers, no atexit, no flush
        out, err = child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    acked = 0
    for line in (first + out).splitlines():
        if line.startswith(b"acked"):
            acked = max(acked, int(line.split()[1]))
    version = _recover_and_check(wal_dir, expected_states, acked)
    assert version <= ROUNDS


FAILED_FLUSH_DOC = ("<bib><paper year=\"2011\"><title>T1</title></paper>"
                   "<paper year=\"2024\"><title>T2</title></paper></bib>")

#: one session, cut short by ``die_after`` (sys.argv[2]): a good batch,
#: a batch that fails on the duplicate attribute after mutation and is
#: never logged, another good batch — printing the observable state last
FAILED_FLUSH_SCRIPT = textwrap.dedent("""
    import json
    import os
    import signal
    import sys

    from repro.errors import ReproError
    from repro.pul.ops import InsertAttributes, Rename
    from repro.pul.pul import PUL
    from repro.store import DocumentStore
    from repro.xdm.node import Node

    wal_dir, die_after = sys.argv[1], sys.argv[2]
    store = DocumentStore(durability="log", wal_dir=wal_dir)
    store.open("d", {doc!r})
    nodes = list(store.document("d").nodes())
    title = next(n.node_id for n in nodes if n.name == "title")
    paper = next(n.node_id for n in nodes if n.name == "paper")

    def report():
        version = store._entries["d"].published
        print(json.dumps({{
            "text": store.text("d"), "version": version.version,
            "labels": {{str(node_id): version.labeling
                        .exchange_label(node_id).to_string()
                        for node_id in version.labeling.as_mapping()}},
            "paths": store.query("d", "//paper/@year")["nodes"],
        }}), flush=True)

    store.submit("d", PUL([Rename(title, "headline")]))
    store.flush("d")
    store.submit("d", PUL([InsertAttributes(
        paper, [Node.attribute("year", "1999")])]))
    try:
        store.flush("d")
    except ReproError:
        store.discard_pending("d")
    else:
        raise SystemExit("the duplicate attribute was accepted")
    if die_after == "failed-flush":
        report()
        os.kill(os.getpid(), signal.SIGKILL)
    store.submit("d", PUL([InsertAttributes(
        paper, [Node.attribute("lang", "en")])]))
    store.flush("d")
    report()
    store.close()
""").format(doc=FAILED_FLUSH_DOC)


def test_sigkill_right_after_a_failed_flush(tmp_path):
    """The process dies right after a flush that failed after mutation.
    The failed batch left no record: the last thing on disk is the good
    batch before it, so recovery replays that one batch, skips nothing,
    and is left exactly where the dead process stood — text, label
    digits, indexed reads — and a good batch applied after recovery
    lands where it lands in a session that never crashed."""
    import json

    from repro.pul.ops import InsertAttributes
    from repro.pul.pul import PUL
    from repro.store.durability import load_durable_state
    from repro.xdm.node import Node

    script = tmp_path / "child.py"
    script.write_text(FAILED_FLUSH_SCRIPT, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")

    def run(wal_dir, die_after):
        child = subprocess.run(
            [sys.executable, "-u", str(script), wal_dir, die_after],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            timeout=60)
        return child.returncode, json.loads(
            child.stdout.splitlines()[-1]), child.stderr

    def observed(store):
        version = store._entries["d"].published
        return {"text": store.text("d"), "version": version.version,
                "labels": {str(node_id): version.labeling
                           .exchange_label(node_id).to_string()
                           for node_id in version.labeling.as_mapping()},
                "paths": store.query("d", "//paper/@year")["nodes"]}

    crashed_dir = str(tmp_path / "crashed")
    returncode, at_death, err = run(crashed_dir, "failed-flush")
    assert returncode == -signal.SIGKILL, err
    returncode, uncrashed, err = run(str(tmp_path / "whole"), "never")
    assert returncode == 0, err
    kinds = [record["kind"] for record in
             load_durable_state(crashed_dir, repair=False).records]
    assert kinds == ["open", "batch"]
    assert replay_oracle(crashed_dir)["d"] == (at_death["text"], 1)
    with DocumentStore(durability="log",
                       wal_dir=crashed_dir) as recovered:
        assert recovered.recovery.replayed_batches == 1
        assert recovered.recovery.skipped_records == 0
        assert observed(recovered) == at_death
        paper = next(n.node_id for n in recovered.document("d").nodes()
                     if n.name == "paper")
        recovered.submit("d", PUL([InsertAttributes(
            paper, [Node.attribute("lang", "en")])]))
        recovered.flush("d")
        assert observed(recovered) == uncrashed


def test_truncation_point_sweep_recovers_a_valid_prefix(
        tmp_path, expected_states):
    """Crash = the log ends at an arbitrary byte. Sample cut points in
    the ``open`` record and in the batch tail after it, apart, so the
    tail is cut however its share of the segment changes; every cut
    must recover to an exact flushed state."""
    wal_dir = str(tmp_path / "wal")
    document = generate_xmark(scale=0.02, seed=7)
    batches, __ = generate_client_batches(
        document, clients=CLIENTS, rounds=ROUNDS,
        ops_per_round=OPS_PER_ROUND, seed=WORKLOAD_SEED)
    with DocumentStore(durability="log",
                       wal_dir=wal_dir) as store:
        store.open("d", serialize(document))
        for submissions in batches:
            for client, pul in submissions:
                store.submit("d", pul.copy(), client=client)
            store.flush("d")
    segment = os.path.join(wal_dir, "wal-00000000.log")
    size = os.path.getsize(segment)
    opened = len(encode_record(scan_wal(segment)[0][0]))
    rng = random.Random(7)
    seen_versions = set()
    for cut in sorted(rng.sample(range(1, opened), 2)
                      + rng.sample(range(opened, size), 6)):
        trial_dir = str(tmp_path / "cut-{}".format(cut))
        shutil.copytree(wal_dir, trial_dir)
        with open(os.path.join(trial_dir, "wal-00000000.log"),
                  "r+b") as handle:
            handle.truncate(cut)
        version = _recover_and_check(trial_dir, expected_states, acked=0)
        if version is not None:
            seen_versions.add(version)
    assert seen_versions, "no cut point recovered"
