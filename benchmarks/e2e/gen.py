"""Load generators: wire-format inputs only, a function of the seed.

Every generator returns a JSON-representable dict holding exactly what
a client would put on the wire — XML documents, PUL exchange documents,
XQuery Update and path strings — plus the oracle's expected results
(sha256 of final document texts). The program under test never sees a
generator object.

The generators call :mod:`repro.workloads`, so an edit there could
silently change the load. :func:`load_inputs` therefore hashes the
inputs and compares the hash of the default seed and size against
``pins.json``; a mismatch stops the run.

Generated inputs are cached under ``out/cache/`` keyed by the sources
of this file, ``config.py`` and ``repro/workloads``.
"""

import hashlib
import json
import math
import os
import random
import time

import config
import repro.workloads as workloads_package
from repro.labeling import ContainmentLabeling
from repro.pul.ops import InsertIntoAsLast, ReplaceValue
from repro.pul.pul import PUL
from repro.pul.semantics import apply_pul
from repro.pul.serialize import pul_to_xml
from repro.reduction import reduce_deterministic
from repro.workloads import (
    generate_client_batches,
    generate_conflicting_puls,
    generate_reducible_pul,
    generate_sequential_puls,
    generate_xmark,
)
from repro.xdm.node import Node
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize
from repro.xquery import compile_pul

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
PINS_PATH = os.path.join(HERE, "pins.json")


class PinMismatch(Exception):
    """The generated load differs from the pinned one."""


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def warmup_count(timed):
    return max(1, math.ceil(timed * config.WARMUP_SHARE))


def _subseed(seed, *parts):
    """A reproducible integer seed for one generator call."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:6], "big")


def _wire_document(scale, seed, needles=0):
    """An XMark document as the program will see it: serialized, then
    re-parsed so node identifiers are the parser's (document order)."""
    document = generate_xmark(scale=scale, seed=seed)
    if needles:
        rng = random.Random(seed)
        hosts = [node for node in document.nodes()
                 if node.is_element and node.name == "item"]
        for index, host in enumerate(rng.sample(hosts, needles)):
            needle = Node.element("needle")
            needle.append_child(Node.text("n{}".format(index)))
            host.append_child(needle)
        document = parse_document(serialize(document))
    text = serialize(document)
    return text, parse_document(text)


# -- reasoning_batch ---------------------------------------------------------


def reasoning_inputs(seed, seconds):
    """One document and a pool of reduce / aggregate / integrate jobs.

    ``schedule`` lists ``[pool index, apply flag]`` per job: the three
    families alternate, the pool is cycled, every ``apply_every``-th
    job also applies its result."""
    cfg = config.REASONING
    text, document = _wire_document(cfg["scale"], _subseed(seed, "doc"))
    labeling = ContainmentLabeling().build(document)
    pool = []
    for index in range(cfg["pool"]):
        pul = generate_reducible_pul(
            document, cfg["reduce_ops"], hit_ratio=cfg["hit_ratio"],
            seed=_subseed(seed, "reduce", index), labeling=labeling)
        pool.append({"family": "reduce", "puls": [pul_to_xml(pul)],
                     "ops": len(pul)})
        chain, final = generate_sequential_puls(
            document, cfg["agg_puls"], cfg["agg_ops"],
            new_node_ratio=cfg["new_node_ratio"],
            seed=_subseed(seed, "aggregate", index))
        for pul in chain:
            pul.attach_labels(labeling)
        pool.append({"family": "aggregate",
                     "puls": [pul_to_xml(pul) for pul in chain],
                     "ops": sum(len(pul) for pul in chain),
                     "expected_sha": sha256_text(serialize(final))})
        parallel, planted = generate_conflicting_puls(
            document, pul_count=cfg["int_puls"],
            ops_per_pul=cfg["int_ops"],
            conflict_fraction=cfg["conflict_fraction"],
            seed=_subseed(seed, "integrate", index), labeling=labeling)
        pool.append({"family": "integrate",
                     "puls": [pul_to_xml(pul) for pul in parallel],
                     "ops": sum(len(pul) for pul in parallel),
                     "planted": planted})
    timed = max(20, round(cfg["jobs_per_s"] * seconds))
    warmup = warmup_count(timed)
    schedule = [[job % len(pool), (job + 1) % cfg["apply_every"] == 0]
                for job in range(warmup + timed)]
    return {"doc": text, "pool": pool, "schedule": schedule,
            "warmup": warmup, "timed": timed}


# -- durable_writes ----------------------------------------------------------


def _append_heavy_rounds(document, rounds, ops, seed):
    """Rounds that keep inserting ``as last`` into one parent (client
    0) beside value replacements elsewhere (client 1): the containment
    codes at the hot spot lengthen every round until the store's
    headroom rule forces a full relabel — a deterministic number of
    times. Returns ``(rounds, final document)`` like clientgen."""
    rng = random.Random(seed)
    working = document.copy()
    hot = next(node.node_id for node in document.nodes()
               if node.is_element and node.name == "open_auctions")
    texts = [node.node_id for node in document.nodes() if node.is_text]
    rng.shuffle(texts)
    batches = []
    for index in range(rounds):
        appends = []
        for serial in range(ops):
            bid = Node.element("bid")
            bid.append_child(Node.text(
                "r{}b{}v{}".format(index, serial, rng.randrange(10 ** 6))))
            appends.append(InsertIntoAsLast(hot, [bid]))
        values = [ReplaceValue(texts[(index * ops + serial) % len(texts)],
                               "rv{}".format(rng.randrange(10 ** 6)))
                  for serial in range(ops)]
        submissions = [("client-0", PUL(appends, origin="client-0")),
                       ("client-1", PUL(values, origin="client-1"))]
        batches.append(submissions)
        # advance exactly the way the store coalesces (see clientgen)
        reduced = reduce_deterministic(
            PUL(appends + values), structure=working)
        apply_pul(working, reduced, check=False, preserve_ids=True)
    return batches, working


def durable_inputs(seed, seconds):
    """``families`` documents with per-round client submissions; the
    run keeps ``copies`` resident copies of each, so one generated
    sequence serves several documents."""
    cfg = config.DURABLE
    timed = max(2, round(cfg["rounds_per_s"] * seconds))
    warmup = warmup_count(timed)
    rounds = warmup + timed
    docs, families, expected = [], [], []
    for family in range(cfg["families"]):
        text, document = _wire_document(
            cfg["scale"], _subseed(seed, "doc", family))
        if family == cfg["families"] - 1:
            batches, final = _append_heavy_rounds(
                document, rounds, cfg["ops_per_client"],
                _subseed(seed, "append"))
        else:
            batches, final = generate_client_batches(
                document, clients=cfg["clients"], rounds=rounds,
                ops_per_round=cfg["clients"] * cfg["ops_per_client"],
                seed=_subseed(seed, "rounds", family) % (2 ** 31),
                min_depth=cfg["min_depth"])
        docs.append(text)
        families.append([[[client, pul_to_xml(pul)]
                          for client, pul in submissions]
                         for submissions in batches])
        expected.append(sha256_text(serialize(final)))
    return {"docs": docs, "rounds": families, "expected_sha": expected,
            "warmup": warmup, "timed": timed}


# -- indexed_reads / open_mixed ----------------------------------------------

_CITIES = ("Genova", "Milano", "Uppsala", "Paris", "Lisbon", "Athens",
           "Oslo", "Dublin", "Prague", "Vienna")
_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


def _shape(scale):
    """Entity counts of an XMark document of ``scale`` (mirrors
    ``generate_xmark``; only used to draw predicate constants that
    exist)."""
    return {"items": max(1, max(2, int(1100 * scale)) // 6) * 6,
            "per_region": max(1, max(2, int(1100 * scale)) // 6),
            "people": max(2, int(700 * scale)),
            "auctions": max(2, int(330 * scale)),
            "categories": max(2, int(70 * scale))}


def _read_request(rng, kind, shape):
    """One path of the request class ``kind``."""
    if kind == "selective":
        return rng.choice((
            "//needle", "//needle/text()",
            "//{}//needle".format(rng.choice(_REGIONS)),
            "//categories//name"))
    if kind == "child":
        return rng.choice((
            "/site/people/person/name",
            "/site/regions/{}/item/location".format(rng.choice(_REGIONS)),
            "/site/open_auctions/open_auction/current",
            "/site/categories/category/name",
            "/site/people/person/profile/age"))
    if kind == "attr":
        return rng.choice((
            '//item[@id = "item{}"]'.format(rng.randrange(shape["items"])),
            '//incategory[@category = "category{}"]'.format(
                rng.randrange(shape["categories"])),
            '//person[@id = "person{}"]/name'.format(
                rng.randrange(shape["people"])),
            '//address[city = "{}"]'.format(rng.choice(_CITIES)),
            "//profile[@income]"))
    if kind == "dense":
        return rng.choice(("//item", "//text", "//name", "//@id"))
    if kind == "walker":
        return rng.choice((
            "/site/regions/{}/item[{}]/name".format(
                rng.choice(_REGIONS),
                1 + rng.randrange(shape["per_region"])),
            "//person[last()]/name",
            "//bidder[1]/increase"))
    raise ValueError("unknown request class {!r}".format(kind))


def _zipf_chooser(rng, count, exponent):
    """Draws indexes ``0..count-1`` with weight ``1/rank**exponent``
    over a seed-shuffled ranking (hot and cold documents exist)."""
    ranking = list(range(count))
    rng.shuffle(ranking)
    cumulative, total = [], 0.0
    for rank in range(1, count + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return lambda: rng.choices(ranking, cum_weights=cumulative)[0]


def _read_mix(rng, mix):
    kinds = [kind for kind, __ in mix]
    weights = [share for __, share in mix]
    return lambda: rng.choices(kinds, weights=weights)[0]


def reads_inputs(seed, seconds):
    """``distinct`` documents (each resident ``copies`` times) and a
    request list ``[kind, document index, path]``; ``text`` requests
    carry no path. ``restart_writes`` (``[distinct document index,
    XQuery Update expression]``) are what the restart probe logs."""
    cfg = config.READS
    docs = [_wire_document(cfg["scale"], _subseed(seed, "doc", index),
                           needles=cfg["needles"])[0]
            for index in range(cfg["distinct"])]
    rng = random.Random(_subseed(seed, "requests"))
    shape = _shape(cfg["scale"])
    choose_doc = _zipf_chooser(rng, cfg["distinct"] * cfg["copies"],
                               cfg["zipf_s"])
    choose_kind = _read_mix(rng, cfg["mix"])
    timed = max(50, round(cfg["requests_per_s"] * seconds))
    warmup = warmup_count(timed)
    requests = []
    for __ in range(warmup + timed):
        kind = choose_kind()
        path = None if kind == "text" else _read_request(rng, kind, shape)
        requests.append([kind, choose_doc(), path])
    # the five kinds in turn: the bytes logged per write then vary
    # with the drawn constants only, not with the mix a seed happens
    # to draw
    writes = [[index, _write_expression(rng, serial, shape,
                                        choice=(serial + index) % 5)]
              for serial in range(cfg["restart_writes"])
              for index in range(cfg["distinct"])]
    return {"docs": docs, "requests": requests, "restart_writes": writes,
            "warmup": warmup, "timed": timed}


def _write_expression(rng, serial, shape, choice=None):
    """One XQuery Update expression that stays applicable whatever
    earlier writes did: positional targets that no write removes.
    ``choice`` picks one of the five kinds (default: drawn)."""
    if choice is None:
        choice = rng.randrange(5)
    if choice == 0:
        return ("insert node <bidder><date>0{}/1{}/2001</date><increase>"
                "{}.00</increase></bidder> as last into "
                "/site/open_auctions/open_auction[{}]".format(
                    rng.randint(1, 9), rng.randint(0, 9),
                    rng.randint(1, 30),
                    1 + rng.randrange(shape["auctions"])))
    if choice == 1:
        return ('replace value of node /site/people/person[{}]/phone/'
                'text() with "+39 ({}) {}"'.format(
                    1 + rng.randrange(shape["people"]),
                    rng.randint(10, 99), rng.randint(10 ** 6, 10 ** 7)))
    if choice == 2:
        return ('insert node attribute w{} {{"{}"}} into '
                '/site/regions/{}/item[{}]'.format(
                    serial, rng.randint(0, 999), rng.choice(_REGIONS),
                    1 + rng.randrange(shape["per_region"])))
    if choice == 3:
        return ('replace value of node /site/open_auctions/'
                'open_auction[{}]/current/text() with "{}.00"'.format(
                    1 + rng.randrange(shape["auctions"]),
                    rng.randint(10, 400)))
    return ("insert node <note>n{}</note> as first into "
            "/site/categories/category[{}]/description".format(
                serial, 1 + rng.randrange(shape["categories"])))


def mixed_inputs(seed, seconds):
    """Documents plus one schedule of reads and writes at a constant
    rate. ``ops`` holds ``[kind, document index, payload]``; a
    ``write`` payload is an XQuery Update expression, submitted and
    flushed as one operation. ``expected_sha`` is every document's
    final text under the writes applied in schedule order."""
    cfg = config.MIXED
    parsed, docs = [], []
    for index in range(cfg["docs"]):
        text, document = _wire_document(
            cfg["scale"], _subseed(seed, "doc", index),
            needles=cfg["needles"])
        docs.append(text)
        parsed.append(document)
    rng = random.Random(_subseed(seed, "ops"))
    shape = _shape(cfg["scale"])
    choose_doc = _zipf_chooser(rng, cfg["docs"], cfg["zipf_s"])
    choose_kind = _read_mix(rng, config.READS["mix"])
    timed = max(50, round(cfg["rate_per_s"] * seconds))
    warmup = warmup_count(timed)
    ops = []
    writes = 0
    for serial in range(warmup + timed):
        doc_index = choose_doc()
        if rng.random() < cfg["write_share"]:
            # the five kinds in turn (see reads_inputs)
            expression = _write_expression(rng, serial, shape,
                                           choice=writes % 5)
            writes += 1
            working = parsed[doc_index]
            pul = compile_pul(expression, working)
            apply_pul(working,
                      reduce_deterministic(pul, structure=working),
                      check=False, preserve_ids=True)
            ops.append(["write", doc_index, expression])
            continue
        kind = choose_kind()
        path = None if kind == "text" else _read_request(rng, kind, shape)
        ops.append([kind, doc_index, path])
    return {"docs": docs, "ops": ops,
            "expected_sha": [sha256_text(serialize(document))
                             for document in parsed],
            "warmup": warmup, "timed": timed}


GENERATORS = {
    "reasoning_batch": reasoning_inputs,
    "durable_writes": durable_inputs,
    "indexed_reads": reads_inputs,
    "open_mixed": mixed_inputs,
}


# -- hashing, pinning, caching -----------------------------------------------


def inputs_sha(inputs):
    return sha256_text(json.dumps(inputs, sort_keys=True))


def _source_key():
    """Hash of everything the generated load is a function of."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, "gen.py"), os.path.join(HERE, "config.py")]
    package_dir = os.path.dirname(workloads_package.__file__)
    paths.extend(os.path.join(package_dir, name)
                 for name in sorted(os.listdir(package_dir))
                 if name.endswith(".py"))
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:12]


def pin_name(workload, seed, seconds):
    return "{}-{}-{:g}".format(workload, seed, seconds)


def load_pins():
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_inputs(workload, seed, seconds, use_cache=True):
    """``(inputs, sha, generation seconds)`` for one workload.

    Raises :class:`PinMismatch` when the hash of a pinned
    ``(workload, seed, seconds)`` differs from ``pins.json``."""
    start = time.perf_counter()
    cache_path = os.path.join(
        OUT_DIR, "cache", "{}-{}.json".format(
            pin_name(workload, seed, seconds), _source_key()))
    inputs = None
    if use_cache and os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8") as handle:
            inputs = json.load(handle)
    if inputs is None:
        inputs = GENERATORS[workload](seed, seconds)
        # the JSON round trip makes cached and fresh inputs identical
        # objects (lists, not tuples) before they are hashed or used
        encoded = json.dumps(inputs, sort_keys=True)
        inputs = json.loads(encoded)
        if use_cache:
            os.makedirs(os.path.dirname(cache_path), exist_ok=True)
            partial = "{}.{}.tmp".format(cache_path, os.getpid())
            with open(partial, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(partial, cache_path)
    sha = inputs_sha(inputs)
    pinned = load_pins().get(pin_name(workload, seed, seconds))
    if pinned is not None and pinned != sha:
        raise PinMismatch(
            "inputs of {} changed: sha256 {} but pins.json has {} — "
            "an edit under src/repro/workloads/ or benchmarks/e2e/ "
            "changed the load; results are not comparable".format(
                pin_name(workload, seed, seconds), sha, pinned))
    return inputs, sha, time.perf_counter() - start
