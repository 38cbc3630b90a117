"""Collaborative editing: parallel PULs, conflicts, policies.

Reproduces the check-out / check-in workflow of the paper's
introduction: a store holds the authoritative article, three
collaborators check it out, each produces a PUL against the *same*
version and submits it under its own client name, and the store's
coalescing integrates them. Some intentions clash — the conflicts are
detected (Figure 3 / Algorithm 1) and reconciled under the producers'
policies (Algorithm 3), mirroring the paper's Example 9; the failing
all-demand-order variant is shown too.

Run: ``python examples/collaborative_editing.py``
"""

from repro import ProducerPolicy, integrate
from repro.errors import ReconciliationError
from repro.store import DocumentStore
from repro.store.durability import restore_document
from repro.xquery import compile_pul

ARTICLE = """\
<article>
  <title>Dynamic Reasoning on XML Updates</title>
  <abstract>PULs can be exchanged among nodes.</abstract>
  <authors>
    <author>F. Cavalieri</author>
  </authors>
  <status>draft</status>
</article>"""

# everyone edits the same regions of the document
EDITS = {
    "giovanna": """
        insert node <author>G. Guerrini</author>
            after /article/authors/author[1],
        replace value of node /article/status/text() with "submitted"
    """,
    "marco": """
        insert node <author>M. Mesiti</author>
            after /article/authors/author[1],
        replace value of node /article/status/text() with "camera-ready"
    """,
    "federico": """
        rename node /article/abstract as summary
    """,
}

POLICIES = {
    "giovanna": ProducerPolicy(preserve_insertion_order=True,
                               preserve_inserted_data=True),
    "marco": ProducerPolicy(),
    "federico": ProducerPolicy(preserve_inserted_data=True),
}


def produce(store):
    """Each collaborator checks the article out and produces its PUL
    locally, against the same version."""
    payload = store.export_state(doc_ids=["article"])["docs"][0]
    puls = []
    for name, query in EDITS.items():
        checkout = restore_document(payload)
        puls.append(compile_pul(query, checkout.document,
                                labeling=checkout.labeling, origin=name))
    return puls


def check_in(store, puls):
    for pul in puls:
        store.submit("article", pul, client=pul.origin)
    return store.flush("article")


def main():
    with DocumentStore(on_conflict="reconcile",
                       policies=POLICIES) as store:
        store.open("article", ARTICLE)
        puls = produce(store)
        print("Detected conflicts:")
        for conflict in integrate(puls).conflicts:
            print("   ", conflict.describe())
        result = check_in(store, puls)
        print("\nReconciled the PULs of {} clients and executed them as "
              "version {}".format(result.clients, result.version))
        print("\nAuthoritative document now:\n")
        print(store.text("article"))

    # a variant that cannot be reconciled: everyone demands order
    strict = {name: ProducerPolicy(preserve_insertion_order=True)
              for name in EDITS}
    with DocumentStore(on_conflict="reconcile", policies=strict) as store:
        store.open("article", ARTICLE)
        try:
            check_in(store, produce(store))
        except ReconciliationError as error:
            print("\nAll-producers-demand-order variant correctly fails:")
            print("   ", error)
        else:
            raise AssertionError("the strict variant must not reconcile")
        # the refused batch changed nothing and stays queued
        assert store.version("article") == 0
        assert store.stats("article")["pending"] == len(EDITS)


if __name__ == "__main__":
    main()
