from diffetm.synth import generate_docs


def test_background_mass_is_seeded_and_keeps_document_lengths():
    kwargs = dict(vocab_size=50, n_topics=4, seed=9, doc_len_range=(5, 12), background_weight=0.4)
    docs = generate_docs(40, **kwargs)
    assert generate_docs(40, **kwargs) == docs
    assert all(5 <= len(doc.split()) <= 12 for doc in docs)
    assert generate_docs(40, **{**kwargs, "background_weight": 0.0}) != docs
