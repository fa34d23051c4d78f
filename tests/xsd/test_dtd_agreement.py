"""The DTD and the XML Schema agree on the goldmodel corpus, but one.

Paper §3.1 compares the two grammars for GOLD documents: the schema
says everything the DTD says, and more selectively.  Over the
``base`` and ``mutant`` entries of the validation golden corpus
(:mod:`tests.xsd.test_validation_golden`), each serialized and parsed
again, :func:`repro.dtd.validate_dtd` and :func:`repro.xsd.validate`
give the same valid-or-invalid verdict on every entry but one.  That
one is the selectivity §3.1 credits to the schema: a ``<dice>`` whose
``dimclass`` names an ID of the wrong kind passes the DTD, where any
IDREF that names some ID is fine, and fails the schema's keyref.

The two validators share no code, so each is an oracle for the other.
"""

from __future__ import annotations

from repro.dtd import parse_dtd, validate_dtd
from repro.mdm.schema_gen import gold_dtd_text, gold_schema
from repro.xml import XMLError, parse, serialize
from repro.xsd import validate

from .test_validation_golden import corpus


def test_dtd_and_xsd_disagree_only_where_the_keyref_is_selective():
    dtd = parse_dtd(gold_dtd_text())
    schema = gold_schema()
    disagreements: dict[str, tuple[bool, bool]] = {}
    skipped: dict[str, str] = {}
    compared = 0
    for family in ("base", "mutant"):
        for key, description, document, _schema in corpus(family):
            text = serialize(document)
            try:
                parse(text)
            except XMLError:
                skipped[key] = description
                continue
            compared += 1
            xsd_valid = validate(parse(text), schema).valid
            dtd_valid = validate_dtd(parse(text), dtd).valid
            if xsd_valid != dtd_valid:
                disagreements[key] = (xsd_valid, dtd_valid)
    assert (compared, len(skipped)) == (1106, 137)
    # Only an xsi:nil mutant that never declares the prefix fails to
    # parse again.
    assert all("xsi:nil" in description
               for description in skipped.values()), skipped
    assert disagreements == {"mutant:273": (False, True)}
