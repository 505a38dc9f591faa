import re
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich.textnorm import normalize


def reference_normalize(text: str) -> str:
    """The regex form of ``normalize``: vector-cache sidecars written by earlier
    versions hold tokens made by it, so the two must agree."""
    return re.sub(r"\s+", "_", unicodedata.normalize("NFC", text).casefold().strip())


# whitespace that re and str.split() must agree on (the file separator \x1c, NEL,
# NBSP, the ideographic space; not the zero-width space), combining marks that
# NFC composes, and case pairs that casefold changes
TRICKY = ["\x1c", "\x1f", "\x85", " ", "\t", "\n", "\u00a0", "\u2028", "\u200b",
          "\u3000", "\u0301", "\u0308", "\u0327", "e", "A", "\u00df", "\u0130", "_"]


@given(st.text(alphabet=st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=30))
@settings(max_examples=500, deadline=None)
def test_normalize_equals_regex_reference(text):
    assert normalize(text) == reference_normalize(text)



@given(st.characters())
@settings(max_examples=500, deadline=None)
def test_normalize_is_idempotent_on_one_code_point(char):
    assert normalize(normalize(char)) == normalize(char)


def test_normalize_is_not_idempotent_on_every_string():
    """A casefold can leave combining marks out of canonical order, or split a letter
    whose part then composes with the mark after it; a second NFC changes both. So a
    lookup reads a key it made as it is, without normalizing it again."""
    for text in ["\u0130\u20d3",  # İ folds to i + U+0307 (class 230), ahead of U+20D3 (1)
                 "\u1ff3\u0304"]:  # ῳ folds to ω + ι, and ι + U+0304 composes to ῑ
        assert normalize(normalize(text)) != normalize(text)
