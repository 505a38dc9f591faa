import re
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich.textnorm import normalize, text_tokens


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


def test_text_tokens_keep_combining_marks_inside_a_word():
    """A stress mark (Mn, no composed form with а) or a vowel sign (Mc) is no ``\\w``, but
    part of its word; ASCII and composed Latin text split at every non-word character."""
    assert text_tokens("это соба\u0301ка") == ["это", "соба\u0301ка"]
    assert text_tokens("यह किताब है") == ["यह", "किताब", "है"]
    assert text_tokens("«Пёс» — друг\u00a0человека…") == ["пёс", "друг", "человека"]
    assert text_tokens("A Waterfowl, of the family! 3-rd_x") == [
        "a", "waterfowl", "of", "the", "family", "3", "rd_x"]
    assert text_tokens("Cafe\u0301 ÉTÉ") == ["café", "été"]  # NFC composes these


def test_normalize_keeps_stress_marks_and_yo():
    """Both sidecars hold keys ``normalize`` made, so a change here (dropping U+0301, or
    folding ё into е) must bump their formats; pinned until one is made on purpose."""
    assert normalize("Соба\u0301ка") == "соба\u0301ка"
    assert normalize("Ёж") == "ёж" != normalize("Еж")
    assert normalize("किताब है") == "किताब_है"
