"""Text normalization shared by taxonomy lemmas, embedding tokens and Wiktionary keys.

A lemma is normalized by Unicode NFC, case folding, and collapsing internal
whitespace to a single underscore, which matches the token convention of the
usual text-format embedding files.

Raw text is normalized once, by its reader (the vector and Wiktionary loaders, and
``Taxonomy.lemma_index``: {part of speech: {normalized lemma: sorted synset ids}}),
and a lookup reads a key it made as it is: ``normalize`` is not idempotent on every
string, as a casefold can leave combining marks out of canonical order.
"""

import re
import unicodedata

_SUBTOKEN_SPLIT = re.compile(r"[_\-]+")
# a non-ASCII character that is neither a word character nor whitespace: a combining mark
# (categories Mn, Mc, Me, which ``re`` cannot name) or a separator
_NOT_WORD = re.compile(r"[^\w\s\x00-\x7f]")
# a run of what is neither whitespace nor an ASCII non-word character: once each non-ASCII
# separator is a space, a run of word characters and combining marks
_MARKED_TOKEN = re.compile(r"[^\s\x00-/:-@\[-^`{-\x7f]+")


def normalize(text: str) -> str:
    """Normalize a lemma or token: NFC, casefold, whitespace -> underscore.

    ``str.split()`` breaks on the same characters as ``re``'s ``\\s`` (both
    test ``Py_UNICODE_ISSPACE``), so this equals substituting ``\\s+`` after a
    ``strip()``."""
    return "_".join(unicodedata.normalize("NFC", text).casefold().split())


def subtokens(token: str) -> list[str]:
    """Split a (normalized) token on underscores and hyphens."""
    return [t for t in _SUBTOKEN_SPLIT.split(token) if t]


def text_tokens(text: str) -> list[str]:
    """Word tokens of free text (e.g. a definition), normalized for matching: runs of word
    characters and the combining marks among them (a stress mark, a vowel sign)."""
    text = unicodedata.normalize("NFC", text).casefold()
    return _MARKED_TOKEN.findall(_NOT_WORD.sub(
        lambda m: m[0] if unicodedata.category(m[0])[0] == "M" else " ", text))


def surface_tokens(word: str) -> list[str]:
    """Tokens of an original surface form, case preserved."""
    return [t for t in re.split(r"[\s_\-]+", word) if t]
