"""One reader for the line formats of structures, schemes, quadruple
systems, facts and configs: ``#`` starts a comment, tokens are split on
whitespace, and a double-quoted string is one token (quotes kept) in which
``#`` is text. Every refusal of a line is a ``ParseError`` that names it.
"""

from .errors import ParseError


class LineReader:
    """The non-blank lines of ``text`` as token lists. A line whose first
    token is in ``headers`` may appear once and is read by ``header`` or
    ``number``; the others, whose first token must be in ``keywords`` (any
    when None), are iterated in order. Inside ``with reader:`` a ValueError,
    IndexError or KeyError is refused as a malformed line."""

    def __init__(self, text: str, headers=(), keywords=None):
        self.head = {}
        self.body = []
        self.seen = set()
        self.lineno, self.tokens = None, []
        for lineno, raw in enumerate(text.splitlines(), 1):
            self.lineno = lineno
            if '"' not in raw:
                tokens = raw.split("#", 1)[0].split()
            else:
                tokens = []
                for i, piece in enumerate(raw.split('"')):
                    if i % 2:
                        tokens.append(f'"{piece}"')
                        continue
                    code, comment, _ = piece.partition("#")
                    tokens += code.split()
                    if comment:
                        break
                else:
                    if i % 2:
                        raise self.error("unterminated quoted string")
            if not tokens:
                continue
            self.tokens = tokens
            if tokens[0] in headers:
                self.once(tokens[0], f"{tokens[0]!r} line")
                self.head[tokens[0]] = (lineno, tokens)
            elif keywords is None or tokens[0] in keywords:
                self.body.append((lineno, tokens))
            else:
                raise self.error(f"unknown keyword {tokens[0]!r}")

    def __iter__(self):
        for self.lineno, self.tokens in self.body:
            yield self.tokens

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, (ValueError, IndexError, KeyError)):
            raise self.error(f"malformed line: {' '.join(self.tokens)!r}") from None

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.lineno)

    def header(self, keyword: str) -> list:
        """The tokens after ``keyword`` on its header line, which must exist."""
        if keyword not in self.head:
            raise ParseError(f"missing {keyword!r} line")
        self.lineno, self.tokens = self.head[keyword]
        return self.tokens[1:]

    def number(self, keyword: str, default=None) -> int:
        """The one non-negative int of header line ``keyword``; ``default``
        when the text has no such line and ``default`` is not None."""
        if default is not None and keyword not in self.head:
            return default
        args = self.header(keyword)
        if len(args) != 1:
            raise self.error(f"expected '{keyword} <int>'")
        return self.integer(args[0], keyword)

    def once(self, key, what: str) -> None:
        """Record ``key``, refusing one that the text gave before."""
        if key in self.seen:
            raise self.error(f"{what} given twice")
        self.seen.add(key)

    def fields(self, items, required, what: str, optional=()) -> dict:
        """``key=value`` tokens as a dict, refusing a repeated key, one in
        neither ``required`` nor ``optional``, and a missing required one."""
        found = {}
        for item in items:
            key, eq, value = item.partition("=")
            if not eq:
                raise self.error(f"expected key=value, got {item!r}")
            if key not in required and key not in optional:
                raise self.error(f"unknown {what} {key!r}")
            if key in found:
                raise self.error(f"{what} {key!r} given twice")
            found[key] = value
        for key in required:
            if key not in found:
                raise self.error(f"missing {what} {key!r}")
        return found

    def integer(self, token: str, what: str, low: int = 0, high: int = None) -> int:
        """``token`` as an int in ``low..high`` (unbounded above when
        ``high`` is None)."""
        try:
            value = int(token)
        except ValueError:
            value = low - 1
        if value < low or high is not None and value > high:
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise self.error(f"bad value for {what}: expected an integer {bounds}, "
                             f"got {token!r}")
        return value
