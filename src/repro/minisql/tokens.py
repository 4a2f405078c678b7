"""SQL tokenizer for the mini engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE",
    "VIEW", "TRIGGER", "INSTEAD", "OF", "ON", "BEGIN", "END", "AS", "AND",
    "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN", "EXISTS", "UNION",
    "ALL", "DISTINCT", "GROUP", "HAVING", "JOIN", "INNER", "LEFT", "CROSS",
    "PRIMARY", "KEY", "UNIQUE", "DEFAULT", "REPLACE", "DROP", "IF",
    "INTEGER", "TEXT", "REAL", "BLOB", "BOOLEAN", "CASE", "WHEN", "THEN",
    "ELSE", "COUNT", "GLOB",
}

_OPERATORS = [
    "<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/", "%",
    "(", ")", ",", ".", ";", "?",
]


@dataclass
class Token:
    """One lexical token. ``kind`` is KEYWORD, IDENT, NUMBER, STRING, OP or EOF."""

    kind: str
    value: str
    position: int

    def matches(self, kind: str, value: Optional[str] = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``, raising :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = length if newline < 0 else newline + 1
            continue
        if ch == "'":
            end = i + 1
            chunks: List[str] = []
            while True:
                if end >= length:
                    raise SqlSyntaxError(f"unterminated string at {i}")
                if sql[end] == "'":
                    if end + 1 < length and sql[end + 1] == "'":
                        chunks.append(sql[i + 1 : end + 1])
                        i = end + 1
                        end = i + 1
                        continue
                    break
                end += 1
            chunks.append(sql[i + 1 : end])
            tokens.append(Token("STRING", "".join(chunks), i))
            i = end + 1
            continue
        if ch == '"' or ch == "`" or ch == "[":
            closing = {'"': '"', "`": "`", "[": "]"}[ch]
            end = sql.find(closing, i + 1)
            if end < 0:
                raise SqlSyntaxError(f"unterminated quoted identifier at {i}")
            tokens.append(Token("IDENT", sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and sql[i + 1].isdigit()):
            end = i
            seen_dot = False
            while end < length and (sql[end].isdigit() or (sql[end] == "." and not seen_dot)):
                if sql[end] == ".":
                    seen_dot = True
                end += 1
            tokens.append(Token("NUMBER", sql[i:end], i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i
            while end < length and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            word = sql[i:end]
            if word.upper() in KEYWORDS:
                tokens.append(Token("KEYWORD", word.upper(), i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = end
            continue
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token("OP", op, i))
                i += len(op)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r} at {i}")
    tokens.append(Token("EOF", "", length))
    return tokens
