"""A StreamSQL-style textual front-end for temporal queries.

The paper's users "write CQs using languages such as StreamSQL
(StreamBase and Oracle CEP) or LINQ (StreamInsight)" (Section II-A.2).
``repro`` exposes the LINQ-like :class:`~repro.temporal.query.Query`
builder as its primary surface; this module adds a compact StreamSQL
dialect compiled onto the same logical plans, so the RunningClickCount
example reads::

    SELECT COUNT(*) AS ClickCount
    FROM logs
    WHERE StreamId = 1
    GROUP APPLY AdId
    WINDOW 6 HOURS

Supported grammar (case-insensitive keywords)::

    query     := select | select UNION query
    select    := SELECT items FROM source
                 [WHERE predicate]
                 [GROUP APPLY cols]
                 [WINDOW n unit [HOP n unit] | WINDOW n EVENTS]
    source    := name | ( query ) [AS name]
               | source JOIN source ON cols
               | source ANTI JOIN source ON cols
    items     := * | item ("," item)*
    item      := AGG "(" (col|*) ")" [AS name] | col [AS name]
    AGG       := COUNT | SUM | AVG | MIN | MAX | STDDEV
    predicate := disjunction of conjunctions of comparisons
                 (=, !=, <>, <, <=, >, >=) over columns, numbers,
                 and single-quoted strings; parentheses and NOT allowed
    unit      := TICKS | SECONDS | MINUTES | HOURS | DAYS
                 (WINDOW n EVENTS is a count window: the last n events)

Windows bind to the stream being aggregated: with GROUP APPLY the window
and aggregates run inside each group (the CQ shape of Figure 6).
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from .operators import AggSpec
from .query import Query
from .time import days, hours, minutes, seconds

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*')"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*)"
    r")"
)

_KEYWORDS = {
    "select", "from", "where", "group", "apply", "window", "hop", "as",
    "and", "or", "not", "join", "anti", "on", "union", "count", "sum",
    "avg", "min", "max", "stddev",
    "ticks", "seconds", "minutes", "hours", "days",
    "second", "minute", "hour", "day", "tick",
    "events", "event",
}

_UNITS = {
    "tick": 1, "ticks": 1,
    "second": seconds(1), "seconds": seconds(1),
    "minute": minutes(1), "minutes": minutes(1),
    "hour": hours(1), "hours": hours(1),
    "day": days(1), "days": days(1),
}

_AGG_KINDS = {"count", "sum", "avg", "min", "max", "stddev"}


class StreamSQLError(ValueError):
    """Syntax or semantic error in a StreamSQL query."""


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value):
        self.kind = kind  # 'keyword' | 'ident' | 'number' | 'string' | 'op'
        self.value = value

    def __repr__(self):
        return f"{self.kind}:{self.value!r}"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise StreamSQLError(f"cannot tokenize near: {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup == "string":
            raw = m.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", raw))
        elif m.lastgroup == "number":
            raw = m.group("number")
            tokens.append(_Token("number", float(raw) if "." in raw else int(raw)))
        elif m.lastgroup == "ident":
            word = m.group("ident")
            if word.lower() in _KEYWORDS:
                tokens.append(_Token("keyword", word.lower()))
            else:
                tokens.append(_Token("ident", word))
        else:
            tokens.append(_Token("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self._predicate_columns: set = set()

    # -- token plumbing ---------------------------------------------------------

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise StreamSQLError("unexpected end of query")
        self.pos += 1
        return tok

    def accept_keyword(self, *words: str) -> Optional[str]:
        tok = self.peek()
        if tok is not None and tok.kind == "keyword" and tok.value in words:
            self.pos += 1
            return tok.value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise StreamSQLError(f"expected {word.upper()!r}, found {self.peek()!r}")

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise StreamSQLError(f"expected {op!r}, found {self.peek()!r}")

    def expect_ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise StreamSQLError(f"expected identifier, found {tok!r}")
        return tok.value

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Query:
        q = self.parse_select()
        while self.accept_keyword("union"):
            q = q.union(self.parse_select())
        return q

    def parse_select(self) -> Query:
        self.expect_keyword("select")
        items = self.parse_items()
        self.expect_keyword("from")
        source = self.parse_source()

        predicate = None
        if self.accept_keyword("where"):
            predicate = self.parse_predicate()

        group_cols: Optional[List[str]] = None
        if self.accept_keyword("group"):
            self.expect_keyword("apply")
            group_cols = [self.expect_ident()]
            while self.accept_op(","):
                group_cols.append(self.expect_ident())

        window = hop = count_n = None
        if self.accept_keyword("window"):
            window, count_n = self.parse_window_spec()
            if count_n is None and self.accept_keyword("hop"):
                hop = self.parse_duration()

        return self.build(source, items, predicate, group_cols, window, hop, count_n)

    def parse_items(self):
        if self.accept_op("*"):
            return "*"
        items = [self.parse_item()]
        while self.accept_op(","):
            items.append(self.parse_item())
        return items

    def parse_item(self):
        tok = self.peek()
        if tok is not None and tok.kind == "keyword" and tok.value in _AGG_KINDS:
            self.next()
            kind = tok.value
            self.expect_op("(")
            if self.accept_op("*"):
                column = None
            else:
                column = self.expect_ident()
            self.expect_op(")")
            alias = kind.capitalize()
            if self.accept_keyword("as"):
                alias = self.expect_ident()
            if kind != "count" and column is None:
                raise StreamSQLError(f"{kind.upper()} requires a column")
            return ("agg", kind, column, alias)
        column = self.expect_ident()
        alias = column
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        return ("col", column, alias)

    def parse_source(self) -> Query:
        source = self.parse_primary_source()
        while True:
            if self.accept_keyword("join"):
                other = self.parse_primary_source()
                self.expect_keyword("on")
                cols = [self.expect_ident()]
                while self.accept_op(","):
                    cols.append(self.expect_ident())
                source = source.temporal_join(other, on=cols)
            elif self.accept_keyword("anti"):
                self.expect_keyword("join")
                other = self.parse_primary_source()
                self.expect_keyword("on")
                cols = [self.expect_ident()]
                while self.accept_op(","):
                    cols.append(self.expect_ident())
                source = source.anti_semi_join(other, on=cols)
            else:
                return source

    def parse_primary_source(self) -> Query:
        if self.accept_op("("):
            q = self.parse_query()
            self.expect_op(")")
            if self.accept_keyword("as"):
                self.expect_ident()  # aliases are cosmetic in this dialect
            return q
        tok = self.next()
        if tok.kind != "ident":
            raise StreamSQLError(f"expected stream name, found {tok!r}")
        return Query.source(tok.value)

    def parse_duration(self) -> int:
        tok = self.next()
        if tok.kind != "number":
            raise StreamSQLError(f"expected a number, found {tok!r}")
        unit_tok = self.next()
        if unit_tok.kind != "keyword" or unit_tok.value not in _UNITS:
            raise StreamSQLError(f"expected a time unit, found {unit_tok!r}")
        return int(tok.value * _UNITS[unit_tok.value])

    def parse_window_spec(self):
        """WINDOW n <time unit> -> time window; WINDOW n EVENTS -> count."""
        tok = self.next()
        if tok.kind != "number":
            raise StreamSQLError(f"expected a number, found {tok!r}")
        unit_tok = self.next()
        if unit_tok.kind == "keyword" and unit_tok.value in ("events", "event"):
            return None, int(tok.value)
        if unit_tok.kind != "keyword" or unit_tok.value not in _UNITS:
            raise StreamSQLError(f"expected a time unit, found {unit_tok!r}")
        return int(tok.value * _UNITS[unit_tok.value]), None

    # -- predicates ---------------------------------------------------------------

    def parse_predicate(self) -> Callable[[dict], bool]:
        self._predicate_columns = set()
        fn = self.parse_or()
        # Tell the static analyzer which payload columns this predicate
        # reads — closure-built lambdas hide them from bytecode scans.
        fn._repro_reads = frozenset(self._predicate_columns)
        return fn

    def parse_or(self):
        terms = [self.parse_and()]
        while self.accept_keyword("or"):
            terms.append(self.parse_and())
        if len(terms) == 1:
            return terms[0]
        return lambda p, _t=tuple(terms): any(t(p) for t in _t)

    def parse_and(self):
        terms = [self.parse_comparison()]
        while self.accept_keyword("and"):
            terms.append(self.parse_comparison())
        if len(terms) == 1:
            return terms[0]
        return lambda p, _t=tuple(terms): all(t(p) for t in _t)

    def parse_comparison(self):
        if self.accept_keyword("not"):
            inner = self.parse_comparison()
            return lambda p, _i=inner: not _i(p)
        if self.accept_op("("):
            inner = self.parse_or()
            self.expect_op(")")
            return inner
        left = self.parse_operand()
        op_tok = self.next()
        if op_tok.kind != "op" or op_tok.value not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise StreamSQLError(f"expected a comparison operator, found {op_tok!r}")
        right = self.parse_operand()
        op = op_tok.value

        def compare(p, _l=left, _r=right, _op=op):
            lv, rv = _l(p), _r(p)
            if _op == "=":
                return lv == rv
            if _op in ("!=", "<>"):
                return lv != rv
            if _op == "<":
                return lv < rv
            if _op == "<=":
                return lv <= rv
            if _op == ">":
                return lv > rv
            return lv >= rv

        return compare

    def parse_operand(self):
        tok = self.next()
        if tok.kind == "ident":
            name = tok.value
            self._predicate_columns.add(name)
            return lambda p, _n=name: p[_n]
        if tok.kind in ("number", "string"):
            value = tok.value
            return lambda p, _v=value: _v
        raise StreamSQLError(f"expected column or literal, found {tok!r}")

    # -- plan construction -------------------------------------------------------------

    def build(
        self, source, items, predicate, group_cols, window, hop, count_n=None
    ) -> Query:
        q = source
        if predicate is not None:
            q = q.where(predicate)

        aggs = [i for i in items if items != "*" and i[0] == "agg"] if items != "*" else []
        plain = [i for i in items if items != "*" and i[0] == "col"] if items != "*" else []

        if aggs and plain:
            raise StreamSQLError(
                "mixing aggregates and plain columns is not supported; plain "
                "columns come back automatically as GROUP APPLY keys"
            )

        def windowed(stream: Query) -> Query:
            if count_n is not None:
                return stream.count_window(count_n)
            if window is None:
                return stream
            if hop is not None:
                return stream.hopping_window(window, hop)
            return stream.window(window)

        if aggs:
            specs = [AggSpec(kind, alias, column) for _, kind, column, alias in aggs]

            def agg_subplan(g: Query) -> Query:
                return windowed(g).aggregate(*specs)

            if group_cols:
                return q.group_apply(group_cols, agg_subplan)
            return agg_subplan(q)

        if group_cols:
            raise StreamSQLError("GROUP APPLY requires at least one aggregate")
        if window is not None or count_n is not None:
            q = windowed(q)
        if items == "*":
            return q
        renames = [(col, alias) for _, col, alias in plain]
        return q.project(
            lambda p, _r=tuple(renames): {alias: p[col] for col, alias in _r},
            label="select-list",
        )


def parse(sql: str) -> Query:
    """Compile a StreamSQL string into a :class:`Query`."""
    parser = _Parser(_tokenize(sql))
    query = parser.parse_query()
    if parser.peek() is not None:
        raise StreamSQLError(f"unexpected trailing input: {parser.peek()!r}")
    return query


def run_sql(sql: str, sources):
    """Parse and immediately execute a StreamSQL query."""
    from .engine import run_query

    return run_query(parse(sql), sources)
