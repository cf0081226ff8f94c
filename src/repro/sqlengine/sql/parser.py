"""Recursive-descent parser producing the AST in :mod:`.ast`."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...errors import ParseError, SqlSyntaxError, SqlUnsupportedError
from ..types import Value
from .ast import (AGGREGATE_FUNCS, Aggregate, Between, Comparison,
                  Conjunction, CreateIndexStmt, CreateTableStmt,
                  DeleteStmt, DropIndexStmt, DropTableStmt, InsertStmt,
                  OrderBy, SelectStmt, Statement, UpdateStmt)
from .lexer import Token, tokenize


def parse(sql: str) -> Statement:
    """Parse one SQL statement (an optional trailing ``;`` is allowed).

    Raises:
        ParseError: on malformed SQL. The exception carries the full
            statement text and the character offset of the offending
            token (``exc.statement`` / ``exc.position``), and
            ``exc.excerpt()`` renders a caret pointing at it.
    """
    try:
        return _Parser(sql).parse_statement()
    except ParseError as exc:
        # Lexer and parser sites raise with a position only; the full
        # statement is attached here, once, at the public entry point.
        exc.statement = sql
        raise


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token plumbing -------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise SqlSyntaxError(
                f"expected {wanted}, found {token.text or 'end of input'!r}",
                token.position)
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            self.advance()
            return True
        return False

    # -- grammar --------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.current
        if token.kind != "KEYWORD":
            raise SqlSyntaxError(
                f"expected a statement, found {token.text!r}",
                token.position)
        handlers = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "CREATE": self._create,
            "DROP": self._drop,
        }
        if token.text not in handlers:
            raise SqlUnsupportedError(
                f"unsupported statement {token.text}")
        statement = handlers[token.text]()
        self.accept("SYMBOL", ";")
        self.expect("EOF")
        return statement

    def _select(self) -> SelectStmt:
        self.expect("KEYWORD", "SELECT")
        columns: List[str] = []
        aggregates: List[Aggregate] = []
        if self.accept("SYMBOL", "*"):
            columns = ["*"]
        else:
            self._select_item(columns, aggregates)
            while self.accept("SYMBOL", ","):
                self._select_item(columns, aggregates)
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").text
        where = self._optional_where()
        group_by = None
        if self.accept("KEYWORD", "GROUP"):
            self.expect("KEYWORD", "BY")
            group_by = self.expect("IDENT").text
        if columns and aggregates:
            # Mixing is only legal as "SELECT <group col>, aggs ...
            # GROUP BY <group col>".
            if group_by is None or columns != [group_by]:
                raise SqlUnsupportedError(
                    "plain columns can only join aggregates as the "
                    "GROUP BY column")
            columns = []
        elif group_by is not None and not aggregates:
            raise SqlUnsupportedError(
                "GROUP BY requires aggregate functions")
        order_by = None
        if self.accept("KEYWORD", "ORDER"):
            self.expect("KEYWORD", "BY")
            column = self.expect("IDENT").text
            descending = False
            if self.accept("KEYWORD", "DESC"):
                descending = True
            else:
                self.accept("KEYWORD", "ASC")
            order_by = OrderBy(column=column, descending=descending)
        limit = None
        if self.accept("KEYWORD", "LIMIT"):
            limit = int(self.expect("NUMBER").text)
            if limit < 0:
                raise SqlSyntaxError("LIMIT must be non-negative",
                                     self.current.position)
        if order_by is not None and aggregates:
            if group_by is None or order_by.column != group_by:
                raise SqlUnsupportedError(
                    "with aggregates, ORDER BY is only supported on "
                    "the GROUP BY column")
        return SelectStmt(table=table, columns=tuple(columns),
                          where=where, limit=limit,
                          aggregates=tuple(aggregates),
                          order_by=order_by, group_by=group_by)

    def _select_item(self, columns: List[str],
                     aggregates: List["Aggregate"]) -> None:
        """One select-list item: a column or ``FUNC(col | *)``."""
        name_token = self.expect("IDENT")
        if not self.accept("SYMBOL", "("):
            columns.append(name_token.text)
            return
        func = name_token.text.upper()
        if func not in AGGREGATE_FUNCS:
            raise SqlSyntaxError(
                f"unknown aggregate function {name_token.text!r}",
                name_token.position)
        if self.accept("SYMBOL", "*"):
            column = None
            if func != "COUNT":
                raise SqlSyntaxError(f"{func}(*) is not valid",
                                     name_token.position)
        else:
            column = self.expect("IDENT").text
        self.expect("SYMBOL", ")")
        aggregates.append(Aggregate(func=func, column=column))

    def _insert(self) -> InsertStmt:
        self.expect("KEYWORD", "INSERT")
        self.expect("KEYWORD", "INTO")
        table = self.expect("IDENT").text
        self.expect("SYMBOL", "(")
        columns = [self.expect("IDENT").text]
        while self.accept("SYMBOL", ","):
            columns.append(self.expect("IDENT").text)
        self.expect("SYMBOL", ")")
        self.expect("KEYWORD", "VALUES")
        rows: List[Tuple[Value, ...]] = [self._value_row(len(columns))]
        while self.accept("SYMBOL", ","):
            rows.append(self._value_row(len(columns)))
        return InsertStmt(table=table, columns=tuple(columns),
                          rows=tuple(rows))

    def _value_row(self, arity: int) -> Tuple[Value, ...]:
        self.expect("SYMBOL", "(")
        values = [self._literal()]
        while self.accept("SYMBOL", ","):
            values.append(self._literal())
        close = self.expect("SYMBOL", ")")
        if len(values) != arity:
            raise SqlSyntaxError(
                f"VALUES row has {len(values)} values, expected {arity}",
                close.position)
        return tuple(values)

    def _update(self) -> UpdateStmt:
        self.expect("KEYWORD", "UPDATE")
        table = self.expect("IDENT").text
        self.expect("KEYWORD", "SET")
        assignments = [self._assignment()]
        while self.accept("SYMBOL", ","):
            assignments.append(self._assignment())
        return UpdateStmt(table=table, assignments=tuple(assignments),
                          where=self._optional_where())

    def _assignment(self) -> Tuple[str, Value]:
        column = self.expect("IDENT").text
        self.expect("SYMBOL", "=")
        return column, self._literal()

    def _delete(self) -> DeleteStmt:
        self.expect("KEYWORD", "DELETE")
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").text
        return DeleteStmt(table=table, where=self._optional_where())

    def _create(self) -> Statement:
        self.expect("KEYWORD", "CREATE")
        if self.accept("KEYWORD", "TABLE"):
            table = self.expect("IDENT").text
            self.expect("SYMBOL", "(")
            columns = [self._column_def()]
            while self.accept("SYMBOL", ","):
                columns.append(self._column_def())
            self.expect("SYMBOL", ")")
            return CreateTableStmt(table=table, columns=tuple(columns))
        if self.accept("KEYWORD", "INDEX"):
            name = self.expect("IDENT").text
            self.expect("KEYWORD", "ON")
            table = self.expect("IDENT").text
            self.expect("SYMBOL", "(")
            columns = [self.expect("IDENT").text]
            while self.accept("SYMBOL", ","):
                columns.append(self.expect("IDENT").text)
            self.expect("SYMBOL", ")")
            return CreateIndexStmt(name=name, table=table,
                                   columns=tuple(columns))
        raise SqlSyntaxError("expected TABLE or INDEX after CREATE",
                             self.current.position)

    def _column_def(self) -> Tuple[str, str]:
        name = self.expect("IDENT").text
        type_token = self.current
        if type_token.kind not in ("IDENT", "KEYWORD"):
            raise SqlSyntaxError(
                f"expected a type for column {name!r}",
                type_token.position)
        self.advance()
        return name, type_token.text

    def _drop(self) -> Statement:
        self.expect("KEYWORD", "DROP")
        if self.accept("KEYWORD", "INDEX"):
            return DropIndexStmt(name=self.expect("IDENT").text)
        if self.accept("KEYWORD", "TABLE"):
            return DropTableStmt(table=self.expect("IDENT").text)
        raise SqlSyntaxError("expected TABLE or INDEX after DROP",
                             self.current.position)

    def _optional_where(self) -> Optional[Conjunction]:
        if not self.accept("KEYWORD", "WHERE"):
            return None
        predicates = [self._predicate()]
        while self.accept("KEYWORD", "AND"):
            predicates.append(self._predicate())
        return Conjunction(tuple(predicates))

    def _predicate(self):
        column = self.expect("IDENT").text
        if self.accept("KEYWORD", "BETWEEN"):
            lo = self._literal()
            self.expect("KEYWORD", "AND")
            hi = self._literal()
            return Between(column=column, lo=lo, hi=hi)
        op_token = self.current
        if op_token.kind != "SYMBOL" or op_token.text not in (
                "=", "!=", "<", "<=", ">", ">="):
            raise SqlSyntaxError(
                f"expected a comparison operator after {column!r}",
                op_token.position)
        self.advance()
        return Comparison(column=column, op=op_token.text,
                          value=self._literal())

    def _literal(self) -> Value:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            text = token.text
            if any(c in text for c in ".eE"):
                return float(text)
            return int(text)
        if token.kind == "STRING":
            self.advance()
            return token.text
        raise SqlSyntaxError(f"expected a literal, found {token.text!r}",
                             token.position)
