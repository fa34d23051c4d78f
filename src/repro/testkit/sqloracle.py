"""A sqlite3 oracle for the cube engine (DESIGN.md §16).

:class:`SqlOracle` answers a :class:`~repro.olap.service.QuerySpec` a
second, independent way.  It copies one star's data into tables of its
own in an in-memory stdlib ``sqlite3`` database and lets SQL do the
work: a ``WITH RECURSIVE`` closure over the members' parent links gives
every base member's ancestors, slices become ``WHERE`` predicates, and
dice and roll-up become ``GROUP BY``.  It imports nothing from
:mod:`repro.olap.engine` and never calls ``DimensionData.ancestors_at``.

The operators follow the OLAP algebra of Hachicha et al. ("Expressing
OLAP operators with the TAX XML algebra", PAPERS.md): *slice* selects
facts by a predicate on a fact attribute or on an attribute of the
members a fact references, at the base level or any ancestor level;
*dice* and *roll-up* group the selected facts by their members'
ancestors at the chosen level.  The GOLD semantics (§2) fix the corner
cases: a member under a non-strict relationship counts in every
parent's group, a many-to-many fact row in the union of its members'
groups, and a member whose hierarchy ends early in the NULL group.

The star layout of :mod:`repro.olap.sqlgen` is not used as the source:
it keeps only a non-strict member's first parent and has no hierarchy
bridge table, so it cannot reproduce the fan-out groups.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass

from ..mdm.enums import AggregationKind
from ..olap.service.query import QuerySpec
from ..olap.star import StarSchema

__all__ = ["SqlOracle", "OracleAnswer", "same_value"]

_SCHEMA = """
CREATE TABLE member (dim, level, key);
CREATE TABLE member_attr (dim, level, key, name, value);
CREATE TABLE parent (dim, level, key, parent_level, parent_key);
CREATE TABLE fact_key (row_id, dim, key);
CREATE INDEX member_by_key ON member (dim, level, key);
CREATE INDEX attr_by_key ON member_attr (dim, level, key, name);
CREATE INDEX parent_by_child ON parent (dim, level, key);
CREATE INDEX fact_key_by_row ON fact_key (row_id, dim);
"""

#: Every base member's ancestors at every level, itself included.  The
#: walk only steps onto parents that exist as members, and UNION keeps
#: each (member, ancestor) once however many paths lead there.
_CLOSURE = """
CREATE TABLE reach AS
WITH RECURSIVE walk (dim, base_key, level, key) AS (
    SELECT dim, key, level, key FROM member WHERE level = dim
    UNION
    SELECT w.dim, w.base_key, p.parent_level, p.parent_key
    FROM walk w
    JOIN parent p ON p.dim = w.dim AND p.level = w.level AND p.key = w.key
    JOIN member m ON m.dim = p.dim AND m.level = p.parent_level
                 AND m.key = p.parent_key
)
SELECT * FROM walk;
CREATE INDEX reach_by_base ON reach (dim, base_key, level);
"""

_AGGREGATES = {
    AggregationKind.COUNT: "COUNT({})",
    AggregationKind.SUM: "TOTAL({})",
    AggregationKind.AVG: "AVG({})",
    AggregationKind.MIN: "MIN({})",
    AggregationKind.MAX: "MAX({})",
}

#: ``None == x`` is a plain comparison in Python; ``IS`` is SQLite's
#: NULL-safe equality.
_COMPARISONS = {
    "EQ": "{} IS ?", "NOTEQ": "{} IS NOT ?", "LT": "{} < ?",
    "GT": "{} > ?", "LET": "{} <= ?", "GET": "{} >= ?",
    "LIKE": "CAST({} AS TEXT) LIKE ?",
    "NOTLIKE": "NOT (CAST({} AS TEXT) LIKE ?)",
}

_MEMBER_VALUE = ("(SELECT a.value FROM member_attr a WHERE a.dim = {0}.dim "
                 "AND a.level = {0}.level AND a.key = {0}.key "
                 "AND a.name = ?)")


@dataclass
class OracleAnswer:
    """The oracle's result: ``rows`` maps group keys to measure values
    (in the spec's measure order); ``sliced_out`` counts the fact rows
    the slices removed; ``rejected`` is set when an additivity rule
    forbids the query, which then has no rows."""

    rows: dict[tuple, tuple]
    sliced_out: int
    rejected: bool = False


class SqlOracle:
    """One star's data in an in-memory sqlite3 database."""

    def __init__(self, star: StarSchema) -> None:
        self.model = star.model
        self.db = sqlite3.connect(":memory:")
        self.db.executescript(_SCHEMA)
        self.db.execute("PRAGMA case_sensitive_like = 1")
        #: fact id -> (table name, attribute name -> column name).
        self.tables: dict[str, tuple[str, dict[str, str]]] = {}
        self._load(star)
        self.db.executescript(_CLOSURE)

    def close(self) -> None:
        self.db.close()

    def _load(self, star: StarSchema) -> None:
        members, attributes, parents = [], [], []
        for dim_id, data in star.dimensions.items():
            levels = [dim_id] + [lv.id for lv in data.dimension.iter_levels()]
            for level in levels:
                for key, member in data.members(level).items():
                    members.append((dim_id, level, key))
                    attributes.extend(
                        (dim_id, level, key, name, value)
                        for name, value in member.attributes.items())
                    parents.extend(
                        (dim_id, level, key, parent_level, parent_key)
                        for parent_level, keys in member.parents.items()
                        for parent_key in keys)
        self.db.executemany("INSERT INTO member VALUES (?, ?, ?)", members)
        self.db.executemany(
            "INSERT INTO member_attr VALUES (?, ?, ?, ?, ?)", attributes)
        self.db.executemany(
            "INSERT INTO parent VALUES (?, ?, ?, ?, ?)", parents)

        row_id = 0
        for index, (fact_id, table) in enumerate(star.facts.items()):
            names = [a.name for a in self.model.fact_class(fact_id).attributes]
            columns = {name: f"c{i}" for i, name in enumerate(names)}
            self.tables[fact_id] = (f"f{index}", columns)
            self.db.execute(
                f"CREATE TABLE f{index} (row_id INTEGER PRIMARY KEY"
                + "".join(f", {c}" for c in columns.values()) + ")")
            rows, keys = [], []
            for row in table.rows:
                row_id += 1
                rows.append([row_id] + [row.values.get(n) for n in names])
                for dim_id, raw in row.coordinates.items():
                    if raw is None:
                        continue  # no member for this dimension
                    listed = raw if isinstance(raw, (list, tuple)) else [raw]
                    keys.extend((row_id, dim_id, key) for key in listed)
            marks = ", ".join("?" * (len(names) + 1))
            self.db.executemany(f"INSERT INTO f{index} VALUES ({marks})",
                                rows)
            self.db.executemany("INSERT INTO fact_key VALUES (?, ?, ?)",
                                keys)

    # -- answering ---------------------------------------------------------

    def rejects(self, spec: QuerySpec) -> bool:
        """Whether an additivity rule forbids a measure's aggregation
        along one of the spec's dice dimensions."""
        fact = self.model.fact_class(spec.fact)
        return any(
            AggregationKind(aggregation) not in
            fact.attribute(measure).allowed_aggregations(dimension)
            for dimension, _level in spec.dices
            for measure, aggregation in spec.measures)

    def answer(self, spec: QuerySpec) -> OracleAnswer:
        if self.rejects(spec):
            return OracleAnswer({}, 0, rejected=True)
        fact = self.model.fact_class(spec.fact)
        table, columns = self.tables[fact.id]
        where, where_params = self._where(spec, fact, columns)

        coordinates, joins, params = [], [], []
        for i, (dimension, level) in enumerate(spec.dices):
            # One row per distinct coordinate of each fact row: a NULL key
            # (no member, or no ancestor at the level) is one coordinate.
            if level == dimension:
                source, roll_up = "k.key", ""
            else:
                source = "r.key"
                roll_up = ("LEFT JOIN reach r ON r.dim = k.dim "
                           "AND r.base_key = k.key AND r.level = ?")
            joins.append(
                f"JOIN (SELECT DISTINCT f.row_id AS row_id, {source} AS coord"
                f" FROM {table} f LEFT JOIN fact_key k"
                f" ON k.row_id = f.row_id AND k.dim = ? {roll_up}) a{i}"
                f" ON a{i}.row_id = f.row_id")
            params.extend([dimension] if level == dimension
                          else [dimension, level])
            coordinates.append(f"a{i}.coord")
        aggregates = [
            _AGGREGATES[AggregationKind(aggregation)].format(
                "f." + columns[fact.attribute(measure).name])
            for measure, aggregation in spec.measures]
        grouping = (f"GROUP BY {', '.join(coordinates)}" if coordinates
                    else "HAVING COUNT(*) > 0")
        sql = (f"SELECT {', '.join(coordinates + aggregates)} FROM {table} f "
               f"{' '.join(joins)} WHERE {where} {grouping}")
        width = len(coordinates)
        rows = {
            tuple(record[:width]): tuple(record[width:])
            for record in self.db.execute(sql, params + where_params)}

        total, kept = self.db.execute(
            f"SELECT COUNT(*), TOTAL({where}) FROM {table} f",
            where_params).fetchone()
        return OracleAnswer(rows, total - int(kept))

    def _where(self, spec: QuerySpec, fact, columns: dict[str, str]
               ) -> tuple[str, list]:
        """The slices as one predicate on fact row ``f``.

        Conditions on one dimension must all hold for the *same* member
        of a row; a row with no member for that dimension passes.
        """
        clauses, params = [], []
        per_dimension: dict[str, tuple[list[str], list]] = {}
        for attribute, operator, value in spec.slices:
            parts = attribute.split(".")
            if len(parts) == 1 or parts[0] in (fact.id, fact.name):
                column = "f." + columns[fact.attribute(parts[-1]).name]
                clause, values = _predicate(column, operator, value)
                clauses.append(clause)
                params.extend(values)
                continue
            dimension = self.model.dimension_class(parts[0]).id
            tests, test_params = per_dimension.setdefault(dimension, ([], []))
            clause, values = _predicate(
                _MEMBER_VALUE.format("r" if len(parts) == 3 else "m"),
                operator, value)
            if len(parts) == 3:
                level = self.model.dimension_class(dimension) \
                    .level(parts[1]).id
                tests.append(
                    "EXISTS (SELECT 1 FROM reach r WHERE r.dim = m.dim "
                    f"AND r.base_key = m.key AND r.level = ? AND {clause})")
                test_params.extend([level, parts[2]] + values)
            else:
                tests.append(clause)
                test_params.extend([parts[1]] + values)
        for dimension, (tests, test_params) in per_dimension.items():
            clauses.append(
                "(NOT EXISTS (SELECT 1 FROM fact_key k WHERE "
                "k.row_id = f.row_id AND k.dim = ?) OR EXISTS (SELECT 1 "
                "FROM fact_key k JOIN member m ON m.dim = k.dim "
                "AND m.level = k.dim AND m.key = k.key WHERE "
                "k.row_id = f.row_id AND k.dim = ? AND "
                + " AND ".join(tests) + "))")
            params.extend([dimension, dimension] + test_params)
        return (" AND ".join(clauses) or "1"), params


def _predicate(expression: str, operator: str, value: object
               ) -> tuple[str, list]:
    if operator in ("IN", "NOTIN"):
        values = list(value) if isinstance(
            value, (list, tuple, set, frozenset)) else [value]
        negation = "NOT " if operator == "NOTIN" else ""
        marks = ", ".join("?" * len(values))
        return f"{expression} {negation}IN ({marks})", values
    if operator in ("LIKE", "NOTLIKE"):
        value = str(value)
    return _COMPARISONS[operator].format(expression), [value]


def same_value(kind: AggregationKind, engine: object, oracle: object
               ) -> bool:
    """Counts and non-float values exactly; floats to ``rel_tol=1e-9``
    (SQLite sums in its own order).  SQL's NULL average of no values is
    the engine's NaN."""
    if kind is AggregationKind.AVG and oracle is None:
        oracle = math.nan
    if isinstance(engine, float) and isinstance(oracle, (int, float)):
        if math.isnan(engine) or math.isnan(oracle):
            return math.isnan(engine) and math.isnan(oracle)
        return math.isclose(engine, oracle, rel_tol=1e-9)
    return type(engine) is type(oracle) and engine == oracle
