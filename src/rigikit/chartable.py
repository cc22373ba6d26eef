"""Character tables: data model, CTB v1 text format, validation.

Tables are immutable after construction. Layout is canonical: the identity
class comes first, then classes sort by ascending element order and size;
the trivial character comes first, then rows sort by ascending degree.
Classes and rows these keys leave tied are ordered by a canonical form of
the values and power maps (`canonical_layout`), so isomorphic tables, with
power maps preserved, get identical layouts whatever order their classes
and rows were produced in. Its refinement runs a splitter queue (McKay and
Piperno, "Practical graph isomorphism, II", 2014), re-signing only against
the cells that changed: a split cell queues all its pieces but the largest
(Hopcroft, "An n log n algorithm for minimizing states in a finite
automaton", 1971).

Orthogonality by split primes. `validate` decides row and column
orthogonality by the residues of the values modulo primes l = 1 (mod e),
e the lcm of the value conductors: each check is one integer Gram product
mod l per root zeta_e -> omega^k, omega of order e in GF(l). Vanishing at
every root of primes whose product exceeds a norm bound proves a Gram
identity exactly. For pairwise distinct, Galois-stable rows, as in every
character table, the root k = 1 suffices; any other table, and any table
whose residues show a failure, is checked at every root, which also names
the least failing pair. `_split_prime` gives the proof. (Reducing
cyclotomic integers modulo a split prime: Breuer, "Integral bases for
subfields of cyclotomic fields", AAECC 8 (1997).)
"""

from __future__ import annotations

import re
from collections import deque
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cyclo import Cyclotomic, cyc, format_value, parse_value, raw_embed
# unused here, but the benchmark's tracer wraps them in this module
from .cyclo import raw_conjugate, raw_equals_rational, raw_mul  # noqa: F401
from .modp import (PRIME_TEST_BOUND, element_of_order, prime_factors, prime_one_mod,
                   primitive_root)


class CTBSyntaxError(ValueError):
    """CTB parse failure; carries the 1-based line (and column when known)."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        loc = "line %d" % line if column is None else "line %d, col %d" % (line, column)
        super().__init__("%s (%s)" % (message, loc))
        self.line = line
        self.column = column


class ClassRecord(NamedTuple):
    name: str
    size: int
    order: int
    power_maps: Tuple[Tuple[int, int], ...]  # sorted (prime, class index)

    @property
    def power_map(self) -> Dict[int, int]:
        return dict(self.power_maps)


class CharacterTable(NamedTuple):
    name: str
    order: int
    exponent: int
    classes: Tuple[ClassRecord, ...]
    rows: Tuple[Tuple[Cyclotomic, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, name: str) -> int:
        for i, c in enumerate(self.classes):
            if c.name == name:
                return i
        raise ValueError("no class named %r in table %s" % (name, self.name))

    def column(self, j: int) -> Tuple[Cyclotomic, ...]:
        return tuple(row[j] for row in self.rows)

    def trivial_row_index(self) -> int:
        one = cyc(1)
        for r, row in enumerate(self.rows):
            if all(v == one for v in row):
                return r
        raise ValueError("table %s has no trivial character row" % self.name)

    def centralizer_order(self, j: int) -> int:
        return self.order // self.classes[j].size

    def inverse_class(self, j: int) -> int:
        """Index of the class of inverses, located via complex conjugation."""
        target = tuple(v.conjugate() for v in self.column(j))
        for i in range(self.n_classes):
            if self.column(i) == target:
                return i
        raise ValueError(
            "table %s has no conjugate column for class %s"
            % (self.name, self.classes[j].name))


# ---------------------------------------------------------------------------
# canonical layout


class _Cells:
    """An ordered partition of range(n): `points` lists the points cell by
    cell, `color[x]` is the start of x's cell, `end[s]` ends the cell at s,
    and `tied` holds the starts of the cells of two or more points."""

    def __init__(self, keys: List):
        n = len(keys)
        self.points, self.color, self.end = list(range(n)), [0] * n, {0: n}
        self.tied = {0} if n > 1 else set()
        self.split(0, keys)

    def copy(self) -> "_Cells":
        new = _Cells.__new__(_Cells)
        new.points, new.color = self.points[:], self.color[:]
        new.end, new.tied = dict(self.end), set(self.tied)
        return new

    def split(self, s: int, signatures: List) -> List[int]:
        """Replace the cell at s by its pieces in the order of its points'
        signatures, given in `points` order; return the piece starts."""
        if signatures.count(signatures[0]) == len(signatures):
            return []
        groups: Dict[object, List[int]] = {}
        for x, sig in zip(self.points[s:self.end[s]], signatures):
            groups.setdefault(sig, []).append(x)
        starts = []
        for sig in sorted(groups):
            piece = groups[sig]
            self.points[s:s + len(piece)] = piece
            for x in piece:
                self.color[x] = s
            self.end[s] = s + len(piece)
            (self.tied.add if len(piece) > 1 else self.tied.discard)(s)
            starts.append(s)
            s += len(piece)
        return starts


def _refine(classes: _Cells, rows: _Cells, queue: List[Tuple[int, int]], ids, cols,
            preimages) -> None:
    """Refine both partitions in place until they are equitable, splitting
    against the queued cells, (0, start) for classes and (1, start) for rows.
    A row cell re-signs each tied class cell by the sorted value ids in its
    rows; a class cell re-signs the rows alike, and the classes whose p-th
    power lies in it, ahead of the rest of their cells, by those p. A split
    cell that was queued queues all its pieces, any other all but its largest:
    stability against the cell and the others gives it against that one."""
    sides = (classes, rows)
    queued = set(queue)
    queue = deque(queue)

    def enqueue(side, starts):
        end = sides[side].end
        if starts and (side, starts[0]) not in queued:
            starts.remove(max(starts, key=lambda s: end[s] - s))
        queue.extend((side, s) for s in starts if (side, s) not in queued)
        queued.update((side, s) for s in starts)

    while queue:
        side, s = entry = queue.popleft()
        queued.discard(entry)
        splitter = sides[side].points[s:sides[side].end[s]]
        # a target's ids are vectors[target][point]; with one point, they
        # are read off that point's own vector
        vectors, get = (cols if side else ids), itemgetter(*splitter)
        own = (ids if side else cols)[splitter[0]] if len(splitter) == 1 else None
        other = sides[1 - side]
        points, end, split = other.points, other.end, other.split
        for t in sorted(other.tied):
            members = points[t:end[t]]
            if own is not None:
                sigs = itemgetter(*members)(own)
            else:
                sigs = [tuple(sorted(get(vectors[y]))) for y in members]
            if sigs.count(sigs[0]) < len(sigs):
                enqueue(1 - side, split(t, sigs))
        if side == 0:
            hits: Dict[int, List[int]] = {}
            for j in splitter:
                for p, i in preimages[j]:
                    hits.setdefault(i, []).append(p)
            for t in sorted({classes.color[i] for i in hits} & classes.tied):
                enqueue(0, classes.split(t, [(0, *sorted(hits[i])) if i in hits else (1,)
                                             for i in classes.points[t:classes.end[t]]]))


def canonical_layout(
    class_keys: List[tuple],
    row_keys: List[tuple],
    ids: List[List[int]],
    power_maps: List[Tuple[Tuple[int, int], ...]],
) -> Tuple[List[int], List[int]]:
    """Return (class index order, row index order) for the canonical layout.

    `ids[r][i]` numbers the value of row r at class i, in the values' order;
    `power_maps[i]` holds the sorted (prime, class index) pairs of class i.
    Individualization-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symb. Comp. 60 (2014)): the key colors are refined
    by values and power maps, each class of the first tied cell is
    individualized in turn and refined again, and the layout is the leaf with
    the least certificate, the values and power maps in leaf order. Equal
    certificates give table automorphisms; a child in the orbit of an
    explored sibling under those fixing the path is skipped, as its subtree
    gives the same certificates. Refinement is driven by a splitter queue
    (`_refine`) with Hopcroft's rule of queueing every piece of a split cell
    but the largest (Hopcroft, "An n log n algorithm for minimizing states in
    a finite automaton", 1971): the root queues every cell and a child only
    its individualized class, so a node re-signs only against the cells that
    changed.
    """
    cols = list(zip(*ids))
    preimages: List[List[Tuple[int, int]]] = [[] for _ in class_keys]
    for i, pm in enumerate(power_maps):
        for p, j in pm:
            preimages[j].append((p, i))

    leaves: Dict[tuple, List[int]] = {}  # certificate -> first leaf's class order
    automorphisms: List[Dict[int, int]] = []
    best = None

    def search(classes, rows, queue, path):
        nonlocal best
        _refine(classes, rows, queue, ids, cols, preimages)
        if classes.tied:
            s = min(classes.tied)
            explored: List[int] = []
            for v in classes.points[s:classes.end[s]]:
                fixing = [g for g in automorphisms if all(g[x] == x for x in path)]
                if v not in _orbit(explored, fixing):
                    child = classes.copy()
                    child.split(s, [x != v for x in child.points[s:child.end[s]]])
                    search(child, rows.copy(), [(0, s)], path + [v])
                    explored.append(v)
            return
        class_order = classes.points
        # rows left tied at a leaf are identical, so their order is moot
        get = itemgetter(*class_order)
        cert = (tuple(get(ids[r]) for r in rows.points),
                tuple(tuple((p, classes.color[j]) for p, j in power_maps[i])
                      for i in class_order))
        first = leaves.setdefault(cert, class_order)
        if first is not class_order:
            automorphisms.append(dict(zip(first, class_order)))
        if best is None or cert < best[0]:
            best = (cert, class_order, rows.points)

    classes, rows = _Cells(class_keys), _Cells(row_keys)
    search(classes, rows, [(0, s) for s in sorted(classes.end)]
           + [(1, s) for s in sorted(rows.end)], [])
    return best[1], best[2]


def _orbit(points: List[int], generators: List[Dict[int, int]]) -> set:
    """The union of the orbits of `points` under the group generated."""
    orbit, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                todo.append(g[x])
    return orbit


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _class_letter(i: int) -> str:
    out = ""
    i += 1
    while i > 0:
        i, r = divmod(i - 1, 26)
        out = _LETTERS[r] + out
    return out


def build_table_mapped(
    name: str,
    order: int,
    exponent: int,
    class_infos: Sequence[Tuple[int, int, Dict[int, int]]],
    rows: Sequence[Sequence[Cyclotomic]],
) -> Tuple[CharacterTable, List[int], List[int]]:
    """Assemble a canonical table, also returning the layout permutations
    (class_order[new] = old index, row_order[new] = old index).

    `class_infos` holds (size, element_order, {prime: class index}) in any
    order; `rows` are indexed the same way. Exactly one class, the identity,
    has element order 1 and size 1; each row's degree is read there. Classes
    and rows are permuted to the canonical layout and classes are named
    `<order><letter>`.
    """
    values = sorted({v for row in rows for v in row}, key=Cyclotomic.sort_key)
    value_id = {v: i for i, v in enumerate(values)}
    ids = [[value_id[v] for v in row] for row in rows]
    class_keys = [(co, cs) for (cs, co, _pm) in class_infos]
    identities = [i for i, key in enumerate(class_keys) if key == (1, 1)]
    if len(identities) != 1:
        raise ValueError("expected exactly one class of element order 1 and "
                         "size 1, found %d" % len(identities))
    ident = identities[0]
    one = value_id.get(cyc(1))
    row_keys = [(0 if all(x == one for x in row_ids) else 1, row[ident].to_integer())
                for row, row_ids in zip(rows, ids)]
    power_maps = [tuple(sorted(pm.items())) for _cs, _co, pm in class_infos]
    class_order, row_order = canonical_layout(class_keys, row_keys, ids, power_maps)
    old_to_new = {old: new for new, old in enumerate(class_order)}

    by_order: Dict[int, int] = {}
    records = []
    for new_i, old_i in enumerate(class_order):
        size, corder, pm = class_infos[old_i]
        serial = by_order.get(corder, 0)
        by_order[corder] = serial + 1
        records.append(
            ClassRecord(
                name="%d%s" % (corder, _class_letter(serial)),
                size=size,
                order=corder,
                power_maps=tuple(
                    sorted((p, old_to_new[idx]) for p, idx in pm.items())
                ),
            )
        )
    new_rows = tuple(  # one object per distinct value, so equal values are identical
        tuple(values[ids[r][i]] for i in class_order) for r in row_order
    )
    table = CharacterTable(
        name=name,
        order=order,
        exponent=exponent,
        classes=tuple(records),
        rows=new_rows,
    )
    return table, list(class_order), list(row_order)


def same_character_data(a: CharacterTable, b: CharacterTable) -> bool:
    """Value identity of two tables, ignoring the group name string."""
    return (
        a.order == b.order
        and a.exponent == b.exponent
        and a.classes == b.classes
        and a.rows == b.rows
    )


# ---------------------------------------------------------------------------
# CTB v1 text format


def emit_ctb(table: CharacterTable) -> str:
    lines = ["CTB 1"]
    lines.append("name %s" % table.name)
    lines.append("order %d" % table.order)
    lines.append("exponent %d" % table.exponent)
    lines.append("classes %d" % table.n_classes)
    for c in table.classes:
        pows = " ".join(
            "pow%d=%s" % (p, table.classes[idx].name) for p, idx in c.power_maps
        )
        lines.append(
            "class %s size=%d order=%d%s" % (c.name, c.size, c.order,
                                             (" " + pows) if pows else "")
        )
    # a table repeats few distinct values
    text = {v: format_value(v) for v in {v for row in table.rows for v in row}}
    for r, row in enumerate(table.rows):
        lines.append("char X%d %s" % (r + 1, " ; ".join(map(text.__getitem__, row))))
    return "\n".join(lines) + "\n"


_ROOT_ORDER = re.compile(r"E\(([^,()]*),")


def parse_ctb(text) -> CharacterTable:
    """Parse CTB v1 text (str or bytes). Structural checks only; run
    `validate` for the orthogonality suite."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CTBSyntaxError("byte 0x%02x is not ASCII" % text[exc.start],
                                 text.count(b"\n", 0, exc.start) + 1) from None
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            raw = lines[pos]
            pos += 1
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                return stripped, pos
        return None, pos

    line, ln = next_line()
    if line is None or line.split() != ["CTB", "1"]:
        raise CTBSyntaxError("expected header 'CTB 1'", ln)

    header: Dict[str, object] = {}
    for key in ("name", "order", "exponent", "classes"):
        line, ln = next_line()
        if line is None or not line.startswith(key + " "):
            raise CTBSyntaxError("expected '%s <value>' line" % key, ln)
        header[key] = line[len(key) + 1:].strip()
        if key == "name":
            continue
        try:
            header[key] = int(header[key])
        except ValueError as exc:
            raise CTBSyntaxError("bad integer in header: %s" % exc, ln) from None
        if header[key] < 1:
            raise CTBSyntaxError("header integers must be positive", ln)
    order, exponent, n_classes = header["order"], header["exponent"], header["classes"]

    class_names: List[str] = []
    class_sizes: List[int] = []
    class_orders: List[int] = []
    class_pows: List[Dict[int, str]] = []
    class_lines: List[int] = []
    for _ in range(n_classes):
        line, ln = next_line()
        if line is None or not line.startswith("class "):
            raise CTBSyntaxError(
                "expected %d class lines, got %d" % (n_classes, len(class_names)), ln)
        fields = line.split()
        cname = fields[1]
        if cname in class_names:
            raise CTBSyntaxError("duplicate class name %r" % cname, ln)
        size = corder = None
        pows: Dict[int, str] = {}
        for f in fields[2:]:
            if "=" not in f:
                raise CTBSyntaxError("bad class attribute %r" % f, ln)
            key, _, val = f.partition("=")
            if key == "size":
                size = _parse_pos_int(val, "size", ln)
            elif key == "order":
                corder = _parse_pos_int(val, "order", ln)
            elif key.startswith("pow"):
                p = _parse_pos_int(key[3:], "power-map prime", ln)
                pows[p] = val
            else:
                raise CTBSyntaxError("unknown class attribute %r" % key, ln)
        if size is None or corder is None:
            raise CTBSyntaxError("class %s needs size= and order=" % cname, ln)
        class_names.append(cname)
        class_sizes.append(size)
        class_orders.append(corder)
        class_pows.append(pows)
        class_lines.append(ln)

    name_to_index = {n: i for i, n in enumerate(class_names)}
    power_maps: List[Tuple[Tuple[int, int], ...]] = []
    for i, pows in enumerate(class_pows):
        resolved = {}
        for p, target in pows.items():
            if target not in name_to_index:
                raise CTBSyntaxError(
                    "unknown class name %r in power map of %s" % (target, class_names[i]),
                    class_lines[i])
            resolved[p] = name_to_index[target]
        power_maps.append(tuple(sorted(resolved.items())))

    # every value of a character lies in Q(zeta_exponent), which also holds
    # the roots E(2m, k) for odd m | exponent; any other root is rejected
    # before the arithmetic at its order begins
    root_bound = lcm(2, exponent)
    parsed: Dict[str, Cyclotomic] = {}  # a table repeats few distinct values
    rows: List[Tuple[Cyclotomic, ...]] = []
    char_names: List[str] = []
    while True:
        line, ln = next_line()
        if line is None:
            break
        if not line.startswith("char "):
            raise CTBSyntaxError("expected 'char' line, got %r" % line[:20], ln)
        body = line[5:]
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise CTBSyntaxError("char line needs a name and values", ln)
        cname, values_text = parts
        pieces = values_text.split(";")
        if len(pieces) != n_classes:
            raise CTBSyntaxError(
                "char %s has %d values, expected %d" % (cname, len(pieces), n_classes),
                ln)
        for m in _ROOT_ORDER.finditer(values_text.replace(" ", "").replace("\t", "")):
            try:
                n = int(m.group(1))
            except ValueError:
                continue  # parse_value reports the malformed root
            if n >= 1 and root_bound % n:
                raise CTBSyntaxError(
                    "E(%d,k) in char %s: %d does not divide lcm(2, exponent) = %d"
                    % (n, cname, n, root_bound), ln)
        keys = [p.strip() for p in pieces]
        try:
            for key, p in zip(keys, pieces):
                if key not in parsed:
                    parsed[key] = parse_value(p)
        except ValueError as exc:
            raise CTBSyntaxError("bad value in char %s: %s" % (cname, exc), ln) from None
        rows.append(tuple(map(parsed.__getitem__, keys)))
        char_names.append(cname)
    if not rows:
        raise CTBSyntaxError("table has no character rows", pos)

    records = tuple(
        ClassRecord(
            name=class_names[i],
            size=class_sizes[i],
            order=class_orders[i],
            power_maps=power_maps[i],
        )
        for i in range(n_classes)
    )
    return CharacterTable(
        name=header["name"],
        order=order,
        exponent=exponent,
        classes=records,
        rows=tuple(rows),
    )


def _parse_pos_int(text: str, what: str, line: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise CTBSyntaxError("bad %s %r" % (what, text), line) from None
    if v < 1:
        raise CTBSyntaxError("%s must be positive, got %d" % (what, v), line)
    return v


# ---------------------------------------------------------------------------
# validation


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class CheckReport:
    """Named check results; a failed check is an item, not an error.

    A plain class, not a NamedTuple: the benchmark's tracer tells the
    (report, Green functions) pair of `dl_rank1.theta_independence` from a
    report by `isinstance(result, tuple)`."""

    __slots__ = ("title", "items")

    def __init__(self, title: str, items: Tuple[CheckResult, ...]):
        self.title = title
        self.items = items

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.items)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.items if not c.ok)

    def machine_block(self) -> str:
        return "\n".join(
            "%s = %s" % (c.name, "pass" if c.ok else "FAIL: %s" % c.detail)
            for c in self.items
        )

    def __str__(self):
        lines = []
        for c in self.items:
            mark = "pass" if c.ok else "FAIL"
            suffix = (": " + c.detail) if c.detail else ""
            lines.append("%-24s %s%s" % (c.name, mark, suffix))
        return "\n".join(lines)


def validate(table: CharacterTable, orthogonality: bool = True) -> CheckReport:
    """Run the table invariants; failures are report entries, not errors.

    Row and column orthogonality are decided exactly by their residues
    modulo split primes (`_split_prime` gives the proof); a failed one names
    the least failing pair of rows or classes.
    """
    checks: List[CheckResult] = []
    k = table.n_classes

    idc = table.classes[0]
    checks.append(CheckResult(
        "identity_first", idc.order == 1 and idc.size == 1,
        "" if idc.order == 1 and idc.size == 1 else
        "first class is %s (size %d, order %d)" % (idc.name, idc.size, idc.order)))

    total = sum(c.size for c in table.classes)
    checks.append(CheckResult(
        "class_sizes_sum", total == table.order,
        "" if total == table.order else "sizes sum to %d, order is %d" % (total, table.order)))

    bad = [c.name for c in table.classes if table.order % c.size != 0]
    checks.append(CheckResult(
        "class_size_divides_order", not bad, ", ".join(bad)))

    bad = [c.name for c in table.classes if table.exponent % c.order != 0]
    checks.append(CheckResult(
        "element_order_divides_exponent", not bad, ", ".join(bad)))

    exp_primes = prime_factors(table.exponent)
    missing = []
    badpow = []
    for c in table.classes:
        pm = c.power_map
        for p in exp_primes:
            if p not in pm:
                missing.append("%s:pow%d" % (c.name, p))
            else:
                idx = pm[p]
                if not (0 <= idx < k):
                    badpow.append("%s:pow%d" % (c.name, p))
                else:
                    expected = c.order // gcd(c.order, p)
                    if table.classes[idx].order != expected:
                        badpow.append(
                            "%s:pow%d->%s (order %d, expected %d)"
                            % (c.name, p, table.classes[idx].name,
                               table.classes[idx].order, expected))
    checks.append(CheckResult("power_maps_complete", not missing, ", ".join(missing)))
    checks.append(CheckResult("power_map_orders", not badpow, ", ".join(badpow)))

    one = cyc(1)
    trivial_rows = [r for r, row in enumerate(table.rows)
                    if all(v == one for v in row)]
    ok = trivial_rows == [0]
    checks.append(CheckResult(
        "trivial_character_first", ok,
        "" if ok else "trivial rows at %s" % (trivial_rows,)))

    deg_ok = True
    detail = ""
    total_sq = 0
    for r, row in enumerate(table.rows):
        v = row[0]
        if not v.is_integer() or v.to_integer() < 1:
            deg_ok = False
            detail = "row %d has degree %s" % (r, v)
            break
        total_sq += v.to_integer() ** 2
    if deg_ok and total_sq != table.order:
        deg_ok = False
        detail = "degree squares sum to %d, order is %d" % (total_sq, table.order)
    checks.append(CheckResult("degree_squares_sum", deg_ok, detail))

    cols = {}
    dup = ""
    for j in range(k):
        key = table.column(j)
        if key in cols:
            dup = "%s and %s" % (table.classes[cols[key]].name, table.classes[j].name)
            break
        cols[key] = j
    checks.append(CheckResult("columns_distinct", not dup, dup))

    if orthogonality:
        nr = len(table.rows)
        split = _split_prime(table)
        for name, weights, norms, labels, what, transpose in (
                ("row_orthogonality", [c.size for c in table.classes],
                 [table.order] * nr, range(nr), "rows", False),
                ("column_orthogonality", [1] * nr,
                 [table.centralizer_order(j) for j in range(k)],
                 [c.name for c in table.classes], "classes", True)):
            pair = _orthogonality_failure(split, weights, norms, transpose)
            checks.append(CheckResult(name, pair is None, "" if pair is None else
                                      "fails for %s %s and %s"
                                      % (what, labels[pair[0]], labels[pair[1]])))

    return CheckReport("table invariants", tuple(checks))


def _unit_generators(n: int) -> List[int]:
    """Generators of (Z/n)^x, per p^a || n: for odd p a primitive root g mod
    p, or g + p when g^(p-1) = 1 (mod p^2), which generates mod p^a; for p = 2,
    -1 (a >= 2) and 5 (a >= 3). Each is lifted by CRT to 1 mod n/p^a."""
    gens: List[int] = []
    for p in prime_factors(n):
        pa = gcd(n, p ** n.bit_length())  # p^a || n
        if p == 2:
            local = [-1, 5][:(pa >= 4) + (pa >= 8)]
        else:
            g = primitive_root(p)
            local = [g + p if pow(g, p - 1, p * p) == 1 else g]
        rest = n // pa
        gens += [1 + rest * ((g - 1) * pow(rest, -1, pa) % pa) for g in local]
    return gens


class _Split(NamedTuple):
    """The data of the modular orthogonality proof (`_split_prime`)."""

    dd: int                              # D^2
    e: int                               # the lcm of the value conductors
    primes: Tuple[Tuple[int, int], ...]  # (l, omega of order e in GF(l))
    scaled: List[Dict[int, int]]         # D times each distinct value, at e
    keyed: List[Tuple[int, ...]]         # the rows, as indices into `scaled`
    stable: bool                         # rows distinct and Galois-stable


def _split_prime(table: CharacterTable) -> _Split:
    """The data of the orthogonality proof, which this docstring gives.

    e is the lcm of the value conductors and D of the value denominators.
    For a prime l = 1 (mod e), omega of order e in GF(l) and a unit k mod
    e, zeta_e -> omega^k maps Z[zeta_e] onto GF(l) and each D*v to its
    residue (omega^-k takes complex conjugates to it); as k runs over the
    units, the kernels are all the primes above l, as l splits completely.

    Proof. Let x be D^2 times a Gram entry's deviation from its target, in
    Z[zeta_e]. Every complex embedding has |tau(x)| <= B = sum_j w_j M_j^2
    + D^2 N_max, M_j the largest coefficient 1-norm of D*v in coordinate j,
    w_j its weight, N_max >= every target: the larger of the row bound
    (coordinates are classes, weights class sizes) and the column bound
    (coordinates are rows, weights 1), with N_max = |G|. Primes l_1 < l_2
    < ... are taken until their product P exceeds B, the first the least
    above B, or above half of `PRIME_TEST_BOUND` if B is not below it, so
    that each stays within the exact primality test (a huge e that leaves
    no prime there raises its ValueError). If x vanishes at every root of
    every l_i, it lies in P*Z[zeta_e], so |N(x)| >= P^phi(e) > B^phi(e)
    unless x = 0.

    Fewer roots suffice in two cases. (1) If d divides every exponent
    difference within one coordinate, x lies in Z[zeta_e^d] = Z[zeta_m],
    m = e/d, and the argument runs there over one k per unit mod m
    (`_units`). (2) If the rows are pairwise distinct and each generator k
    of (Z/e)^x (checked exactly, `Cyclotomic.galois`) maps the row set into
    itself, every sigma in Gal(Q(zeta_e)/Q) permutes the rows, a -> pi(a):
    for rows sigma(x_ab) = x_pi(a)pi(b), for columns sigma(x) = x. The
    residue of x at root k is that of sigma_k(x) at k = 1, so k = 1 alone
    is checked.
    """
    index: Dict[Cyclotomic, int] = {}
    keyed = [tuple(index.setdefault(v, len(index)) for v in row) for row in table.rows]
    values = list(index)
    e = lcm(*(v.conductor for v in values))
    row_set = set(keyed)
    stable = len(row_set) == len(keyed) and all(
        None not in image
        and all(tuple(map(image.__getitem__, key)) in row_set for key in keyed)
        for image in ([index.get(v.galois(k)) for v in values]
                      for k in _unit_generators(e)))
    embedded = [raw_embed(v, e) for v in values]
    d = lcm(*(c.denominator for terms in embedded for c in terms.values()))
    scaled = [{t: int(c * d) for t, c in terms.items()} for terms in embedded]
    l1 = [sum(map(abs, terms.values())) for terms in scaled]
    by_class = [max(l1[key[j]] for key in keyed) for j in range(table.n_classes)]
    by_row = [max(map(l1.__getitem__, key)) for key in keyed]
    bound = d * d * table.order + max(
        sum(c.size * m * m for c, m in zip(table.classes, by_class)),
        sum(m * m for m in by_row))
    primes = [prime_one_mod(e, min(bound, PRIME_TEST_BOUND // 2))]
    while prod(primes) <= bound:
        primes.append(prime_one_mod(e, primes[-1]))
    return _Split(d * d, e, tuple((ell, element_of_order(e, ell)) for ell in primes),
                  scaled, keyed, stable)


def _units(split: _Split, transpose: bool, vectors: Optional[int] = None) -> List[int]:
    """One unit k mod e over each unit mod m = e/d, where d is the gcd of e
    and every exponent difference within one coordinate of the rows (or,
    transposed, the columns), of the first `vectors` of them if given."""
    d = e = split.e
    rows = [key[:vectors] for key in split.keyed] if transpose else split.keyed[:vectors]
    for coord in (rows if transpose else zip(*rows)):
        exps = [t for i in set(coord) for t in split.scaled[i]]
        d = gcd(d, *(t - exps[0] for t in exps))
    m = e // d
    return [next(k for k in range(u, e, m) if gcd(k, e) == 1)
            for u in range(m) if gcd(u, m) == 1]


def _residues(split: _Split, ell: int, omega: int, k: int):
    """The rows of D * values under zeta_e -> omega^k and under omega^-k."""
    w = pow(omega, k, ell)
    return [[[at[i] for i in key] for key in split.keyed]
            for at in ([sum(c * pow(x, t, ell) for t, c in terms.items()) % ell
                        for terms in split.scaled] for x in (w, pow(w, -1, ell)))]


def _orthogonality_failure(split: _Split, weights, norms, transpose: bool):
    """The least (a, b) whose weighted Gram entry of the rows (or,
    transposed, the columns) is not norms[a] delta_ab, or None; a proof by
    `_split_prime`. A failure at any root is a failure of the pair, and the
    least pair over every root is the least failing pair. So the least pair
    P failing at k = 1 bounds it: if P = (0, b), only the pairs (0, b'), b' <
    b, need the other roots, those `_units` finds over vectors 0..b-1."""
    def failures(units):
        for ell, omega in split.primes:
            for k in units:
                yield _gram_failure((ell, split.dd, *_residues(split, ell, omega, k)),
                                    weights, norms, transpose)

    first = min(filter(None, failures([1])), default=None)
    if first is None and split.stable or first == (0, 0):
        return first
    vectors = first[1] if first and first[0] == 0 else None
    return min(filter(None, failures(_units(split, transpose, vectors))), default=None)


def _gram_failure(root, weights, norms, transpose: bool):
    """The least (a, b) whose weighted Gram entry of the rows (or,
    transposed, the columns) at `root` = (l, D^2, at, inv) is not
    D^2 norms[a] delta_ab mod l, or None.

    Each Gram row is one big-integer sum: coordinate j of every vector b is
    packed into Y_j, b-th byte field first, and sum_j (x_j w_j mod l) * Y_j
    holds Gram entry (a, b) exactly in field b, as a field holds the largest
    entry, len(weights) * (l - 1)^2, and so never carries into the next.
    """
    ell, dd, at, inv = root
    if transpose:
        at, inv = list(zip(*at)), list(zip(*inv))
    width = (len(weights) * (ell - 1) ** 2).bit_length() // 8 + 1
    packed = [int.from_bytes(b"".join(v.to_bytes(width, "little") for v in coord),
                             "little") for coord in zip(*inv)]
    size = width * len(inv)
    for a, x in enumerate(at):
        row = sum(u * w % ell * y for u, w, y in zip(x, weights, packed))
        fields = row.to_bytes(size, "little")
        for b in range(len(inv)):
            entry = int.from_bytes(fields[b * width:(b + 1) * width], "little")
            if entry % ell != (dd * norms[a] % ell if a == b else 0):
                return a, b
    return None


# ---------------------------------------------------------------------------
# class rationality


def class_is_rational(table: CharacterTable, j: int) -> bool:
    """True iff every character value on class j is rational."""
    return all(v.is_rational() for v in table.column(j))
