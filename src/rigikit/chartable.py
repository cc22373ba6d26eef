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
orthogonality by the residues of the values modulo primes l = 1 (mod e), e
the lcm of the value conductors: each check is one Gram product mod l, its
rows read one at a time off `modp.mat_rows`, per root zeta_e -> omega^k,
omega of order e in GF(l). Vanishing at every root of primes whose product
exceeds a norm bound proves a Gram identity exactly. For pairwise
distinct, Galois-stable rows, as in every character table, the root k = 1
suffices; any other table, and any table whose residues show a failure, is
checked at every root, which also names the least failing pair.
`_split_prime` gives the proof. (Reducing cyclotomic integers modulo a
split prime: Breuer, "Integral bases for subfields of cyclotomic fields",
AAECC 8 (1997).)

CTB input is read in one pass (`parse_ctb`) on `modp.read_lines`: the
class lines straight into records, then each distinct value string once.
"""

from __future__ import annotations

from collections import deque
from math import gcd, lcm, prod
from operator import itemgetter, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cyclo import Cyclotomic, cyc, format_value, parse_value, raw_embed, value_terms
# unused here, but the benchmark's tracer wraps them in this module
from .cyclo import raw_conjugate, raw_equals_rational, raw_mul  # noqa: F401
from .modp import (PRIME_TEST_BOUND, InputSyntaxError as CTBSyntaxError, element_of_order,
                   mat_rows, prime_factors, prime_one_mod, primitive_root, read_int, read_lines)


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
    individualized in turn and refined again, and the layout is the first
    leaf with the least certificate: its rows' value ids in leaf order, row
    by row, then each class's power classes as leaf positions. A leaf equal
    to the least one gives a table automorphism; a child in the orbit of an
    explored sibling under those fixing the path is skipped, as its subtree
    gives the same certificates. Refinement is driven by a splitter queue
    (`_refine`) with Hopcroft's rule of queueing every piece of a split cell
    but the largest (Hopcroft, "An n log n algorithm for minimizing states in
    a finite automaton", 1971): the root queues every cell and a child only
    its individualized class, so a node re-signs only against the cells that
    changed.

    No certificate is materialized: a leaf is kept as its (class order, row
    order), and a new leaf is compared with the least one only, in one
    lockstep pass over their rows. Nothing k x k outlives the call.
    """
    search = _Search(ids, power_maps)
    classes, rows = _Cells(class_keys), _Cells(row_keys)
    search.node(classes, rows, [(0, s) for s in sorted(classes.end)]
                + [(1, s) for s in sorted(rows.end)], [])
    return search.best


class _Search:
    """The search tree of one `canonical_layout` call. Its nodes recurse
    through the instance, not through a closure that refers to itself, so
    the id columns are freed when the call returns."""

    def __init__(self, ids, power_maps):
        self.ids, self.power_maps = ids, power_maps
        self.cols = list(zip(*ids))
        self.preimages: List[List[Tuple[int, int]]] = [[] for _ in power_maps]
        for i, pm in enumerate(power_maps):
            for p, j in pm:
                self.preimages[j].append((p, i))
        self.automorphisms: List[Dict[int, int]] = []
        self.best: Optional[Tuple[List[int], List[int]]] = None

    def node(self, classes: _Cells, rows: _Cells, queue, path: List[int]) -> None:
        _refine(classes, rows, queue, self.ids, self.cols, self.preimages)
        if not classes.tied:
            # rows left tied at a leaf are identical, so their order is moot
            self.leaf(classes.points, rows.points)
            return
        s = min(classes.tied)
        explored: List[int] = []
        for v in classes.points[s:classes.end[s]]:
            fixing = [g for g in self.automorphisms if all(g[x] == x for x in path)]
            if v not in _orbit(explored, fixing):
                child = classes.copy()
                child.split(s, [x != v for x in child.points[s:child.end[s]]])
                self.node(child, rows.copy(), [(0, s)], path + [v])
                explored.append(v)

    def leaf(self, class_order: List[int], row_order: List[int]) -> None:
        """Compare the leaf with the least one, row by row up to the first
        row that differs, then by power maps: an equal leaf records an
        automorphism, a lesser one becomes the least."""
        best = self.best
        if best is not None:
            get, least, ids = itemgetter(*class_order), itemgetter(*best[0]), self.ids
            for r, b in zip(row_order, best[1]):
                mine, other = get(ids[r]), least(ids[b])
                if mine != other:
                    break
            else:
                mine, other = self._powers(class_order), self._powers(best[0])
                if mine == other:
                    self.automorphisms.append(dict(zip(best[0], class_order)))
            if not mine < other:
                return
        self.best = (class_order, row_order)

    def _powers(self, class_order: List[int]) -> tuple:
        """Each class's power classes as positions in `class_order`."""
        position = {i: new for new, i in enumerate(class_order)}
        return tuple(tuple((p, position[j]) for p, j in self.power_maps[i])
                     for i in class_order)


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
    ids: List[List[int]],
    values: Sequence[Cyclotomic],
) -> Tuple[CharacterTable, List[int], List[int]]:
    """Assemble a canonical table, also returning the layout permutations
    (class_order[new] = old index, row_order[new] = old index).

    `class_infos` holds (size, element_order, {prime: class index}) in any
    order; `ids[r][i]` indexes in `values` the value of row r at class i,
    classes indexed as `class_infos`, and `values` may repeat a value.
    Exactly one class, the identity, has element order 1 and size 1; each
    row's degree is read there. Classes and rows are permuted to the
    canonical layout and classes are named `<order><letter>`.

    `ids` must be a list of lists: its rows are renumbered in place, to
    the distinct values' order, so that the build holds no second id
    matrix; the caller's rows hold those numbers afterwards.
    """
    distinct = sorted(set(values), key=Cyclotomic.sort_key)
    value_id = {v: i for i, v in enumerate(distinct)}
    renumber = [value_id[v] for v in values]
    for row in ids:
        row[:] = map(renumber.__getitem__, row)
    class_keys = [(co, cs) for (cs, co, _pm) in class_infos]
    identities = [i for i, key in enumerate(class_keys) if key == (1, 1)]
    if len(identities) != 1:
        raise ValueError("expected exactly one class of element order 1 and "
                         "size 1, found %d" % len(identities))
    ident = identities[0]
    one = value_id.get(cyc(1))
    row_keys = [(0 if all(x == one for x in row_ids) else 1,
                 distinct[row_ids[ident]].to_integer()) for row_ids in ids]
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
        tuple(map(distinct.__getitem__, map(ids[r].__getitem__, class_order)))
        for r in row_order
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
    lines.append("")  # the final newline, without a copy of the whole text
    return "\n".join(lines)


def parse_ctb(text) -> CharacterTable:
    """Parse CTB v1 text (str, or bytes that must be ASCII) in one pass.
    Structural checks only; run `validate` for the orthogonality suite.
    Each distinct value string is read once, its roots checked against
    the exponent's field before `parse_value` builds it."""
    content, n_lines = read_lines(text)
    end = n_lines, None

    ln, line = next(content, end)
    if line is None or line.split() != ["CTB", "1"]:
        raise CTBSyntaxError("expected header 'CTB 1'", ln)

    header: Dict[str, object] = {}
    for key in ("name", "order", "exponent", "classes"):
        ln, line = next(content, end)
        if line is None or not line.startswith(key + " "):
            raise CTBSyntaxError("expected '%s <value>' line" % key, ln)
        header[key] = line[len(key) + 1:].strip()
        if key == "name":
            continue
        try:
            header[key] = read_int(header[key])
        except ValueError as exc:
            raise CTBSyntaxError("bad integer in header: %s" % exc, ln) from None
        if header[key] < 1:
            raise CTBSyntaxError("header integers must be positive", ln)
    order, exponent, n_classes = header["order"], header["exponent"], header["classes"]

    # name -> (record with power-map target names, line)
    classes: Dict[str, Tuple[ClassRecord, int]] = {}
    for _ in range(n_classes):
        ln, line = next(content, end)
        if line is None or not line.startswith("class "):
            raise CTBSyntaxError(
                "expected %d class lines, got %d" % (n_classes, len(classes)), ln)
        _, cname, *fields = line.split()
        if cname in classes:
            raise CTBSyntaxError("duplicate class name %r" % cname, ln)
        attrs: Dict[object, object] = {}
        for f in fields:
            if "=" not in f:
                raise CTBSyntaxError("bad class attribute %r" % f, ln)
            key, _, val = f.partition("=")
            if key in ("size", "order"):
                attr, val = key, _parse_pos_int(val, key, ln)
            elif key.startswith("pow"):
                attr = _parse_pos_int(key[3:], "power-map prime", ln)
            else:
                raise CTBSyntaxError("unknown class attribute %r" % key, ln)
            if attr in attrs:
                raise CTBSyntaxError("repeated class attribute %r" % key, ln)
            attrs[attr] = val
        size, corder = attrs.pop("size", None), attrs.pop("order", None)
        if size is None or corder is None:
            raise CTBSyntaxError("class %s needs size= and order=" % cname, ln)
        classes[cname] = ClassRecord(cname, size, corder, tuple(attrs.items())), ln

    index = {cname: i for i, cname in enumerate(classes)}
    records = []
    for rec, ln in classes.values():
        for p, target in rec.power_maps:
            if target not in index:
                raise CTBSyntaxError(
                    "unknown class name %r in power map of %s" % (target, rec.name), ln)
        records.append(rec._replace(power_maps=tuple(sorted(
            (p, index[target]) for p, target in rec.power_maps))))

    # every value of a character lies in Q(zeta_exponent), which also holds
    # the roots E(2m, k) for odd m | exponent; any other root is rejected
    # before the arithmetic at its order begins
    root_bound = lcm(2, exponent)
    parsed: Dict[str, Cyclotomic] = {}  # a table repeats few distinct values
    rows: List[Tuple[Cyclotomic, ...]] = []
    for ln, line in content:
        if not line.startswith("char "):
            raise CTBSyntaxError("expected 'char' line, got %r" % line[:20], ln)
        parts = line[5:].split(None, 1)
        if len(parts) != 2:
            raise CTBSyntaxError("char line needs a name and values", ln)
        cname, values_text = parts
        keys = [p.strip() for p in values_text.split(";")]
        if len(keys) != n_classes:
            raise CTBSyntaxError(
                "char %s has %d values, expected %d" % (cname, len(keys), n_classes), ln)
        for key in keys:
            if key in parsed:
                continue
            try:
                outside = [n for _, n, _ in value_terms(key) if root_bound % n]
                if not outside:
                    parsed[key] = parse_value(key)
            except ValueError as exc:
                raise CTBSyntaxError("bad value in char %s: %s" % (cname, exc), ln) from None
            if outside:
                raise CTBSyntaxError(
                    "E(%d,k) in char %s: %d does not divide lcm(2, exponent) = %d"
                    % (outside[0], cname, outside[0], root_bound), ln)
        rows.append(tuple(map(parsed.__getitem__, keys)))
    if not rows:
        raise CTBSyntaxError("table has no character rows", n_lines)
    return CharacterTable(header["name"], order, exponent, tuple(records), tuple(rows))


def _parse_pos_int(text: str, what: str, line: int) -> int:
    try:
        v = read_int(text)
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


class CheckRun(NamedTuple):
    """Identities named `prefix + suffix`, one per suffix, of which only the
    failures are stored, by position; a suffix tuple may be shared by many
    runs."""

    prefix: str
    suffixes: Sequence[str]
    failures: Dict[int, str]  # position -> detail


def _as_run(check) -> CheckRun:
    """A run as given, a lone CheckResult as a run of one."""
    if isinstance(check, CheckRun):
        return check
    return CheckRun(check.name, ("",), {} if check.ok else {0: check.detail})


def _result(run: CheckRun, pos: int) -> CheckResult:
    detail = run.failures.get(pos)
    return CheckResult(run.prefix + run.suffixes[pos], detail is None, detail or "")


class _Items:
    """A report's runs viewed as its identities: counted, and iterated one
    `CheckResult` at a time."""

    __slots__ = ("runs", "count")

    def __init__(self, runs: List[CheckRun]):
        self.runs = runs
        self.count = sum(len(r.suffixes) for r in runs)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for run in self.runs:
            for pos in range(len(run.suffixes)):
                yield _result(run, pos)


class CheckReport:
    """Named check results; a failed check is an item, not an error.

    `checks` are `CheckRun`s and lone `CheckResult`s, in report order;
    `items` views them as one `CheckResult` per identity, and only failures
    are stored. A plain class, not a NamedTuple: the benchmark's tracer
    tells the (report, Green functions) pair of
    `dl_rank1.theta_independence` from a report by `isinstance(result,
    tuple)`."""

    __slots__ = ("title", "items")

    def __init__(self, title: str, checks: Sequence):
        self.title = title
        self.items = _Items([_as_run(c) for c in checks])

    @property
    def ok(self) -> bool:
        return not any(run.failures for run in self.items.runs)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(_result(run, pos) for run in self.items.runs
                     for pos in sorted(run.failures))

    def machine_block(self):
        """The `name = pass` and `name = FAIL: detail` lines, one at a time."""
        for run in self.items.runs:
            failures = run.failures
            for pos, suffix in enumerate(run.suffixes):
                detail = failures.get(pos)
                yield "%s%s = %s" % (run.prefix, suffix,
                                     "pass" if detail is None else "FAIL: " + detail)

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

    A square table whose rows pass needs no column Gram product. Let X be
    its k x k value matrix and D = diag(|C_j|). Row orthogonality says
    X D X* = |G| I, so X is invertible and D X* = |G| X^-1, whence
    X* X = |G| D^-1: column orthogonality with the centralizer orders
    |G| / |C_j| as norms. This holds when every |C_j| divides |G|, so that
    those are the norms the column check asks for. Any other table, or one
    whose rows fail, runs the column check.
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
        missing += ["%s:pow%d (%d is not a prime dividing the exponent)" % (c.name, p, p)
                    for p in pm if p not in exp_primes]
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
        sizes = [c.size for c in table.classes]
        centralizers = [table.centralizer_order(j) for j in range(k)]
        row_pair = _orthogonality_failure(split, sizes, [table.order] * nr, False)
        # a square table whose rows pass has columns that pass (docstring)
        derived = row_pair is None and nr == k and all(
            c * s == table.order for c, s in zip(centralizers, sizes))
        col_pair = None if derived else _orthogonality_failure(
            split, [1] * nr, centralizers, True)
        for name, pair, labels, what in (
                ("row_orthogonality", row_pair, range(nr), "rows"),
                ("column_orthogonality", col_pair, [c.name for c in table.classes], "classes")):
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
    D^2 norms[a] delta_ab mod l, or None. Gram row a is row a of
    (at * diag(weights)) * inv^T, one packed product (`modp.mat_rows`)."""
    ell, dd, at, inv = root
    if transpose:
        at, inv = list(zip(*at)), list(zip(*inv))
    for a, row in enumerate(mat_rows((map(mul, x, weights) for x in at), inv, ell)):
        for b, entry in enumerate(row):
            if entry != (dd * norms[a] % ell if a == b else 0):
                return a, b
    return None


# ---------------------------------------------------------------------------
# class rationality


def class_is_rational(table: CharacterTable, j: int) -> bool:
    """True iff every character value on class j is rational."""
    return all(v.is_rational() for v in table.column(j))
