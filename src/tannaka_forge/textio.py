"""Parsers and printers for the CLI text formats.

Ring literal        GR(p^n,f)            (GR(p,f) means n = 1)
Element literal     polynomial in x with coefficients in [0, p^n),
                    e.g.  3*x+3,  x^2+2*x+1,  7
Matrix literal      row-major bracketed lists:  [[1,x],[0,3*x+1]]
Module literal      mod(e1,e2,...) over GR(p^n,f)
Algebra line        alg R=GR(p^n,1) B=GR(p^n,f)

Diagram files:      alg line, then  object NAME rank R  lines, then
                    hom SRC DST = [MAT, MAT, ...]  lines.
Coalgebra files:    alg line, a coalgebra block, comodule blocks; the delta
                    and rho matrices are lifts into the plain R-tensor with
                    basis pairs ordered the way tensor_with_data orders them
                    (for free carriers: (i, j) lexicographic).
MF object specs:    M(k) terms joined by + into one object, objects
                    separated by commas, e.g.  M(0),M(1),M(0)+M(1); the
                    twist k is at most mf.MAX_TWIST.

Parse errors carry the 1-based line number.
"""

from __future__ import annotations

import re

from .rings import RingSpec, ring_make
from .linalg import Matrix
from .modules import FinModule, ModuleMap
from .algebra import (AlgebraSpec, BModule, BBBimodule, tensor_bimodules,
                      tensor_bim_bmodule)
from .coalgebra import Coalgebra, Comodule, coalgebra_check, comodule_check
from .tannaka import DiagObject, DiagramCategory, check_t_rank
from .mf import tate_object, mf_direct_sum, MAX_TWIST


class ParseError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__("line %s: %s" % (line, msg) if line else msg)


_RING_RE = re.compile(r"^GR\(\s*(\d+)(?:\^(\d+))?\s*,\s*(\d+)\s*\)$")


def parse_ring(text: str, line: int | None = None) -> RingSpec:
    m = _RING_RE.match(text.strip())
    if not m:
        raise ParseError("bad ring literal %r" % text, line)
    p = int(m.group(1))
    n = int(m.group(2) or 1)
    f = int(m.group(3))
    try:
        return ring_make(p, n, f)
    except ValueError as e:
        raise ParseError(str(e), line) from e


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(x)(?:\^(\d+))?$|^(\d+)$")


def parse_elem(text: str, R: RingSpec, line: int | None = None) -> int:
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty element literal", line)
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs = [0] * R.f
    for term in s.split("+"):
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError("bad term %r in element literal %r" % (term, text), line)
        if m.group(4) is not None:
            c, k = int(m.group(4)), 0
        else:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(3)) if m.group(3) else 1
        if k >= R.f:
            raise ParseError("degree %d exceeds f-1 in %r" % (k, text), line)
        coeffs[k] = (coeffs[k] + (-c if neg else c)) % R.q
    return R.from_coeffs(coeffs)


def _split_top(s: str, line=None) -> list[str]:
    """Split on top-level commas of a bracketed list body."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets in %r" % s, line)
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or out:
        out.append("".join(cur))
    return out


def parse_matrix(text: str, R: RingSpec, line: int | None = None) -> Matrix:
    s = text.strip().replace(" ", "")
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("matrix literal must be bracketed: %r" % text, line)
    body = s[1:-1]
    if not body:
        return Matrix.zeros(R, 0, 0)
    rows = []
    ncols = None
    for rtxt in _split_top(body, line):
        rtxt = rtxt.strip()
        if not (rtxt.startswith("[") and rtxt.endswith("]")):
            raise ParseError("matrix row must be bracketed: %r" % rtxt, line)
        inner = rtxt[1:-1]
        entries = [] if not inner else [parse_elem(e, R, line)
                                        for e in _split_top(inner, line)]
        if ncols is None:
            ncols = len(entries)
        elif len(entries) != ncols:
            raise ParseError("ragged matrix literal", line)
        rows.append(entries)
    return Matrix(R, rows, len(rows), ncols or 0)


def format_matrix(M: Matrix) -> str:
    fmt = M.ring.format_elem
    return "[" + ",".join("[" + ",".join(fmt(a) for a in row) + "]"
                          for row in M.data) + "]"


_MOD_RE = re.compile(r"^mod\(([\d,\s]*)\)\s+over\s+(.*)$")


def parse_module(text: str, line: int | None = None,
                 ring: RingSpec | None = None) -> FinModule:
    s = text.strip()
    m = _MOD_RE.match(s)
    if m:
        ring = parse_ring(m.group(2), line)
        exps_txt = m.group(1).strip()
    elif s.startswith("mod(") and s.endswith(")") and ring is not None:
        exps_txt = s[4:-1]
    else:
        raise ParseError("bad module literal %r" % text, line)
    exps = [int(e) for e in exps_txt.split(",") if e.strip()] if exps_txt else []
    try:
        return FinModule(ring, tuple(sorted(exps, reverse=True)))
    except ValueError as e:
        raise ParseError(str(e), line) from e


_ALG_RE = re.compile(r"^alg\s+R\s*=\s*(\S+)\s+B\s*=\s*(\S+)\s*$")


def parse_algebra(text: str, line: int | None = None) -> AlgebraSpec:
    m = _ALG_RE.match(text.strip())
    if not m:
        raise ParseError("bad algebra line %r" % text, line)
    R = parse_ring(m.group(1), line)
    B = parse_ring(m.group(2), line)
    try:
        return AlgebraSpec(R, B)
    except ValueError as e:
        raise ParseError(str(e), line) from e


def _logical_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if s:
            yield i, s


def parse_diagram(text: str) -> DiagramCategory:
    alg = None
    objects: list[DiagObject] = []
    names: dict[str, int] = {}
    homs: dict[tuple[int, int], list[Matrix]] = {}
    for ln, s in _logical_lines(text):
        if s.startswith("alg "):
            alg = parse_algebra(s, ln)
        elif s.startswith("object "):
            m = re.match(r"^object\s+(\S+)\s+rank\s+(\d+)$", s)
            if not m:
                raise ParseError("bad object line", ln)
            if m.group(1) in names:
                raise ParseError("duplicate object %s" % m.group(1), ln)
            names[m.group(1)] = len(objects)
            objects.append(DiagObject(m.group(1), int(m.group(2))))
        elif s.startswith("hom "):
            if alg is None:
                raise ParseError("hom before alg line", ln)
            m = re.match(r"^hom\s+(\S+)\s+(\S+)\s*=\s*(\[.*\])$", s)
            if not m:
                raise ParseError("bad hom line", ln)
            src, dst = m.group(1), m.group(2)
            if src not in names or dst not in names:
                raise ParseError("unknown object in hom line", ln)
            body = m.group(3).strip()[1:-1]
            mats = [parse_matrix(t, alg.B, ln) for t in _split_top(body, ln)] \
                if body.strip() else []
            homs.setdefault((names[src], names[dst]), []).extend(mats)
        else:
            raise ParseError("unrecognized line %r" % s, ln)
    if alg is None:
        raise ParseError("missing alg line")
    try:
        return DiagramCategory(alg, objects, homs)
    except ValueError as e:
        raise ParseError(str(e)) from e


def format_diagram(D: DiagramCategory) -> str:
    out = [D.alg.literal()]
    for obj in D.objects:
        out.append("object %s rank %d" % (obj.name, obj.rank))
    for (k, l), mats in sorted(D.homs.items()):
        if mats:
            out.append("hom %s %s = [%s]" % (D.objects[k].name, D.objects[l].name,
                                             ",".join(format_matrix(M) for M in mats)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# coalgebra / comodule blocks (for the reconstruct command)
# ---------------------------------------------------------------------------

def parse_reconstruct_input(text: str):
    """(Coalgebra, [Comodule]) from an alg line, a coalgebra block and one
    or more comodule blocks."""
    alg = None
    blocks = []
    cur = None
    for ln, raw in _logical_lines(text):
        pieces = [t.strip() for t in
                  raw.replace("{", "{;").replace("}", ";};").split(";")
                  if t.strip()]
        for s in pieces:
            if s.startswith("alg "):
                alg = parse_algebra(s, ln)
            elif re.match(r"^coalgebra\s*\{$", s):
                cur = {"kind": "coalgebra", "line": ln}
            elif re.match(r"^comodule\s+(\S+)\s*\{$", s):
                cur = {"kind": "comodule", "line": ln,
                       "name": re.match(r"^comodule\s+(\S+)\s*\{$", s).group(1)}
            elif s == "}":
                if cur is None:
                    raise ParseError("unmatched closing brace", ln)
                blocks.append(cur)
                cur = None
            elif cur is not None:
                m = re.match(r"^(\w+)\s*=\s*(.*)$", s)
                if not m:
                    raise ParseError("bad block line", ln)
                cur[m.group(1)] = (m.group(2), ln)
            else:
                raise ParseError("unrecognized line %r" % s, ln)
    if alg is None:
        raise ParseError("missing alg line")
    co = [b for b in blocks if b["kind"] == "coalgebra"]
    if len(co) != 1:
        raise ParseError("need exactly one coalgebra block")
    co = co[0]

    def get(block, key):
        if key not in block:
            raise ParseError("block is missing %r" % key, block["line"])
        return block[key]

    def mk_module(txt, ln):
        return parse_module(txt, ln, ring=alg.R)

    car_txt, ln0 = get(co, "carrier")
    carrier = mk_module(car_txt, ln0)
    left = ModuleMap(carrier, carrier, parse_matrix(get(co, "left")[0], alg.R, ln0))
    right = ModuleMap(carrier, carrier, parse_matrix(get(co, "right")[0], alg.R, ln0))
    bi = BBBimodule(alg, carrier, left, right)
    cc = tensor_bimodules(alg, bi, bi)
    dl = parse_matrix(get(co, "delta")[0], alg.R, ln0)
    if dl.rows != cc.TR.module.rank:
        raise ParseError("delta lift has %d rows, tensor square has rank %d"
                         % (dl.rows, cc.TR.module.rank), ln0)
    delta = ModuleMap(carrier, cc.module, cc.project(dl.sparse_cols()))
    counit = ModuleMap(carrier, FinModule.free(alg.R, alg.fb),
                       parse_matrix(get(co, "counit")[0], alg.R, ln0))
    C = coalgebra_check(cc, delta, counit)
    family = []
    for b in blocks:
        if b["kind"] != "comodule":
            continue
        ln = b["line"]
        mcar = mk_module(get(b, "carrier")[0], ln)
        act = ModuleMap(mcar, mcar, parse_matrix(get(b, "action")[0], alg.R, ln))
        mod = BModule(alg, mcar, act)
        cm = tensor_bim_bmodule(alg, C.bi, mod)
        rl = parse_matrix(get(b, "rho")[0], alg.R, ln)
        if rl.rows != cm.TR.module.rank:
            raise ParseError("rho lift has %d rows, tensor has rank %d"
                             % (rl.rows, cm.TR.module.rank), ln)
        rho = ModuleMap(mcar, cm.module, cm.project(rl.sparse_cols()))
        family.append(comodule_check(C, cm, rho))
    if not family:
        raise ParseError("no comodule blocks")
    return C, family


def format_reconstruct_input(C: Coalgebra, family: list[Comodule]) -> str:
    """Serialize a coalgebra and comodule family in the block format
    parse_reconstruct_input reads; round-tripping re-runs all axiom checks."""
    alg = C.alg
    out = [alg.literal(), "coalgebra {"]
    out.append("  carrier = mod(%s)" % ",".join(map(str, C.carrier.exps)))
    out.append("  left = %s" % format_matrix(C.bi.left.mat))
    out.append("  right = %s" % format_matrix(C.bi.right.mat))
    out.append("  delta = %s" % format_matrix(
        Matrix.from_sparse(alg.R, C.deltahat_cols, C.cc.TR.module.rank)))
    out.append("  counit = %s" % format_matrix(C.counit.mat))
    out.append("}")
    for i, Mc in enumerate(family):
        out.append("comodule M%d {" % i)
        out.append("  carrier = mod(%s)" % ",".join(map(str, Mc.carrier.exps)))
        out.append("  action = %s" % format_matrix(Mc.module.act.mat))
        out.append("  rho = %s" % format_matrix(
            Matrix.from_sparse(alg.R, Mc.rhohat_cols, Mc.cm.TR.module.rank)))
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# MF object specs
# ---------------------------------------------------------------------------

def parse_mf_objects_spec(spec: str, W: RingSpec):
    """Object list like  M(0),M(1),M(0)+M(1)  built from Tate objects and
    direct sums.  Every term is parsed, and a spec whose twists or diagram
    are too large is refused, before any object is built."""
    parts = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        twists = []
        for t in part.split("+"):
            t = t.strip()
            m = re.match(r"^M\((\d+)\)$", t)
            if not m:
                raise ParseError("bad MF object term %r" % t)
            k = int(m.group(1))
            if k > MAX_TWIST:
                raise ParseError("twist %d is above MAX_TWIST = %d" % (k, MAX_TWIST))
            twists.append(k)
        parts.append(twists)
    if not parts:
        raise ParseError("empty MF object spec")
    # each object is free over B = W of rank its number of summands
    check_t_rank([len(twists) for twists in parts], W.f)
    out = []
    for twists in parts:
        obj = None
        for k in twists:
            x = tate_object(W, k)
            obj = x if obj is None else mf_direct_sum(obj, x)
        out.append(obj)
    return out
