"""Independent brute-force oracles used to cross-check the implementation.

Nothing here shares evaluation, satisfaction, enumeration, or
canonicalization code with the package; only the AST / algebra data types
are reused.  Two enumeration strengths:

* ``literal_models``  -- materializes every table bundle and filters it
  whole (practical for n <= 2);
* ``staged_models``   -- same filtering, vectorized with numpy one
  operation at a time (practical at n = 3 when survivor counts are small).
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from eqbench.axioms import AxiomSystem, system_ops
from eqbench.models import FiniteAlgebra
from eqbench.structure import OpReport
from eqbench.terms import App, Equation, OP_ORDER, Term, Var, variables_of_equation


def all_tables(n: int):
    """Every n x n table over {0..n-1} as tuples, in lexicographic order."""
    cells = n * n
    for flat in itertools.product(range(n), repeat=cells):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))


def o_eval(t: Term, tables: dict, env: dict) -> int:
    if isinstance(t, Var):
        return env[t.name]
    return tables[t.op][o_eval(t.left, tables, env)][o_eval(t.right, tables, env)]


def o_satisfies(tables: dict, eq: Equation, n: int, fixed: dict) -> bool:
    free = [x for x in variables_of_equation(eq) if x not in fixed]
    for values in itertools.product(range(n), repeat=len(free)):
        env = dict(zip(free, values))
        env.update(fixed)
        if o_eval(eq.lhs, tables, env) != o_eval(eq.rhs, tables, env):
            return False
    return True


def _op_list(sys: AxiomSystem, ops=None):
    wanted = frozenset(ops) if ops is not None else system_ops(sys)
    return [op for op in OP_ORDER if op in wanted]


def literal_models(sys: AxiomSystem, n: int, ops=None):
    """Filter-everything enumeration: every bundle of complete tables (and
    every constant valuation) is materialized and tested."""
    ops = _op_list(sys, ops)
    names = sorted(sys.constants)
    out = []
    for combo in itertools.product(all_tables(n), repeat=len(ops)):
        tables = dict(zip(ops, combo))
        for cvals in itertools.product(range(n), repeat=len(names)):
            fixed = dict(zip(names, cvals))
            if all(o_satisfies(tables, eq, n, fixed) for eq in sys.equations):
                out.append(FiniteAlgebra(
                    n,
                    tuple((op, tables[op]) for op in ops),
                    tuple(sorted(fixed.items())),
                ))
    return out


# ---------------------------------------------------------------------------
# vectorized variant for n = 3

def np_all_tables(n: int) -> np.ndarray:
    count = n ** (n * n)
    digits = np.zeros((count, n * n), dtype=np.int8)
    vals = np.arange(count)
    for pos in range(n * n - 1, -1, -1):
        digits[:, pos] = vals % n
        vals //= n
    return digits.reshape(count, n, n)


def _eval_vec(t: Term, fixed: dict, axis_op, axis_tables, assigns: dict):
    """Evaluate over every variable assignment (last axis) and, when the
    term reads the operation under test, over every candidate table
    (first axis)."""
    if isinstance(t, Var):
        return assigns[t.name]
    left = _eval_vec(t.left, fixed, axis_op, axis_tables, assigns)
    right = _eval_vec(t.right, fixed, axis_op, axis_tables, assigns)
    left, right = np.broadcast_arrays(left, right)
    if t.op is axis_op:
        m = axis_tables.shape[0]
        if left.ndim == 1:
            left = np.broadcast_to(left, (m,) + left.shape)
            right = np.broadcast_to(right, (m,) + right.shape)
        rows = np.arange(m).reshape(m, 1)
        return axis_tables[rows, left, right]
    return fixed[t.op][left, right]


def _vec_mask(eq: Equation, fixed: dict, axis_op, axis_tables, n: int) -> np.ndarray:
    free = list(variables_of_equation(eq))
    grids = np.indices((n,) * len(free)).reshape(len(free), -1)
    assigns = {v: grids[i] for i, v in enumerate(free)}
    lhs = _eval_vec(eq.lhs, fixed, axis_op, axis_tables, assigns)
    rhs = _eval_vec(eq.rhs, fixed, axis_op, axis_tables, assigns)
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    eqmask = lhs == rhs
    if eqmask.ndim == 1:
        full = bool(eqmask.all())
        return np.full(axis_tables.shape[0], full, dtype=bool)
    return eqmask.all(axis=1)


def staged_models(sys: AxiomSystem, n: int, ops=None):
    """Same filtering as literal_models, op by op: a table survives a stage
    iff every axiom whose operations are all materialized holds on it.
    Constant-mentioning axioms are checked in the final constants loop.

    Equations whose two sides read disjoint operation sets (one side only
    already-fixed operations, the other only the operation under test) are
    filtered by an exact-match join on the fully evaluated side vectors;
    this changes nothing about WHAT survives, only how the equality of the
    two evaluated sides is looked up."""
    ops = _op_list(sys, ops)
    names = sorted(sys.constants)
    tables_np = np_all_tables(n)
    tables_py = [tuple(tuple(int(x) for x in row) for row in tbl) for tbl in tables_np]
    count = tables_np.shape[0]
    const_eqs = [
        eq for eq in sys.equations
        if any(x in sys.constants for x in variables_of_equation(eq))
    ]
    plain_eqs = [eq for eq in sys.equations if eq not in const_eqs]
    out = []

    for eq in plain_eqs:
        if not _eq_ops(eq) <= set(ops):
            raise ValueError(f"equation {eq} mentions an operation outside {ops}")
    # pure-variable equations never reach a stage below
    for eq in plain_eqs:
        if not _eq_ops(eq) and not o_satisfies({}, eq, n, {}):
            return []

    def assign_grids(eq):
        free = list(variables_of_equation(eq))
        grids = np.indices((n,) * len(free)).reshape(len(free), -1)
        return {v: grids[i] for i, v in enumerate(free)}

    # per-stage, prefix-independent preparation
    stages = []
    for k, op in enumerate(ops):
        done = set(ops[:k + 1])
        due = [eq for eq in plain_eqs
               if op in _eq_ops(eq) and _eq_ops(eq) <= done]
        base_mask = np.ones(count, dtype=bool)
        joins = []   # (prefix side, assignment grids, axis-side lookup)
        masked = []  # fallback: per-prefix vectorized re-evaluation
        for eq in due:
            if _eq_ops(eq) <= {op}:
                base_mask &= _vec_mask(eq, {}, op, tables_np, n)
                continue
            grids = assign_grids(eq)
            npoints = next(iter(grids.values())).shape[0]
            placed = False
            for prefix_side, axis_side in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                if (_eq_ops_term(prefix_side) <= done - {op}
                        and _eq_ops_term(axis_side) <= {op}):
                    vec = _eval_vec(axis_side, {}, op, tables_np, grids)
                    vec = np.ascontiguousarray(
                        np.broadcast_to(vec, (count, npoints)), dtype=np.int8)
                    lookup = {}
                    for i in range(count):
                        lookup.setdefault(vec[i].tobytes(), []).append(i)
                    lookup = {key: np.array(ix) for key, ix in lookup.items()}
                    joins.append((prefix_side, grids, npoints, lookup))
                    placed = True
                    break
            if not placed:
                masked.append(eq)
        stages.append((op, base_mask, bool(base_mask.all()), joins, masked))

    def survivors(op, base_mask, unconstrained, joins, masked, fixed_np):
        idx = None if unconstrained else np.nonzero(base_mask)[0]
        for side, grids, npoints, lookup in joins:
            vec = _eval_vec(side, fixed_np, None, None, grids)
            vec = np.broadcast_to(np.asarray(vec, dtype=np.int8), (npoints,))
            hits = lookup.get(vec.tobytes())
            if hits is None:
                return np.empty(0, dtype=int)
            idx = hits if idx is None else np.intersect1d(idx, hits)
            if not idx.size:
                return idx
        if idx is None:
            idx = np.nonzero(base_mask)[0]
        if masked and idx.size:
            keep = np.ones(count, dtype=bool)
            for eq in masked:
                keep &= _vec_mask(eq, fixed_np, op, tables_np, n)
            idx = idx[keep[idx]]
        return idx

    def finish(fixed_py: dict):
        for cvals in itertools.product(range(n), repeat=len(names)):
            env_fixed = dict(zip(names, cvals))
            if all(o_satisfies(fixed_py, eq, n, env_fixed) for eq in const_eqs):
                out.append(FiniteAlgebra(
                    n,
                    tuple((op, fixed_py[op]) for op in ops),
                    tuple(sorted(env_fixed.items())),
                ))

    def stage(k: int, fixed_np: dict, fixed_py: dict):
        if k == len(ops):
            finish(fixed_py)
            return
        op, base_mask, unconstrained, joins, masked = stages[k]
        for idx in survivors(op, base_mask, unconstrained, joins, masked, fixed_np):
            fixed_np[op] = tables_np[idx]
            fixed_py[op] = tables_py[idx]
            stage(k + 1, fixed_np, fixed_py)
            del fixed_np[op], fixed_py[op]

    stage(0, {}, {})
    return out


def _eq_ops_term(t: Term) -> set:
    ops = set()

    def walk(u):
        if isinstance(u, App):
            ops.add(u.op)
            walk(u.left)
            walk(u.right)

    walk(t)
    return ops


def _eq_ops(eq: Equation) -> set:
    return _eq_ops_term(eq.lhs) | _eq_ops_term(eq.rhs)


def oracle_models(sys: AxiomSystem, n: int, ops=None):
    return literal_models(sys, n, ops) if n <= 2 else staged_models(sys, n, ops)


# ---------------------------------------------------------------------------
# independent canonicalization / isomorphism

def apply_perm(alg: FiniteAlgebra, perm) -> FiniteAlgebra:
    n = alg.size
    inv = {perm[i]: i for i in range(n)}
    tables = tuple(
        (op, tuple(
            tuple(perm[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        ))
        for op, table in alg.tables
    )
    consts = tuple((name, perm[v]) for name, v in alg.constants)
    return FiniteAlgebra(n, tables, consts)


def algebra_tuple(alg: FiniteAlgebra) -> tuple:
    return (
        alg.size,
        tuple((op.value, table) for op, table in alg.tables),
        alg.constants,
    )


def oracle_canonical(alg: FiniteAlgebra) -> tuple:
    return min(
        algebra_tuple(apply_perm(alg, perm))
        for perm in itertools.permutations(range(alg.size))
    )


def are_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    if a.size != b.size or [op for op, _ in a.tables] != [op for op, _ in b.tables]:
        return False
    return any(
        algebra_tuple(apply_perm(a, perm)) == algebra_tuple(b)
        for perm in itertools.permutations(range(a.size))
    )


# ---------------------------------------------------------------------------
# text lines

def algebra_text(alg: FiniteAlgebra) -> str:
    """The text line of ``alg``, as ``enumerate`` and ``refute`` print it,
    built field by field with ``json``."""
    parts = [f"size={alg.size}"]
    for op, table in alg.tables:
        parts.append(f"{op.value}={json.dumps([list(r) for r in table], separators=(',', ':'))}")
    if alg.constants:
        parts.append("constants=" + ",".join(f"{k}={v}" for k, v in alg.constants))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# independent structure scanner

def scan_flags(table, n: int) -> dict:
    rng = range(n)
    flags = {
        "commutative": all(table[a][b] == table[b][a] for a in rng for b in rng),
        "associative": all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in rng for b in rng for c in rng
        ),
        "latin_square": all(sorted(row) == list(rng) for row in table)
        and all(sorted(table[i][j] for i in rng) == list(rng) for j in rng),
    }
    ids = [e for e in rng if all(table[a][e] == a == table[e][a] for a in rng)]
    flags["identity_elements"] = ids
    group = flags["associative"] and len(ids) == 1 and all(
        any(table[a][b] == ids[0] == table[b][a] for b in rng) for a in rng
    )
    flags["is_group"] = group
    flags["is_abelian_group"] = group and flags["commutative"]
    return flags


def reference_report(t, n: int) -> OpReport:
    """OpReport of table ``t`` by plain scans in lexicographic order."""
    rng = range(n)
    comm_w = next(((a, b) for a, b in itertools.product(rng, repeat=2)
                   if t[a][b] != t[b][a]), None)
    assoc_w = next(((a, b, c) for a, b, c in itertools.product(rng, repeat=3)
                    if t[t[a][b]][c] != t[a][t[b][c]]), None)
    latin_w = next(itertools.chain(
        (("row", i) for i in rng if sorted(t[i]) != list(rng)),
        (("col", j) for j in rng if sorted(t[i][j] for i in rng) != list(rng))), None)
    ids = tuple(e for e in rng if all(t[a][e] == a == t[e][a] for a in rng))
    if assoc_w is not None:
        group_r = f"not associative at {assoc_w}"
    elif not ids:
        group_r = "no identity element"
    else:
        group_r = next((f"no inverse for {a}" for a in rng
                        if not any(t[a][b] == ids[0] == t[b][a] for b in rng)), None)
    abelian_r = group_r
    if group_r is None and comm_w is not None:
        abelian_r = f"not commutative at {comm_w}"
    return OpReport(
        commutative=comm_w is None, commutative_witness=comm_w,
        associative=assoc_w is None, associative_witness=assoc_w,
        latin_square=latin_w is None, latin_square_witness=latin_w,
        identity_elements=ids,
        is_group=group_r is None, group_reason=group_r,
        is_abelian_group=abelian_r is None, abelian_group_reason=abelian_r,
    )


def reference_coincide(tables: dict, n: int) -> tuple:
    """(flag, witness) of the coincidence of the three tables: the first
    (a, b) where ab, a:b and b/a do not all agree."""
    p, l, r = (tables[op] for op in OP_ORDER)
    w = next(((a, b) for a, b in itertools.product(range(n), repeat=2)
              if not p[a][b] == l[a][b] == r[b][a]), None)
    return w is None, w
