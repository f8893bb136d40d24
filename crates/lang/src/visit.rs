//! Traversal utilities: enumerate statements with stable [`StmtPath`]s,
//! look them up, and mutate programs by path. These are the primitives the
//! repair agents use to apply edits at diagnostic locations.

use crate::ast::{Block, Expr, Program, Stmt, StmtPath};

/// Returns the child block of a statement selected by `branch`
/// (0 = then/body/inner block, 1 = else).
#[must_use]
pub fn child_block(stmt: &Stmt, branch: u8) -> Option<&Block> {
    match (stmt, branch) {
        (Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b), 0) => Some(b),
        (Stmt::If { then_blk, .. }, 0) => Some(then_blk),
        (Stmt::If { else_blk, .. }, 1) => else_blk.as_ref(),
        (Stmt::While { body, .. }, 0) => Some(body),
        _ => None,
    }
}

/// Mutable variant of [`child_block`].
pub fn child_block_mut(stmt: &mut Stmt, branch: u8) -> Option<&mut Block> {
    match (stmt, branch) {
        (Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b), 0) => Some(b),
        (Stmt::If { then_blk, .. }, 0) => Some(then_blk),
        (Stmt::If { else_blk, .. }, 1) => else_blk.as_mut(),
        (Stmt::While { body, .. }, 0) => Some(body),
        _ => None,
    }
}

/// Number of child blocks a statement has (for iteration).
#[must_use]
pub fn child_branches(stmt: &Stmt) -> u8 {
    match stmt {
        Stmt::Unsafe(_) | Stmt::Scope(_) | Stmt::Spawn(_) | Stmt::Lock(..) | Stmt::While { .. } => {
            1
        }
        Stmt::If { else_blk, .. } => 1 + u8::from(else_blk.is_some()),
        _ => 0,
    }
}

/// Visits every statement of the program in pre-order, passing its path.
pub fn for_each_stmt<'a, F: FnMut(&'a Stmt, &StmtPath)>(prog: &'a Program, mut f: F) {
    for (fi, func) in prog.funcs.iter().enumerate() {
        let base = StmtPath {
            func: fi,
            steps: Vec::new(),
        };
        walk_block(&func.body, &base, &mut f);
    }
}

/// Visits every statement of the program in the same pre-order as
/// [`for_each_stmt`], without building paths.
pub fn walk_stmts<'a, F: FnMut(&'a Stmt)>(prog: &'a Program, mut f: F) {
    for func in &prog.funcs {
        walk_block_stmts(&func.body, &mut f);
    }
}

fn walk_block_stmts<'a, F: FnMut(&'a Stmt)>(b: &'a Block, f: &mut F) {
    for s in &b.stmts {
        f(s);
        for br in 0..child_branches(s) {
            if let Some(cb) = child_block(s, br) {
                walk_block_stmts(cb, f);
            }
        }
    }
}

fn walk_block<'a, F: FnMut(&'a Stmt, &StmtPath)>(b: &'a Block, base: &StmtPath, f: &mut F) {
    for (i, s) in b.stmts.iter().enumerate() {
        // The branch recorded at this step is filled in when descending.
        let here = base.child(i, 0);
        f(s, &here);
        for br in 0..child_branches(s) {
            if let Some(cb) = child_block(s, br) {
                let mut parent = base.child(i, br);
                parent.steps.last_mut().expect("non-empty").1 = br;
                walk_block(cb, &parent, f);
            }
        }
    }
}

/// Looks up a statement by path.
#[must_use]
pub fn get_stmt<'p>(prog: &'p Program, path: &StmtPath) -> Option<&'p Stmt> {
    let func = prog.funcs.get(path.func)?;
    let mut block = &func.body;
    let (last, rest) = path.steps.split_last()?;
    for (idx, branch) in rest {
        let s = block.stmts.get(*idx)?;
        block = child_block(s, *branch)?;
    }
    block.stmts.get(last.0)
}

/// Looks up the block containing the statement addressed by `path`,
/// returning the block and the statement index within it.
pub fn containing_block_mut<'p>(
    prog: &'p mut Program,
    path: &StmtPath,
) -> Option<(&'p mut Block, usize)> {
    let func = prog.funcs.get_mut(path.func)?;
    let mut block = &mut func.body;
    let (last, rest) = path.steps.split_last()?;
    for (idx, branch) in rest {
        let s = block.stmts.get_mut(*idx)?;
        block = child_block_mut(s, *branch)?;
    }
    if last.0 <= block.stmts.len() {
        Some((block, last.0))
    } else {
        None
    }
}

/// Mutable statement lookup by path.
pub fn get_stmt_mut<'p>(prog: &'p mut Program, path: &StmtPath) -> Option<&'p mut Stmt> {
    let (block, idx) = containing_block_mut(prog, path)?;
    block.stmts.get_mut(idx)
}

/// Replaces the statement at `path`; returns `false` when the path dangles.
pub fn replace_stmt(prog: &mut Program, path: &StmtPath, new: Stmt) -> bool {
    match get_stmt_mut(prog, path) {
        Some(slot) => {
            *slot = new;
            true
        }
        None => false,
    }
}

/// Inserts a statement *before* the one at `path`.
pub fn insert_before(prog: &mut Program, path: &StmtPath, new: Stmt) -> bool {
    match containing_block_mut(prog, path) {
        Some((block, idx)) if idx <= block.stmts.len() => {
            block.stmts.insert(idx, new);
            true
        }
        _ => false,
    }
}

/// Inserts a statement *after* the one at `path`.
pub fn insert_after(prog: &mut Program, path: &StmtPath, new: Stmt) -> bool {
    match containing_block_mut(prog, path) {
        Some((block, idx)) if idx < block.stmts.len() => {
            block.stmts.insert(idx + 1, new);
            true
        }
        _ => false,
    }
}

/// Removes the statement at `path` entirely (shifting later paths).
pub fn remove_stmt(prog: &mut Program, path: &StmtPath) -> Option<Stmt> {
    match containing_block_mut(prog, path) {
        Some((block, idx)) if idx < block.stmts.len() => Some(block.stmts.remove(idx)),
        _ => None,
    }
}

/// Visits every expression in a statement (not descending into child
/// statements/blocks).
pub fn for_each_expr_in_stmt<'a, F: FnMut(&'a Expr)>(stmt: &'a Stmt, mut f: F) {
    match stmt {
        Stmt::Let { init, .. } => walk_expr(init, &mut f),
        Stmt::Assign { place, value } => {
            walk_expr(place, &mut f);
            walk_expr(value, &mut f);
        }
        Stmt::Expr(e) | Stmt::Print(e) => walk_expr(e, &mut f),
        Stmt::If { cond, .. } | Stmt::While { cond, .. } | Stmt::Assert { cond, .. } => {
            walk_expr(cond, &mut f);
        }
        Stmt::Return(Some(e)) => walk_expr(e, &mut f),
        Stmt::TailCall(_, args) => {
            for a in args {
                walk_expr(a, &mut f);
            }
        }
        Stmt::Unsafe(_)
        | Stmt::Scope(_)
        | Stmt::Spawn(_)
        | Stmt::Lock(..)
        | Stmt::Return(None)
        | Stmt::JoinAll
        | Stmt::Nop => {}
    }
}

/// Recursively visits an expression and its subexpressions in pre-order.
pub fn walk_expr<'a, F: FnMut(&'a Expr)>(e: &'a Expr, f: &mut F) {
    f(e);
    match e {
        Expr::Unary(_, a)
        | Expr::Cast(a, _)
        | Expr::AddrOf(_, a)
        | Expr::RawAddrOf(_, a)
        | Expr::Deref(a)
        | Expr::Field(a, _)
        | Expr::ArrayRepeat(a, _)
        | Expr::UnionLit(_, _, a)
        | Expr::UnionField(a, _) => walk_expr(a, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Tuple(xs) | Expr::ArrayLit(xs) | Expr::Call(_, xs) | Expr::Builtin(_, _, xs) => {
            for x in xs {
                walk_expr(x, f);
            }
        }
        Expr::CallPtr(c, xs) => {
            walk_expr(c, f);
            for x in xs {
                walk_expr(x, f);
            }
        }
        Expr::Lit(_) | Expr::Var(_) | Expr::StaticRef(_) => {}
    }
}

/// Read-only mirror of [`map_expr`]: visits an expression and all
/// subexpressions bottom-up, in exactly the order `map_expr` rewrites them.
pub fn walk_expr_post<'a, F: FnMut(&'a Expr)>(e: &'a Expr, f: &mut F) {
    match e {
        Expr::Unary(_, a)
        | Expr::Cast(a, _)
        | Expr::AddrOf(_, a)
        | Expr::RawAddrOf(_, a)
        | Expr::Deref(a)
        | Expr::Field(a, _)
        | Expr::ArrayRepeat(a, _)
        | Expr::UnionLit(_, _, a)
        | Expr::UnionField(a, _) => walk_expr_post(a, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            walk_expr_post(a, f);
            walk_expr_post(b, f);
        }
        Expr::Tuple(xs) | Expr::ArrayLit(xs) | Expr::Call(_, xs) | Expr::Builtin(_, _, xs) => {
            for x in xs {
                walk_expr_post(x, f);
            }
        }
        Expr::CallPtr(c, xs) => {
            walk_expr_post(c, f);
            for x in xs {
                walk_expr_post(x, f);
            }
        }
        Expr::Lit(_) | Expr::Var(_) | Expr::StaticRef(_) => {}
    }
    f(e);
}

/// Read-only mirror of [`map_exprs_in_stmt`]: visits every expression of a
/// statement (recursing into nested blocks) in the order it rewrites them,
/// so a matcher sees the same first/last match as the edit that follows.
pub fn walk_exprs_in_stmt<'a, F: FnMut(&'a Expr)>(stmt: &'a Stmt, f: &mut F) {
    match stmt {
        Stmt::Let { init, .. } => walk_expr_post(init, f),
        Stmt::Assign { place, value } => {
            walk_expr_post(place, f);
            walk_expr_post(value, f);
        }
        Stmt::Expr(e) | Stmt::Print(e) => walk_expr_post(e, f),
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => {
            for s in &b.stmts {
                walk_exprs_in_stmt(s, f);
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            walk_expr_post(cond, f);
            for s in &then_blk.stmts {
                walk_exprs_in_stmt(s, f);
            }
            if let Some(e) = else_blk {
                for s in &e.stmts {
                    walk_exprs_in_stmt(s, f);
                }
            }
        }
        Stmt::While { cond, body } => {
            walk_expr_post(cond, f);
            for s in &body.stmts {
                walk_exprs_in_stmt(s, f);
            }
        }
        Stmt::Assert { cond, .. } => walk_expr_post(cond, f),
        Stmt::Return(Some(e)) => walk_expr_post(e, f),
        Stmt::TailCall(_, args) => {
            for a in args {
                walk_expr_post(a, f);
            }
        }
        Stmt::Return(None) | Stmt::JoinAll | Stmt::Nop => {}
    }
}

/// Read-only mirror of [`map_exprs`]: visits every expression in the whole
/// program in the order `map_exprs` rewrites them.
pub fn walk_exprs<'a, F: FnMut(&'a Expr)>(prog: &'a Program, f: &mut F) {
    for func in &prog.funcs {
        for s in &func.body.stmts {
            walk_exprs_in_stmt(s, f);
        }
    }
}

/// Does any expression in the program satisfy `pred`?
pub fn any_expr<F: FnMut(&Expr) -> bool>(prog: &Program, mut pred: F) -> bool {
    let mut found = false;
    walk_exprs(prog, &mut |e| found = found || pred(e));
    found
}

/// Applies `f` to every expression of a statement (recursing into nested
/// blocks), bottom-up, allowing in-place rewriting.
pub fn map_exprs_in_stmt<F: FnMut(&mut Expr)>(stmt: &mut Stmt, f: &mut F) {
    match stmt {
        Stmt::Let { init, .. } => map_expr(init, f),
        Stmt::Assign { place, value } => {
            map_expr(place, f);
            map_expr(value, f);
        }
        Stmt::Expr(e) | Stmt::Print(e) => map_expr(e, f),
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => {
            for s in &mut b.stmts {
                map_exprs_in_stmt(s, f);
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            map_expr(cond, f);
            for s in &mut then_blk.stmts {
                map_exprs_in_stmt(s, f);
            }
            if let Some(e) = else_blk {
                for s in &mut e.stmts {
                    map_exprs_in_stmt(s, f);
                }
            }
        }
        Stmt::While { cond, body } => {
            map_expr(cond, f);
            for s in &mut body.stmts {
                map_exprs_in_stmt(s, f);
            }
        }
        Stmt::Assert { cond, .. } => map_expr(cond, f),
        Stmt::Return(Some(e)) => map_expr(e, f),
        Stmt::TailCall(_, args) => {
            for a in args {
                map_expr(a, f);
            }
        }
        Stmt::Return(None) | Stmt::JoinAll | Stmt::Nop => {}
    }
}

/// Applies `f` to an expression and all subexpressions, bottom-up.
pub fn map_expr<F: FnMut(&mut Expr)>(e: &mut Expr, f: &mut F) {
    match e {
        Expr::Unary(_, a)
        | Expr::Cast(a, _)
        | Expr::AddrOf(_, a)
        | Expr::RawAddrOf(_, a)
        | Expr::Deref(a)
        | Expr::Field(a, _)
        | Expr::ArrayRepeat(a, _)
        | Expr::UnionLit(_, _, a)
        | Expr::UnionField(a, _) => map_expr(a, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            map_expr(a, f);
            map_expr(b, f);
        }
        Expr::Tuple(xs) | Expr::ArrayLit(xs) | Expr::Call(_, xs) | Expr::Builtin(_, _, xs) => {
            for x in xs {
                map_expr(x, f);
            }
        }
        Expr::CallPtr(c, xs) => {
            map_expr(c, f);
            for x in xs {
                map_expr(x, f);
            }
        }
        Expr::Lit(_) | Expr::Var(_) | Expr::StaticRef(_) => {}
    }
    f(e);
}

/// Applies `f` to every expression in the whole program.
pub fn map_exprs<F: FnMut(&mut Expr)>(prog: &mut Program, f: &mut F) {
    for func in &mut prog.funcs {
        for s in &mut func.body.stmts {
            map_exprs_in_stmt(s, f);
        }
    }
}

/// Collects the names of variables read by an expression.
#[must_use]
pub fn vars_read(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    walk_expr(e, &mut |x| {
        if let Expr::Var(n) = x {
            out.push(n.clone());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sample() -> Program {
        parse_program(
            "fn main() { let x: i32 = 1; if x > 0 { print(x); } else { unsafe { print(2i32); } } }",
        )
        .unwrap()
    }

    #[test]
    fn enumerate_all_statements() {
        let p = sample();
        let mut seen = Vec::new();
        for_each_stmt(&p, |_, path| seen.push(path.clone()));
        // let, if, print(then), unsafe(else), print(inside unsafe)
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn paths_resolve_back() {
        let p = sample();
        let mut ok = 0;
        let mut paths = Vec::new();
        for_each_stmt(&p, |_, path| paths.push(path.clone()));
        for path in &paths {
            if get_stmt(&p, path).is_some() {
                ok += 1;
            }
        }
        assert_eq!(ok, paths.len());
    }

    #[test]
    fn else_branch_navigation() {
        let p = sample();
        // fn#0.1 (if) -> else branch -> stmt 0 (unsafe) -> stmt 0 (print)
        let path = StmtPath {
            func: 0,
            steps: vec![(1, 1), (0, 0), (0, 0)],
        };
        let s = get_stmt(&p, &path).unwrap();
        assert!(matches!(s, Stmt::Print(_)));
    }

    #[test]
    fn replace_and_insert() {
        let mut p = sample();
        let path = StmtPath::top(0, 0);
        assert!(replace_stmt(&mut p, &path, Stmt::Nop));
        assert!(matches!(p.funcs[0].body.stmts[0], Stmt::Nop));
        assert!(insert_before(&mut p, &path, Stmt::JoinAll));
        assert!(matches!(p.funcs[0].body.stmts[0], Stmt::JoinAll));
        let after = StmtPath::top(0, 1);
        assert!(insert_after(&mut p, &after, Stmt::JoinAll));
        assert!(matches!(p.funcs[0].body.stmts[2], Stmt::JoinAll));
    }

    #[test]
    fn remove_shifts() {
        let mut p = sample();
        let removed = remove_stmt(&mut p, &StmtPath::top(0, 0)).unwrap();
        assert!(matches!(removed, Stmt::Let { .. }));
        assert_eq!(p.funcs[0].body.stmts.len(), 1);
    }

    #[test]
    fn dangling_path_safe() {
        let mut p = sample();
        let bad = StmtPath::top(0, 99);
        assert!(get_stmt(&p, &bad).is_none());
        assert!(!replace_stmt(&mut p, &bad, Stmt::Nop));
        assert!(remove_stmt(&mut p, &bad).is_none());
    }

    #[test]
    fn read_only_walks_mirror_the_mutable_ones() {
        let p = parse_program(
            "fn main() { let x: i32 = (1 + 2) * 3; if x > 0 { print(-x); } \
             else { while x < 9 { x = x + 1; } } assert(x != 4, \"m\"); }",
        )
        .unwrap();
        let mut walked = Vec::new();
        walk_exprs(&p, &mut |e| walked.push(e.clone()));
        let mut mapped = Vec::new();
        map_exprs(&mut p.clone(), &mut |e| mapped.push(e.clone()));
        assert_eq!(walked, mapped);

        let mut stmts = Vec::new();
        walk_stmts(&p, |s| stmts.push(s.clone()));
        let mut with_paths = Vec::new();
        for_each_stmt(&p, |s, _| with_paths.push(s.clone()));
        assert_eq!(stmts, with_paths);
        assert!(any_expr(&p, |e| matches!(e, Expr::Unary(..))));
        assert!(!any_expr(&p, |e| matches!(e, Expr::Deref(_))));
    }

    #[test]
    fn vars_read_collects() {
        let p = sample();
        if let Stmt::If { cond, .. } = &p.funcs[0].body.stmts[1] {
            assert_eq!(vars_read(cond), vec!["x".to_owned()]);
        } else {
            panic!();
        }
    }
}
