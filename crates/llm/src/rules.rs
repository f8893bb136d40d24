//! The repair-rule library: concrete AST transformations a competent Rust
//! developer (or a well-prompted LLM) would apply for each family of UB.
//!
//! Rules are grouped into the paper's three repair categories (Principle 2):
//! *safe replacement*, *assertion/guarding*, and *semantic modification* —
//! plus a fourth group of *hallucination* edits modelling plausible-looking
//! but wrong patches that weak models emit.
//!
//! Every rule has two halves. Its matcher (`RepairRule::locate`) walks the
//! borrowed program and the primary oracle diagnostic and, when its pattern
//! matches, returns a `Site`: where to edit and with what. Its edit
//! (`edit`) performs that site on a clone and cannot fail. So
//! [`RepairRule::candidates`] runs only the matchers and never clones, and
//! [`RepairRule::apply`] is one match, one clone and one edit.
//!
//! Whether the result actually passes the oracle (and preserves semantics)
//! is decided later by re-running the oracle — rules are proposals, not
//! guarantees, exactly as LLM patches are.

use rb_lang::ast::{
    BinOp, Block, BuiltinKind, Expr, Function, IntTy, Lit, Mutability, Program, StaticDef, Stmt,
    StmtPath, Ty, UnionDef,
};
use rb_lang::visit::{
    any_expr, child_block, child_branches, for_each_expr_in_stmt, for_each_stmt, get_stmt,
    get_stmt_mut, insert_after, insert_before, map_expr, map_exprs, map_exprs_in_stmt, remove_stmt,
    replace_stmt, walk_expr, walk_expr_post, walk_exprs_in_stmt, walk_stmts,
};
use rb_miri::{MiriError, UbKind};
use serde::{Deserialize, Serialize};

/// The paper's repair categories (plus hallucination noise).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RuleKind {
    /// Replace an unsafe operation with a safe API (prompt strategy 1).
    SafeReplace,
    /// Add assertions / guards preventing the UB (prompt strategy 2).
    Assert,
    /// Modify erroneous semantics while preserving intent (prompt 3).
    Modify,
    /// Plausible-but-wrong edits produced by model noise.
    Hallucination,
}

/// All concrete repair rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RepairRule {
    // -- safe replacement -----------------------------------------------------
    /// Dereference the original pointer instead of an int-laundered copy.
    UseDirectPointer,
    /// `transmute::<u8, bool>(x)` → `x != 0`.
    BoolFromComparison,
    /// `transmute::<[u8; N], Int>(a)` → `from_le_bytes::<intN>(a) as Int`.
    TransmuteBytesToFromLe,
    /// Replace a forged reference with a borrow of an in-scope local.
    BorrowLocalInstead,
    /// Replace a forged function pointer with the real function.
    DirectFnUse,
    /// Re-type a wrongly-transmuted function pointer and pad call args.
    FixFnPtrSignature,
    /// Replace plain static accesses in threads with atomic ops.
    UseAtomics,
    /// Widen overflowing arithmetic to `i64`.
    WidenArithmetic,
    /// Take `&raw mut` of the owner instead of writing through a shared ref.
    UseRawMutDirect,
    // -- assertion / guarding -------------------------------------------------
    /// Guard a division with a zero check (else-print-0).
    GuardDivision,
    /// Guard an indexing statement with a bounds check.
    GuardIndex,
    /// Weaken a failing assertion to a trivially true one.
    WeakenAssert,
    /// Insert a (useless) non-null assertion before a pointer use.
    AssertNonNull,
    /// Wrap every spawned body in the same lock.
    LockSpawnBodies,
    // -- semantic modification ------------------------------------------------
    /// Remove a second `dealloc` of the same pointer.
    RemoveDoubleFree,
    /// Fix `dealloc` layout arguments from the matching `alloc`.
    FixDeallocLayout,
    /// Append the missing `dealloc` at the end of `main`.
    AddDealloc,
    /// Splice a scope's body into the parent, extending local lifetimes.
    HoistLocalOut,
    /// Move a premature `dealloc` to the end of `main`.
    ReorderDeallocAfterUse,
    /// Snap a `ptr_offset` literal down to offset 0.
    AlignOffsetDown,
    /// Snap a `ptr_offset` literal up to the read type's alignment.
    AlignOffsetUp,
    /// Move the initialising write before the faulting read.
    InitializeBeforeRead,
    /// Initialise the union field that is actually read.
    UnionUseLargestField,
    /// Take the raw pointer after the conflicting write, not before.
    RetakePointerAfterWrite,
    /// Collapse two exclusive reborrows into one.
    SingleMutBorrow,
    /// Move a racing main-thread read after `join`.
    MoveReadAfterJoin,
    /// Turn a mismatched tail call into a plain call + return.
    ReplaceTailCallWithReturn,
    /// Fix an out-of-bounds index literal to `len - 1`.
    FixLiteralIndex,
    /// Separate overlapping `copy_nonoverlapping` ranges.
    CopyWithoutOverlap,
    // -- hallucination ---------------------------------------------------------
    /// Delete the statement the diagnostic points at.
    DeleteStatement,
    /// Duplicate the statement the diagnostic points at.
    DuplicateStatement,
    /// Perturb the first integer literal in the faulting statement.
    PerturbLiteral,
    /// Wrap the faulting statement in `if false { .. }`.
    DisableStatement,
    /// Unwrap an `unsafe` block, leaving unsafe ops in safe context (the
    /// patch no longer compiles — E0133).
    StripUnsafe,
    /// Rename a variable at its definition only (undefined-variable error).
    BreakBinding,
    /// Change a let's declared type without changing the initialiser.
    BreakTypes,
}

impl RepairRule {
    /// Every rule, in a stable order.
    pub const ALL: [RepairRule; 31] = [
        RepairRule::UseDirectPointer,
        RepairRule::BoolFromComparison,
        RepairRule::TransmuteBytesToFromLe,
        RepairRule::BorrowLocalInstead,
        RepairRule::DirectFnUse,
        RepairRule::FixFnPtrSignature,
        RepairRule::UseAtomics,
        RepairRule::WidenArithmetic,
        RepairRule::UseRawMutDirect,
        RepairRule::GuardDivision,
        RepairRule::GuardIndex,
        RepairRule::WeakenAssert,
        RepairRule::AssertNonNull,
        RepairRule::LockSpawnBodies,
        RepairRule::RemoveDoubleFree,
        RepairRule::FixDeallocLayout,
        RepairRule::AddDealloc,
        RepairRule::HoistLocalOut,
        RepairRule::ReorderDeallocAfterUse,
        RepairRule::AlignOffsetDown,
        RepairRule::AlignOffsetUp,
        RepairRule::InitializeBeforeRead,
        RepairRule::UnionUseLargestField,
        RepairRule::RetakePointerAfterWrite,
        RepairRule::SingleMutBorrow,
        RepairRule::MoveReadAfterJoin,
        RepairRule::ReplaceTailCallWithReturn,
        RepairRule::FixLiteralIndex,
        RepairRule::CopyWithoutOverlap,
        RepairRule::DeleteStatement,
        RepairRule::DuplicateStatement,
    ];

    /// The hallucination edits (drawn instead of real rules by model
    /// noise). Breaking edits — patches that stop compiling — are listed
    /// multiple times: they are what failing LLM patches most often look
    /// like, so they are drawn more often.
    pub const HALLUCINATIONS: [RepairRule; 9] = [
        RepairRule::DeleteStatement,
        RepairRule::DuplicateStatement,
        RepairRule::PerturbLiteral,
        RepairRule::DisableStatement,
        RepairRule::StripUnsafe,
        RepairRule::StripUnsafe,
        RepairRule::BreakBinding,
        RepairRule::BreakTypes,
        RepairRule::BreakTypes,
    ];

    /// Which repair category the rule belongs to.
    #[must_use]
    pub fn kind(self) -> RuleKind {
        use RepairRule::*;
        match self {
            UseDirectPointer
            | BoolFromComparison
            | TransmuteBytesToFromLe
            | BorrowLocalInstead
            | DirectFnUse
            | FixFnPtrSignature
            | UseAtomics
            | WidenArithmetic
            | UseRawMutDirect => RuleKind::SafeReplace,
            GuardDivision | GuardIndex | WeakenAssert | AssertNonNull | LockSpawnBodies => {
                RuleKind::Assert
            }
            RemoveDoubleFree
            | FixDeallocLayout
            | AddDealloc
            | HoistLocalOut
            | ReorderDeallocAfterUse
            | AlignOffsetDown
            | AlignOffsetUp
            | InitializeBeforeRead
            | UnionUseLargestField
            | RetakePointerAfterWrite
            | SingleMutBorrow
            | MoveReadAfterJoin
            | ReplaceTailCallWithReturn
            | FixLiteralIndex
            | CopyWithoutOverlap => RuleKind::Modify,
            DeleteStatement | DuplicateStatement | PerturbLiteral | DisableStatement
            | StripUnsafe | BreakBinding | BreakTypes => RuleKind::Hallucination,
        }
    }

    /// Rule name for prompts and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        use RepairRule::*;
        match self {
            UseDirectPointer => "use-direct-pointer",
            BoolFromComparison => "bool-from-comparison",
            TransmuteBytesToFromLe => "from-le-bytes",
            BorrowLocalInstead => "borrow-local",
            DirectFnUse => "direct-fn-use",
            FixFnPtrSignature => "fix-fnptr-signature",
            UseAtomics => "use-atomics",
            WidenArithmetic => "widen-arithmetic",
            UseRawMutDirect => "raw-mut-direct",
            GuardDivision => "guard-division",
            GuardIndex => "guard-index",
            WeakenAssert => "weaken-assert",
            AssertNonNull => "assert-non-null",
            LockSpawnBodies => "lock-spawn-bodies",
            RemoveDoubleFree => "remove-double-free",
            FixDeallocLayout => "fix-dealloc-layout",
            AddDealloc => "add-dealloc",
            HoistLocalOut => "hoist-local-out",
            ReorderDeallocAfterUse => "reorder-dealloc",
            AlignOffsetDown => "align-offset-down",
            AlignOffsetUp => "align-offset-up",
            InitializeBeforeRead => "initialize-before-read",
            UnionUseLargestField => "union-largest-field",
            RetakePointerAfterWrite => "retake-pointer",
            SingleMutBorrow => "single-mut-borrow",
            MoveReadAfterJoin => "move-read-after-join",
            ReplaceTailCallWithReturn => "tailcall-to-return",
            FixLiteralIndex => "fix-literal-index",
            CopyWithoutOverlap => "copy-without-overlap",
            DeleteStatement => "delete-statement",
            DuplicateStatement => "duplicate-statement",
            PerturbLiteral => "perturb-literal",
            DisableStatement => "disable-statement",
            StripUnsafe => "strip-unsafe",
            BreakBinding => "break-binding",
            BreakTypes => "break-types",
        }
    }

    /// Whether `kind` is the failure this rule canonically addresses.
    /// Broadly-applicable rules still have a home turf; a skilled model
    /// prefers the rule whose home turf matches the diagnostic.
    #[must_use]
    pub fn addresses(self, kind: UbKind) -> bool {
        use RepairRule::*;
        match self {
            UseDirectPointer => matches!(kind, UbKind::NoProvenance | UbKind::CrossAllocation),
            BoolFromComparison => matches!(kind, UbKind::InvalidValue),
            TransmuteBytesToFromLe => matches!(kind, UbKind::TransmuteSize),
            BorrowLocalInstead => matches!(kind, UbKind::InvalidRef),
            DirectFnUse => matches!(kind, UbKind::InvalidFnPtr),
            FixFnPtrSignature => matches!(kind, UbKind::FnSigMismatch),
            UseAtomics | LockSpawnBodies => {
                matches!(kind, UbKind::RaceOnStatic | UbKind::RaceOnHeap)
            }
            WidenArithmetic => matches!(kind, UbKind::UncheckedOverflow | UbKind::PanicOverflow),
            UseRawMutDirect => matches!(kind, UbKind::WriteThroughShared),
            GuardDivision => matches!(kind, UbKind::PanicDivZero),
            GuardIndex | FixLiteralIndex => matches!(kind, UbKind::PanicIndex),
            WeakenAssert => matches!(kind, UbKind::PanicAssert),
            AssertNonNull => false, // plausible everywhere, right nowhere
            RemoveDoubleFree => matches!(kind, UbKind::DoubleFree),
            FixDeallocLayout => matches!(kind, UbKind::BadDealloc),
            AddDealloc => matches!(kind, UbKind::Leak),
            HoistLocalOut => matches!(kind, UbKind::UseAfterScope),
            ReorderDeallocAfterUse => matches!(kind, UbKind::UseAfterFree),
            // The deliberately ambiguous pair (paper Fig. 3: the same
            // unsafe API needs different substitutions depending on
            // context): both claim both failure kinds, and only feedback /
            // knowledge can tell which one a given structure needs.
            AlignOffsetDown | AlignOffsetUp => {
                matches!(kind, UbKind::OutOfBounds | UbKind::UnalignedAccess)
            }
            InitializeBeforeRead => matches!(kind, UbKind::UninitRead | UbKind::Precondition),
            UnionUseLargestField => matches!(kind, UbKind::UninitRead),
            RetakePointerAfterWrite => matches!(kind, UbKind::StackBorrowViolation),
            SingleMutBorrow => matches!(kind, UbKind::ConflictingMutBorrows),
            MoveReadAfterJoin => matches!(kind, UbKind::RaceOnStatic),
            ReplaceTailCallWithReturn => matches!(kind, UbKind::TailCallMismatch),
            CopyWithoutOverlap => matches!(kind, UbKind::Precondition),
            DeleteStatement | DuplicateStatement | PerturbLiteral | DisableStatement
            | StripUnsafe | BreakBinding | BreakTypes => false,
        }
    }

    /// Attempts to apply the rule, returning the transformed program when
    /// the rule's pattern matches. `err` is the diagnostic being repaired.
    #[must_use]
    pub fn apply(self, prog: &Program, err: &MiriError) -> Option<Program> {
        let site = self.locate(prog, err)?;
        let mut out = prog.clone();
        edit(&mut out, site);
        Some(out)
    }

    /// All non-hallucination rules that match the program/diagnostic, in
    /// [`RepairRule::ALL`] order. Only the matchers run: nothing is cloned
    /// or edited.
    #[must_use]
    pub fn candidates(prog: &Program, err: &MiriError) -> Vec<RepairRule> {
        RepairRule::ALL
            .iter()
            .copied()
            .filter(|r| r.kind() != RuleKind::Hallucination && r.locate(prog, err).is_some())
            .collect()
    }

    /// The rule's read-only matcher: finds where, and with what, the rule
    /// would edit `prog` to repair `err`, or `None` when its pattern does
    /// not match.
    pub(crate) fn locate<'p>(self, prog: &'p Program, err: &'p MiriError) -> Option<Site<'p>> {
        use RepairRule::*;
        match self {
            UseDirectPointer => locate_direct_pointer(prog, err),
            BoolFromComparison => any_expr(prog, is_u8_to_bool).then_some(Site::BoolFromComparison),
            TransmuteBytesToFromLe => {
                any_expr(prog, |e| from_le_parts(e).is_some()).then_some(Site::BytesToFromLe)
            }
            BorrowLocalInstead => locate_borrow_local(prog),
            DirectFnUse => locate_direct_fn(prog),
            FixFnPtrSignature => locate_fnptr_signature(prog),
            UseAtomics => locate_atomics(prog),
            WidenArithmetic => stmt_at(prog, err)
                .filter(|_| {
                    matches!(
                        err.kind,
                        UbKind::UncheckedOverflow
                            | UbKind::PanicOverflow
                            | UbKind::PanicAssert
                            | UbKind::PanicDivZero
                    )
                })
                .map(|(path, _)| Site::Widen(path)),
            UseRawMutDirect => locate_raw_mut_direct(prog),
            GuardDivision => locate_guard_division(prog, err),
            GuardIndex => locate_guard_index(prog, err),
            WeakenAssert => {
                let (path, stmt) =
                    stmt_at(prog, err).filter(|_| err.kind == UbKind::PanicAssert)?;
                matches!(
                    stmt,
                    Stmt::Assert {
                        cond: Expr::Binary(..),
                        ..
                    }
                )
                .then_some(Site::WeakenAssert(path))
            }
            AssertNonNull => locate_assert_non_null(prog, err),
            LockSpawnBodies => main_fn(prog)?
                .body
                .stmts
                .iter()
                .any(needs_lock)
                .then_some(Site::LockSpawnBodies),
            RemoveDoubleFree => {
                let (path, stmt) = stmt_at(prog, err).filter(|_| err.kind == UbKind::DoubleFree)?;
                stmt_deallocs(stmt).then_some(Site::Remove(path))
            }
            FixDeallocLayout => {
                if err.kind != UbKind::BadDealloc {
                    return None;
                }
                let (_, size, align) = find_alloc(prog)?;
                let (path, _) = stmt_at(prog, err)?;
                Some(Site::FixDeallocLayout { path, size, align })
            }
            AddDealloc => {
                let (var, size, align) = find_alloc(prog)?;
                if any_expr(prog, is_dealloc) {
                    return None;
                }
                main_fn(prog)?;
                Some(Site::AddDealloc { var, size, align })
            }
            HoistLocalOut => main_fn(prog)?
                .body
                .stmts
                .iter()
                .position(scope_escapes)
                .map(Site::Splice),
            ReorderDeallocAfterUse => {
                if !err.kind.is_ub() {
                    return None;
                }
                let stmts = &main_fn(prog)?.body.stmts;
                let i = stmts.iter().position(stmt_deallocs)?;
                // Already last: nothing to move.
                (i + 1 < stmts.len()).then(|| Site::MoveInMain {
                    from: i,
                    to: stmts.len() - 1,
                })
            }
            AlignOffsetDown => locate_align_offset(prog, err, false),
            AlignOffsetUp => locate_align_offset(prog, err, true),
            InitializeBeforeRead => locate_initialize_before_read(prog, err),
            UnionUseLargestField => locate_union_field(prog),
            RetakePointerAfterWrite => {
                let (path, stmt) =
                    stmt_at(prog, err).filter(|_| err.kind == UbKind::StackBorrowViolation)?;
                let Stmt::Unsafe(body) = stmt else {
                    return None;
                };
                retake_index(body).map(|i| Site::SwapInBlock { path, i })
            }
            SingleMutBorrow => locate_single_mut_borrow(prog),
            MoveReadAfterJoin => locate_read_before_join(prog),
            ReplaceTailCallWithReturn => locate_tailcall(prog),
            FixLiteralIndex => {
                if err.kind != UbKind::PanicIndex {
                    return None;
                }
                let len = last_array_len(prog);
                let fixable = prog
                    .funcs
                    .iter()
                    .flat_map(|f| &f.body.stmts)
                    .any(|s| oob_index_let(s, len).is_some());
                (len > 0 && fixable).then_some(Site::FixLiteralIndex { len })
            }
            CopyWithoutOverlap => {
                any_expr(prog, |e| overlap_fix(e).is_some()).then_some(Site::CopyWithoutOverlap)
            }
            DeleteStatement => stmt_at(prog, err).map(|(path, _)| Site::Remove(path)),
            DuplicateStatement => {
                stmt_at(prog, err).map(|(path, stmt)| Site::Duplicate { path, stmt })
            }
            PerturbLiteral => {
                let (path, stmt) = stmt_at(prog, err)?;
                stmt_contains(stmt, |e| matches!(e, Expr::Lit(Lit::Int(..))))
                    .then_some(Site::PerturbLiteral(path))
            }
            DisableStatement => stmt_at(prog, err).map(|(path, stmt)| Site::Disable { path, stmt }),
            StripUnsafe => {
                let stmts = &main_fn(prog)?.body.stmts;
                let i = stmts.iter().position(|s| matches!(s, Stmt::Unsafe(_)))?;
                let Stmt::Unsafe(body) = &stmts[i] else {
                    return None;
                };
                (!body.stmts.is_empty()).then_some(Site::Splice(i))
            }
            BreakBinding => main_fn(prog)?
                .body
                .stmts
                .iter()
                .position(|s| matches!(s, Stmt::Let { .. }))
                .map(Site::BreakBinding),
            BreakTypes => main_fn(prog)?
                .body
                .stmts
                .iter()
                .position(|s| {
                    matches!(
                        s,
                        Stmt::Let {
                            ty: Ty::Int(IntTy::I32),
                            ..
                        }
                    )
                })
                .map(Site::BreakTypes),
        }
    }
}

/// Applies *semantic drift*: the plausible-but-sloppy value change real
/// LLM patches often carry (an off-by-one constant, a tweaked initialiser).
/// The program usually still passes the oracle afterwards, but its
/// observable output no longer matches the gold reference — the mechanism
/// behind the paper's pass-vs-execution gap.
#[must_use]
pub fn apply_semantic_drift(prog: &Program) -> Option<Program> {
    let mut out = prog.clone();
    let done = std::cell::Cell::new(false);
    let bump = |e: &mut Expr| {
        if done.get() {
            return;
        }
        if let Expr::Lit(Lit::Int(v, t)) = e {
            if !matches!(t, IntTy::Usize) {
                *e = Expr::Lit(Lit::Int(t.wrap(*v + 1), *t));
                done.set(true);
            }
        }
    };
    // Perturb the first literal in a *value* position: printed values,
    // written values, union initialisers, atomic stores, plain-value lets.
    // Layout arguments (sizes, alignments, offsets) are left alone — models
    // drift on domain values, not on the mechanics they just repaired.
    map_exprs(&mut out, &mut |e| match e {
        Expr::Builtin(BuiltinKind::PtrWrite | BuiltinKind::AtomicStore, _, args) => {
            if let Some(v) = args.get_mut(1) {
                bump(v);
            }
        }
        Expr::UnionLit(_, _, v) => bump(v),
        _ => {}
    });
    if !done.get() {
        for f in &mut out.funcs {
            for s in &mut f.body.stmts {
                if done.get() {
                    break;
                }
                match s {
                    Stmt::Print(e) => map_expr(e, &mut |x| bump(x)),
                    Stmt::Let {
                        init,
                        ty: Ty::Int(_) | Ty::Bool,
                        ..
                    } => bump(init),
                    Stmt::Assign { value, .. } => bump(value),
                    _ => {}
                }
            }
        }
    }
    done.get().then_some(out)
}

// ---- sites and edits ---------------------------------------------------------

/// Where, and with what, a rule edits: the output of its matcher
/// ([`RepairRule::locate`]) and the whole input of its edit ([`edit`]).
///
/// A site borrows from the program the matcher read. [`RepairRule::apply`]
/// edits a clone of that same program, so every index and path in the site
/// is valid for the edit and the edit cannot fail.
pub(crate) enum Site<'p> {
    /// Re-point `addr as *const T` casts at the original pointer.
    UseDirectPointer { addr_var: &'p str, orig: &'p Expr },
    /// Rewrite every `transmute::<u8, bool>`.
    BoolFromComparison,
    /// Rewrite every byte-array-to-int transmute.
    BytesToFromLe,
    /// Replace every int-to-reference transmute with `&local`.
    BorrowLocal { local: &'p str },
    /// Replace every int-to-fn-pointer transmute with `func`.
    DirectFnUse { func: &'p str },
    /// Re-type the transmuted fn-pointer binding `name` and pad its calls.
    FixFnPtrSignature {
        name: &'p str,
        src_ty: &'p Ty,
        fn_expr: &'p Expr,
        src_arity: usize,
    },
    /// Make spawned bodies access these mutable statics atomically.
    UseAtomics { statics: &'p [StaticDef] },
    /// Widen the arithmetic of the statement at the path.
    Widen(&'p StmtPath),
    /// Replace `rname as *mut T` with `&raw mut target`.
    UseRawMutDirect { rname: &'p str, target: &'p Expr },
    /// Wrap `stmt` in `if lhs <op> rhs { stmt } else { print(0); }`.
    Guard {
        path: &'p StmtPath,
        stmt: &'p Stmt,
        op: BinOp,
        lhs: &'p Expr,
        rhs: i32,
    },
    /// Weaken the assertion at the path.
    WeakenAssert(&'p StmtPath),
    /// Insert a non-null assertion on `pvar` before the path.
    AssertNonNull { path: &'p StmtPath, pvar: &'p str },
    /// Wrap every unlocked spawned body in `lock(1)`.
    LockSpawnBodies,
    /// Remove the statement at the path.
    Remove(&'p StmtPath),
    /// Copy the `alloc` layout into the statement's `dealloc` calls.
    FixDeallocLayout {
        path: &'p StmtPath,
        size: &'p Expr,
        align: &'p Expr,
    },
    /// Append `dealloc(var, size, align)` to `main`.
    AddDealloc {
        var: &'p str,
        size: &'p Expr,
        align: &'p Expr,
    },
    /// Splice the block statement at this index of `main` into `main`.
    Splice(usize),
    /// Move a statement of `main`: remove it at `from`, then insert it at
    /// `to` (an index into the shortened list).
    MoveInMain { from: usize, to: usize },
    /// Snap the statement's `ptr_offset` literals down (0) or up.
    AlignOffset { path: &'p StmtPath, up: bool },
    /// Move the `ptr_write`s of `main`'s statement `write` before `read`.
    InitializeBeforeRead { read: usize, write: usize },
    /// Re-target union literals at the field that is read.
    UnionField {
        field: &'p str,
        unions: &'p [UnionDef],
    },
    /// Swap statements `i` and `i + 1` of the block statement at the path.
    SwapInBlock { path: &'p StmtPath, i: usize },
    /// Drop the second `&mut` reborrow and redirect its uses to the first.
    SingleMutBorrow {
        keep: &'p str,
        drop: &'p str,
        drop_path: StmtPath,
    },
    /// Replace `tailcall name(args)` with `return name(args)`.
    TailCallReturn {
        path: StmtPath,
        name: &'p str,
        args: &'p [Expr],
    },
    /// Replace `tailcall name(args)` with `name(args); return param;`
    /// (`return 0` without a parameter).
    TailCallThenReturn {
        path: StmtPath,
        name: &'p str,
        args: &'p [Expr],
        param: Option<&'p str>,
    },
    /// Clamp out-of-bounds index literals to `len - 1`.
    FixLiteralIndex { len: usize },
    /// Push overlapping `copy_nonoverlapping` destinations past the source.
    CopyWithoutOverlap,
    /// Insert a copy of `stmt` after it.
    Duplicate { path: &'p StmtPath, stmt: &'p Stmt },
    /// Bump the statement's first integer literal.
    PerturbLiteral(&'p StmtPath),
    /// Wrap `stmt` in `if false { .. }`.
    Disable { path: &'p StmtPath, stmt: &'p Stmt },
    /// Rename the let at this index of `main`.
    BreakBinding(usize),
    /// Re-type the `i32` let at this index of `main` as `bool`.
    BreakTypes(usize),
}

/// Performs the edit a matcher located. `prog` must equal the program the
/// site was located in.
fn edit(prog: &mut Program, site: Site<'_>) {
    match site {
        Site::UseDirectPointer { addr_var, orig } => map_exprs(prog, &mut |e| {
            if is_raw_cast_of(e, addr_var, false) {
                if let Expr::Cast(inner, _) = e {
                    **inner = orig.clone();
                }
            }
        }),
        Site::BoolFromComparison => map_exprs(prog, &mut |e| {
            if is_u8_to_bool(e) {
                if let Expr::Builtin(_, _, args) = e {
                    *e = Expr::Binary(
                        BinOp::Ne,
                        Box::new(args[0].clone()),
                        Box::new(int_lit(0, IntTy::U8)),
                    );
                }
            }
        }),
        Site::BytesToFromLe => map_exprs(prog, &mut |e| {
            if let Some((narrow, target, arg)) = from_le_parts(e) {
                let inner = Expr::Builtin(
                    BuiltinKind::FromLeBytes,
                    vec![Ty::Int(narrow)],
                    vec![arg.clone()],
                );
                *e = if narrow == target {
                    inner
                } else {
                    Expr::Cast(Box::new(inner), Ty::Int(target))
                };
            }
        }),
        Site::BorrowLocal { local } => map_exprs(prog, &mut |e| {
            if usize_to_ref_target(e).is_some() {
                *e = Expr::AddrOf(Mutability::Not, Box::new(Expr::Var(local.to_owned())));
            }
        }),
        Site::DirectFnUse { func } => map_exprs(prog, &mut |e| {
            if usize_to_fn_ptr(e).is_some() {
                *e = Expr::Var(func.to_owned());
            }
        }),
        Site::FixFnPtrSignature {
            name,
            src_ty,
            fn_expr,
            src_arity,
        } => {
            for f in &mut prog.funcs {
                for s in &mut f.body.stmts {
                    rebind_fn_ptr(s, name, src_ty, fn_expr);
                }
            }
            map_exprs(prog, &mut |e| {
                if needs_padding(e, name, src_arity) {
                    if let Expr::CallPtr(_, args) = e {
                        args.resize(src_arity, int_lit(1, IntTy::I32));
                    }
                }
            });
        }
        Site::UseAtomics { statics } => {
            if let Some(main) = main_body(prog) {
                for s in &mut main.stmts {
                    if let Stmt::Spawn(body) = s {
                        atomicise_block(body, statics);
                    }
                }
            }
        }
        Site::Widen(path) => {
            rewrite_stmt_at(prog, path, &mut |e| match e {
                Expr::Builtin(
                    b @ (BuiltinKind::UncheckedAdd
                    | BuiltinKind::UncheckedSub
                    | BuiltinKind::UncheckedMul),
                    tys,
                    args,
                ) if matches!(tys.first(), Some(Ty::Int(IntTy::I32))) => {
                    let op = match b {
                        BuiltinKind::UncheckedAdd => BinOp::Add,
                        BuiltinKind::UncheckedSub => BinOp::Sub,
                        _ => BinOp::Mul,
                    };
                    *e = Expr::Binary(
                        op,
                        Box::new(Expr::Cast(Box::new(args[0].clone()), Ty::Int(IntTy::I64))),
                        Box::new(Expr::Cast(Box::new(args[1].clone()), Ty::Int(IntTy::I64))),
                    );
                }
                Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b)
                    if !matches!(**a, Expr::Cast(..)) =>
                {
                    *e = Expr::Binary(
                        *op,
                        Box::new(Expr::Cast(a.clone(), Ty::Int(IntTy::I64))),
                        Box::new(Expr::Cast(b.clone(), Ty::Int(IntTy::I64))),
                    );
                }
                _ => {}
            });
        }
        Site::UseRawMutDirect { rname, target } => map_exprs(prog, &mut |e| {
            if is_raw_cast_of(e, rname, true) {
                *e = Expr::RawAddrOf(Mutability::Mut, Box::new(target.clone()));
            }
        }),
        Site::Guard {
            path,
            stmt,
            op,
            lhs,
            rhs,
        } => {
            let guarded = Stmt::If {
                cond: Expr::Binary(op, Box::new(lhs.clone()), Box::new(Expr::i32(rhs))),
                then_blk: Block::new(vec![stmt.clone()]),
                else_blk: Some(Block::new(vec![Stmt::Print(Expr::i32(0))])),
            };
            replace_stmt(prog, path, guarded);
        }
        Site::WeakenAssert(path) => {
            if let Some(Stmt::Assert { cond, msg }) = get_stmt_mut(prog, path) {
                if let Expr::Binary(_, lhs, _) = cond {
                    *cond = Expr::Binary(BinOp::Ge, lhs.clone(), Box::new(Expr::i32(0)));
                    *msg = "value negative".into();
                }
            }
        }
        Site::AssertNonNull { path, pvar } => {
            let assert = Stmt::Unsafe(Block::new(vec![Stmt::Assert {
                cond: Expr::Binary(
                    BinOp::Ne,
                    Box::new(Expr::Builtin(
                        BuiltinKind::PtrAddr,
                        Vec::new(),
                        vec![Expr::Var(pvar.to_owned())],
                    )),
                    Box::new(Expr::int(0, IntTy::Usize)),
                ),
                msg: "null pointer".into(),
            }]));
            insert_before(prog, path, assert);
        }
        Site::LockSpawnBodies => {
            if let Some(main) = main_body(prog) {
                for s in main.stmts.iter_mut().filter(|s| needs_lock(s)) {
                    if let Stmt::Spawn(body) = s {
                        let inner = std::mem::take(body);
                        body.stmts = vec![Stmt::Lock(1, inner)];
                    }
                }
            }
        }
        Site::Remove(path) => {
            remove_stmt(prog, path);
        }
        Site::FixDeallocLayout { path, size, align } => {
            rewrite_stmt_at(prog, path, &mut |e| {
                if let Expr::Builtin(BuiltinKind::Dealloc, _, args) = e {
                    args[1] = size.clone();
                    args[2] = align.clone();
                }
            });
        }
        Site::AddDealloc { var, size, align } => {
            if let Some(main) = main_body(prog) {
                main.stmts
                    .push(Stmt::Unsafe(Block::new(vec![Stmt::Expr(Expr::Builtin(
                        BuiltinKind::Dealloc,
                        Vec::new(),
                        vec![Expr::Var(var.to_owned()), size.clone(), align.clone()],
                    ))])));
            }
        }
        Site::Splice(i) => {
            if let Some(main) = main_body(prog) {
                if let Stmt::Scope(body) | Stmt::Unsafe(body) = main.stmts.remove(i) {
                    main.stmts.splice(i..i, body.stmts);
                }
            }
        }
        Site::MoveInMain { from, to } => {
            if let Some(main) = main_body(prog) {
                let stmt = main.stmts.remove(from);
                main.stmts.insert(to, stmt);
            }
        }
        Site::AlignOffset { path, up } => {
            rewrite_stmt_at(prog, path, &mut |e| {
                if let Some((new, t)) = snapped_offset(e, up) {
                    if let Expr::Builtin(_, _, args) = e {
                        args[1] = int_lit(new, t);
                    }
                }
            });
        }
        Site::InitializeBeforeRead { read, write } => {
            if let Some(main) = main_body(prog) {
                // Only the writes move: the rest of an unsafe block (say, a
                // dealloc) stays where it was.
                match main.stmts.remove(write) {
                    Stmt::Unsafe(body) => {
                        let (writes, rest): (Vec<Stmt>, Vec<Stmt>) =
                            body.stmts.into_iter().partition(stmt_writes_ptr);
                        if !rest.is_empty() {
                            main.stmts.insert(write, Stmt::Unsafe(Block::new(rest)));
                        }
                        main.stmts.insert(read, Stmt::Unsafe(Block::new(writes)));
                    }
                    other => main.stmts.insert(read, other),
                }
            }
        }
        Site::UnionField { field, unions } => map_exprs(prog, &mut |e| {
            if let Some((val, t)) = union_retype(e, field, unions) {
                if let Expr::UnionLit(_, f, v) = e {
                    *f = field.to_owned();
                    **v = Expr::Lit(Lit::Int(val, t));
                }
            }
        }),
        Site::SwapInBlock { path, i } => {
            if let Some(Stmt::Unsafe(body)) = get_stmt_mut(prog, path) {
                body.stmts.swap(i, i + 1);
            }
        }
        Site::SingleMutBorrow {
            keep,
            drop,
            drop_path,
        } => {
            remove_stmt(prog, &drop_path);
            map_exprs(prog, &mut |e| {
                if matches!(e, Expr::Var(n) if n == drop) {
                    *e = Expr::Var(keep.to_owned());
                }
            });
        }
        Site::TailCallReturn { path, name, args } => {
            let call = Expr::Call(name.to_owned(), args.to_vec());
            replace_stmt(prog, &path, Stmt::Return(Some(call)));
        }
        Site::TailCallThenReturn {
            path,
            name,
            args,
            param,
        } => {
            let call = Expr::Call(name.to_owned(), args.to_vec());
            let ret = param.map_or(Expr::i32(0), Expr::var);
            replace_stmt(prog, &path, Stmt::Expr(call));
            insert_after(prog, &path, Stmt::Return(Some(ret)));
        }
        Site::FixLiteralIndex { len } => {
            for f in &mut prog.funcs {
                for s in &mut f.body.stmts {
                    if let Some((name, t)) = oob_index_let(s, len) {
                        *s = Stmt::Let {
                            name: name.to_owned(),
                            ty: Ty::Int(t),
                            init: int_lit(len as i64 - 1, t),
                        };
                    }
                }
            }
        }
        Site::CopyWithoutOverlap => map_exprs(prog, &mut |e| {
            if let Some((count, t)) = overlap_fix(e) {
                if let Expr::Builtin(_, _, args) = e {
                    if let Expr::Builtin(_, _, off_args) = &mut args[1] {
                        off_args[1] = int_lit(count, t);
                    }
                }
            }
        }),
        Site::Duplicate { path, stmt } => {
            insert_after(prog, path, stmt.clone());
        }
        Site::PerturbLiteral(path) => {
            let mut done = false;
            rewrite_stmt_at(prog, path, &mut |e| {
                if done {
                    return;
                }
                if let Expr::Lit(Lit::Int(v, t)) = e {
                    *e = Expr::Lit(Lit::Int(t.wrap(*v + 1), *t));
                    done = true;
                }
            });
        }
        Site::Disable { path, stmt } => {
            let disabled = Stmt::If {
                cond: Expr::Lit(Lit::Bool(false)),
                then_blk: Block::new(vec![stmt.clone()]),
                else_blk: None,
            };
            replace_stmt(prog, path, disabled);
        }
        Site::BreakBinding(i) => {
            if let Some(Stmt::Let { name, .. }) = main_body(prog).and_then(|m| m.stmts.get_mut(i)) {
                name.push_str("_renamed");
            }
        }
        Site::BreakTypes(i) => {
            if let Some(Stmt::Let { ty, .. }) = main_body(prog).and_then(|m| m.stmts.get_mut(i)) {
                *ty = Ty::Bool;
            }
        }
    }
}

// ---- shared helpers ---------------------------------------------------------

fn main_fn(prog: &Program) -> Option<&Function> {
    prog.funcs.iter().find(|f| f.name == "main")
}

fn main_body(prog: &mut Program) -> Option<&mut Block> {
    prog.funcs
        .iter_mut()
        .find(|f| f.name == "main")
        .map(|f| &mut f.body)
}

/// The diagnostic's path and the statement it addresses.
fn stmt_at<'p>(prog: &'p Program, err: &'p MiriError) -> Option<(&'p StmtPath, &'p Stmt)> {
    let path = err.path.as_ref()?;
    get_stmt(prog, path).map(|s| (path, s))
}

/// Does the statement (recursively) contain an expression matching `pred`?
fn stmt_contains(s: &Stmt, mut pred: impl FnMut(&Expr) -> bool) -> bool {
    let mut found = false;
    walk_exprs_in_stmt(s, &mut |e| found = found || pred(e));
    found
}

/// Visits, in pre-order, every expression of a statement and of all
/// statements in nested blocks.
fn deep_exprs<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    for_each_expr_in_stmt(s, &mut *f);
    for br in 0..child_branches(s) {
        if let Some(b) = child_block(s, br) {
            for inner in &b.stmts {
                deep_exprs(inner, f);
            }
        }
    }
}

/// Rewrites every expression in the statement at `path` (recursively).
fn rewrite_stmt_at(prog: &mut Program, path: &StmtPath, f: &mut dyn FnMut(&mut Expr)) {
    if let Some(stmt) = get_stmt_mut(prog, path) {
        map_exprs_in_stmt(stmt, &mut |e| f(e));
    }
}

fn int_lit(v: i64, t: IntTy) -> Expr {
    Expr::Lit(Lit::Int(i128::from(v), t))
}

/// Finds, program-wide, the pointer-variable name and layout arguments of
/// the first `alloc` call assigned to a variable.
fn find_alloc(prog: &Program) -> Option<(&str, &Expr, &Expr)> {
    let mut found = None;
    walk_stmts(prog, |s| {
        if found.is_some() {
            return;
        }
        if let Stmt::Let {
            name,
            init: Expr::Builtin(BuiltinKind::Alloc, _, args),
            ..
        }
        | Stmt::Assign {
            place: Expr::Var(name),
            value: Expr::Builtin(BuiltinKind::Alloc, _, args),
        } = s
        {
            found = Some((name.as_str(), &args[0], &args[1]));
        }
    });
    found
}

/// The length of the last `let arr: [T; N]` in the program (0 if none).
fn last_array_len(prog: &Program) -> usize {
    let mut len = 0;
    walk_stmts(prog, |s| {
        if let Stmt::Let {
            ty: Ty::Array(_, n),
            ..
        } = s
        {
            len = *n;
        }
    });
    len
}

fn is_dealloc(e: &Expr) -> bool {
    matches!(e, Expr::Builtin(BuiltinKind::Dealloc, ..))
}

fn stmt_deallocs(s: &Stmt) -> bool {
    stmt_contains(s, is_dealloc)
}

fn stmt_writes_ptr(s: &Stmt) -> bool {
    stmt_contains(s, |e| matches!(e, Expr::Builtin(BuiltinKind::PtrWrite, ..)))
}

// ---- safe replacement ---------------------------------------------------------

/// A cast of the variable `var` to a raw pointer: any raw-pointer type, or
/// only `*mut T` when `mutable_only` is set.
fn is_raw_cast_of(e: &Expr, var: &str, mutable_only: bool) -> bool {
    match e {
        Expr::Cast(inner, Ty::RawPtr(_, m)) => {
            (!mutable_only || *m == Mutability::Mut) && matches!(&**inner, Expr::Var(n) if n == var)
        }
        _ => false,
    }
}

/// For provenance errors: a pointer variable was built from an integer
/// (`addr as *const T`, where `addr` came from `p as usize`, `ptr_addr(p)`
/// or `transmute(r)`). Rewire the laundered pointer's initialiser to borrow
/// directly from the original pointer/reference.
fn locate_direct_pointer<'p>(prog: &'p Program, err: &MiriError) -> Option<Site<'p>> {
    if !matches!(err.kind, UbKind::NoProvenance) {
        return None;
    }
    // Step 1: find `addr` definitions and their pointer origin.
    let mut origin: Option<(&str, &Expr)> = None; // (addr_var, original ptr expr)
    walk_stmts(prog, |s| {
        if origin.is_some() {
            return;
        }
        if let Stmt::Let { name, init, .. } = s {
            match init {
                Expr::Cast(inner, Ty::Int(IntTy::Usize)) => {
                    origin = Some((name.as_str(), &**inner))
                }
                Expr::Builtin(BuiltinKind::PtrAddr, _, args) => {
                    origin = Some((name.as_str(), &args[0]));
                }
                Expr::Builtin(BuiltinKind::Transmute, tys, args)
                    if matches!(tys.first(), Some(Ty::Ref(..) | Ty::RawPtr(..)))
                        && matches!(tys.get(1), Some(Ty::Int(IntTy::Usize))) =>
                {
                    origin = Some((name.as_str(), &args[0]));
                }
                _ => {}
            }
        }
    });
    let (addr_var, orig) = origin?;
    // Step 2: some `<addr_var> as *const T` must exist to rewrite.
    any_expr(prog, |e| is_raw_cast_of(e, addr_var, false))
        .then_some(Site::UseDirectPointer { addr_var, orig })
}

/// `transmute::<u8, bool>(x)`, rewritten to `x != 0u8`.
fn is_u8_to_bool(e: &Expr) -> bool {
    matches!(e, Expr::Builtin(BuiltinKind::Transmute, tys, _)
        if tys.len() == 2 && tys[1] == Ty::Bool && tys[0] == Ty::Int(IntTy::U8))
}

/// A size-mismatched `transmute::<[u8; N], Int>(a)`, rewritten to
/// `from_le_bytes::<uintN>(a) as Int`: returns `(uintN, Int, a)`.
fn from_le_parts(e: &Expr) -> Option<(IntTy, IntTy, &Expr)> {
    let Expr::Builtin(BuiltinKind::Transmute, tys, args) = e else {
        return None;
    };
    let (Some(Ty::Array(elem, n)), Some(Ty::Int(target))) = (tys.first(), tys.get(1)) else {
        return None;
    };
    if **elem != Ty::Int(IntTy::U8) {
        return None;
    }
    let narrow = match n {
        1 => IntTy::U8,
        2 => IntTy::U16,
        4 => IntTy::U32,
        8 => IntTy::U64,
        _ => return None,
    };
    Some((narrow, *target, &args[0]))
}

/// `transmute::<usize, &T>(k)`: returns `T`.
fn usize_to_ref_target(e: &Expr) -> Option<&Ty> {
    let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e else {
        return None;
    };
    match (tys.first(), tys.get(1)) {
        (Some(Ty::Int(IntTy::Usize)), Some(Ty::Ref(inner, _))) => Some(inner),
        _ => None,
    }
}

/// `transmute::<usize, &T>(k)` → `&local` for some in-scope local of type T.
fn locate_borrow_local(prog: &Program) -> Option<Site<'_>> {
    // Find a local of the target type declared in main before the transmute.
    fn scan<'p>(b: &'p Block, locals: &mut Vec<(&'p str, &'p Ty)>, target: &mut Option<&'p str>) {
        for s in &b.stmts {
            if let Stmt::Let { name, ty, .. } = s {
                locals.push((name.as_str(), ty));
            }
            let mut hit = None;
            for_each_expr_in_stmt(s, |e| {
                if let Some(want) = usize_to_ref_target(e) {
                    hit = Some(want);
                }
            });
            if let Some(want) = hit {
                if target.is_none() {
                    *target = locals.iter().find(|(_, t)| *t == want).map(|(n, _)| *n);
                }
            }
            if let Stmt::Unsafe(i) | Stmt::Scope(i) | Stmt::Spawn(i) | Stmt::Lock(_, i) = s {
                scan(i, locals, target);
            }
        }
    }
    let mut target = None;
    scan(&main_fn(prog)?.body, &mut Vec::new(), &mut target);
    target.map(|local| Site::BorrowLocal { local })
}

/// `transmute::<usize, fn..>(addr)`: returns the fn-pointer type.
fn usize_to_fn_ptr(e: &Expr) -> Option<&Ty> {
    let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e else {
        return None;
    };
    match (tys.first(), tys.get(1)) {
        (Some(Ty::Int(IntTy::Usize)), Some(fn_ty @ Ty::FnPtr(..))) => Some(fn_ty),
        _ => None,
    }
}

/// `transmute::<usize, fn..>(addr)` → a real function with that signature.
fn locate_direct_fn(prog: &Program) -> Option<Site<'_>> {
    // The signature of the last such transmute decides the function.
    let mut want = None;
    for f in &prog.funcs {
        for s in &f.body.stmts {
            deep_exprs(s, &mut |e| {
                if let Some(t) = usize_to_fn_ptr(e) {
                    want = Some(t);
                }
            });
        }
    }
    let want = want?;
    let func = prog
        .funcs
        .iter()
        .find(|f| f.name != "main" && f.fn_ptr_ty() == *want)?;
    Some(Site::DirectFnUse { func: &func.name })
}

/// A fn pointer transmuted between signatures: re-type the binding to the
/// source signature and pad call sites with `1` literals.
fn locate_fnptr_signature(prog: &Program) -> Option<Site<'_>> {
    // Find `let f: fn(..) = transmute::<fnA, fnB>(g)`.
    let mut hit = None;
    walk_stmts(prog, |s| {
        if hit.is_some() {
            return;
        }
        if let Stmt::Let {
            name,
            init: Expr::Builtin(BuiltinKind::Transmute, tys, args),
            ..
        } = s
        {
            if let (Some(src_ty @ Ty::FnPtr(sp, _)), Some(Ty::FnPtr(..))) =
                (tys.first(), tys.get(1))
            {
                hit = Some((name.as_str(), src_ty, &args[0], sp.len()));
            }
        }
    });
    let (name, src_ty, fn_expr, src_arity) = hit?;
    // The edit changes something when the binding is reachable (loop
    // bodies are not searched) or some call needs padding.
    let rebinds = prog
        .funcs
        .iter()
        .flat_map(|f| &f.body.stmts)
        .any(|s| has_fn_ptr_binding(s, name));
    (rebinds || any_expr(prog, |e| needs_padding(e, name, src_arity))).then_some(
        Site::FixFnPtrSignature {
            name,
            src_ty,
            fn_expr,
            src_arity,
        },
    )
}

/// The transmuted binding `let <fname> = transmute(..)` that
/// [`rebind_fn_ptr`] rewrites.
fn is_fn_ptr_binding(s: &Stmt, fname: &str) -> bool {
    matches!(s, Stmt::Let { name, init: Expr::Builtin(BuiltinKind::Transmute, ..), .. } if name == fname)
}

/// The blocks [`rebind_fn_ptr`] descends into (not loop bodies).
fn rebind_blocks(s: &Stmt) -> impl Iterator<Item = &Block> {
    let (a, b) = match s {
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => (Some(b), None),
        Stmt::If {
            then_blk, else_blk, ..
        } => (Some(then_blk), else_blk.as_ref()),
        _ => (None, None),
    };
    a.into_iter().chain(b)
}

fn has_fn_ptr_binding(s: &Stmt, fname: &str) -> bool {
    is_fn_ptr_binding(s, fname)
        || rebind_blocks(s).any(|b| b.stmts.iter().any(|inner| has_fn_ptr_binding(inner, fname)))
}

fn rebind_fn_ptr(s: &mut Stmt, fname: &str, src_ty: &Ty, fn_expr: &Expr) {
    if is_fn_ptr_binding(s, fname) {
        if let Stmt::Let { ty, init, .. } = s {
            *ty = src_ty.clone();
            *init = fn_expr.clone();
        }
        return;
    }
    let (a, b) = match s {
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => (Some(b), None),
        Stmt::If {
            then_blk, else_blk, ..
        } => (Some(then_blk), else_blk.as_mut()),
        _ => (None, None),
    };
    for block in a.into_iter().chain(b) {
        for inner in &mut block.stmts {
            rebind_fn_ptr(inner, fname, src_ty, fn_expr);
        }
    }
}

/// A call through `fname` with fewer arguments than the source signature.
fn needs_padding(e: &Expr, fname: &str, arity: usize) -> bool {
    matches!(e, Expr::CallPtr(callee, args)
        if matches!(&**callee, Expr::Var(n) if n == fname) && args.len() < arity)
}

fn is_mut_static(statics: &[StaticDef], name: &str) -> bool {
    statics.iter().any(|s| s.mutable && s.name == name)
}

/// Inside every `spawn` block, turn plain mutable-static accesses into
/// atomic operations.
fn locate_atomics(prog: &Program) -> Option<Site<'_>> {
    if !prog.statics.iter().any(|s| s.mutable) {
        return None;
    }
    let statics = &prog.statics;
    main_fn(prog)?
        .body
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Spawn(body) if touches_statics(body, statics)))
        .then_some(Site::UseAtomics { statics })
}

/// Whether [`atomicise_block`] would change anything in `b`.
fn touches_statics(b: &Block, statics: &[StaticDef]) -> bool {
    b.stmts.iter().any(|s| match s {
        Stmt::Assign {
            place: Expr::StaticRef(g),
            ..
        } => is_mut_static(statics, g),
        Stmt::Unsafe(inner) => touches_statics(inner, statics),
        Stmt::Print(e) => {
            let mut hit = false;
            walk_expr(e, &mut |x| {
                hit = hit || matches!(x, Expr::StaticRef(n) if is_mut_static(statics, n));
            });
            hit
        }
        _ => false,
    })
}

fn atomicise_block(b: &mut Block, statics: &[StaticDef]) {
    let mut new_stmts = Vec::with_capacity(b.stmts.len());
    for mut s in std::mem::take(&mut b.stmts) {
        match s {
            Stmt::Assign {
                place: Expr::StaticRef(g),
                mut value,
            } if is_mut_static(statics, &g) => {
                map_expr(&mut value, &mut |e| {
                    if matches!(e, Expr::StaticRef(n) if *n == g) {
                        *e = Expr::Builtin(
                            BuiltinKind::AtomicLoad,
                            Vec::new(),
                            vec![Expr::StaticRef(g.clone())],
                        );
                    }
                });
                new_stmts.push(Stmt::Expr(Expr::Builtin(
                    BuiltinKind::AtomicStore,
                    Vec::new(),
                    vec![Expr::StaticRef(g.clone()), value],
                )));
            }
            Stmt::Unsafe(ref mut inner) => {
                atomicise_block(inner, statics);
                // If the unsafe block now contains only safe atomic ops,
                // keep it anyway (harmless).
                new_stmts.push(s);
            }
            Stmt::Print(mut e) => {
                map_expr(&mut e, &mut |x| {
                    if let Expr::StaticRef(n) = x {
                        if is_mut_static(statics, n) {
                            *x = Expr::Builtin(
                                BuiltinKind::AtomicLoad,
                                Vec::new(),
                                vec![Expr::StaticRef(n.clone())],
                            );
                        }
                    }
                });
                new_stmts.push(Stmt::Print(e));
            }
            other => new_stmts.push(other),
        }
    }
    b.stmts = new_stmts;
}

/// `let r: &T = &x; let p = r as *mut T;` → `let p: *mut T = &raw mut x;`
fn locate_raw_mut_direct(prog: &Program) -> Option<Site<'_>> {
    // Find the shared-ref binding.
    let mut ref_bind = None;
    walk_stmts(prog, |s| {
        if ref_bind.is_some() {
            return;
        }
        if let Stmt::Let {
            name,
            ty: Ty::Ref(_, Mutability::Not),
            init: Expr::AddrOf(Mutability::Not, target),
        } = s
        {
            ref_bind = Some((name.as_str(), &**target));
        }
    });
    let (rname, target) = ref_bind?;
    any_expr(prog, |e| is_raw_cast_of(e, rname, true))
        .then_some(Site::UseRawMutDirect { rname, target })
}

// ---- assertion / guarding -----------------------------------------------------

/// Wrap `print(a / b)` in `if b != 0 { .. } else { print(0); }`.
fn locate_guard_division<'p>(prog: &'p Program, err: &'p MiriError) -> Option<Site<'p>> {
    let (path, stmt) = stmt_at(prog, err).filter(|_| err.kind == UbKind::PanicDivZero)?;
    let mut divisor = None;
    walk_exprs_in_stmt(stmt, &mut |e| {
        if let Expr::Binary(BinOp::Div | BinOp::Rem, _, b) = e {
            divisor = Some(&**b);
        }
    });
    Some(Site::Guard {
        path,
        stmt,
        op: BinOp::Ne,
        lhs: divisor?,
        rhs: 0,
    })
}

/// Wrap an indexing statement in a bounds guard (passes Miri, but skips the
/// operation — often semantically unacceptable, which is the point).
fn locate_guard_index<'p>(prog: &'p Program, err: &'p MiriError) -> Option<Site<'p>> {
    let (path, stmt) = stmt_at(prog, err).filter(|_| err.kind == UbKind::PanicIndex)?;
    let mut index = None;
    walk_exprs_in_stmt(stmt, &mut |e| {
        if let Expr::Index(_, idx) = e {
            index = Some(&**idx);
        }
    });
    let index = index?;
    // The array length comes from a `let arr: [T; N]`.
    let len = last_array_len(prog);
    (len != 0).then_some(Site::Guard {
        path,
        stmt,
        op: BinOp::Lt,
        lhs: index,
        rhs: len as i32,
    })
}

/// Insert `assert(ptr_addr(p) != 0, ..)` before the faulting statement — a
/// plausible assertion that rarely fixes real UB (kept because real LLMs
/// propose it constantly).
fn locate_assert_non_null<'p>(prog: &'p Program, err: &'p MiriError) -> Option<Site<'p>> {
    let (path, stmt) = stmt_at(prog, err)?;
    // The last variable in the pointer operand of the first pointer read or
    // write (that has one) in the statement.
    let mut pvar = None;
    deep_exprs(stmt, &mut |e| {
        if pvar.is_none() {
            if let Expr::Builtin(BuiltinKind::PtrRead | BuiltinKind::PtrWrite, _, args) = e {
                walk_expr_post(&args[0], &mut |x| {
                    if let Expr::Var(n) = x {
                        pvar = Some(n.as_str());
                    }
                });
            }
        }
    });
    Some(Site::AssertNonNull { path, pvar: pvar? })
}

/// A spawned body that is not yet wrapped in a lock.
fn needs_lock(s: &Stmt) -> bool {
    matches!(s, Stmt::Spawn(body)
        if !(body.stmts.len() == 1 && matches!(body.stmts[0], Stmt::Lock(..))))
}

// ---- semantic modification -----------------------------------------------------

/// A scope that leaks a raw pointer to one of its locals.
fn scope_escapes(s: &Stmt) -> bool {
    matches!(s, Stmt::Scope(body) if body
        .stmts
        .iter()
        .any(|inner| stmt_contains(inner, |e| matches!(e, Expr::RawAddrOf(..)))))
}

/// The snapped literal a `ptr_offset(p, lit)` gets: 0 (`up == false`) or
/// `lit` rounded up to 4, the common read alignment. `None` when the
/// expression is no such offset or is already snapped.
fn snapped_offset(e: &Expr, up: bool) -> Option<(i64, IntTy)> {
    let Expr::Builtin(BuiltinKind::PtrOffset, _, args) = e else {
        return None;
    };
    let Expr::Lit(Lit::Int(v, t)) = &args[1] else {
        return None;
    };
    let new = if up {
        ((*v as i64 + 3) / 4 * 4).max(4)
    } else {
        0
    };
    (new != *v as i64).then_some((new, *t))
}

fn locate_align_offset<'p>(prog: &'p Program, err: &'p MiriError, up: bool) -> Option<Site<'p>> {
    if !matches!(
        err.kind,
        UbKind::OutOfBounds
            | UbKind::UnalignedAccess
            | UbKind::UseAfterFree
            | UbKind::UninitRead
            | UbKind::CrossAllocation
    ) {
        return None;
    }
    let (path, stmt) = stmt_at(prog, err)?;
    stmt_contains(stmt, |e| snapped_offset(e, up).is_some())
        .then_some(Site::AlignOffset { path, up })
}

/// Move the initialising `ptr_write` before the faulting read.
fn locate_initialize_before_read<'p>(prog: &'p Program, err: &MiriError) -> Option<Site<'p>> {
    if !matches!(
        err.kind,
        UbKind::UninitRead
            | UbKind::Precondition
            | UbKind::UseAfterFree
            | UbKind::UseAfterScope
            | UbKind::InvalidValue
    ) {
        return None;
    }
    let read = err.path.as_ref()?.steps.first()?.0;
    // A later statement of main containing a ptr_write.
    let write = main_fn(prog)?
        .body
        .stmts
        .iter()
        .enumerate()
        .skip(read + 1)
        .find(|(_, s)| stmt_writes_ptr(s))?
        .0;
    Some(Site::InitializeBeforeRead { read, write })
}

/// The literal `e` becomes when it is a union literal initialising another
/// field than `field`, whose type for `field` is an integer.
fn union_retype(e: &Expr, field: &str, unions: &[UnionDef]) -> Option<(i128, IntTy)> {
    let Expr::UnionLit(u, f, v) = e else {
        return None;
    };
    if f == field {
        return None;
    }
    let def = unions.iter().find(|d| d.name == *u)?;
    let (_, fty) = def.fields.iter().find(|(n, _)| n == field)?;
    match (&**v, fty) {
        (Expr::Lit(Lit::Int(val, _)), Ty::Int(t)) => Some((*val, *t)),
        _ => None,
    }
}

/// Rewrite `U { small: v u8 }` so the field actually read is initialised.
fn locate_union_field(prog: &Program) -> Option<Site<'_>> {
    // Which field is read (the last read wins)?
    let mut read_field = None;
    walk_stmts(prog, |s| {
        for_each_expr_in_stmt(s, |e| {
            if let Expr::UnionField(_, f) = e {
                read_field = Some(f.as_str());
            }
        });
    });
    let field = read_field?;
    let unions = &prog.unions;
    any_expr(prog, |e| union_retype(e, field, unions).is_some())
        .then_some(Site::UnionField { field, unions })
}

/// In a faulting unsafe block `[.., let p = &raw _ / &_, assign, ..]`: the
/// index of the `let`, so swapping it with the assignment takes the
/// pointer/reference *after* the conflicting write.
fn retake_index(body: &Block) -> Option<usize> {
    body.stmts.windows(2).position(|w| {
        matches!(
            w,
            [
                Stmt::Let {
                    init: Expr::RawAddrOf(..) | Expr::AddrOf(..),
                    ..
                },
                Stmt::Assign { .. }
            ]
        )
    })
}

/// Remove the second of two `&mut` reborrows and redirect its uses.
fn locate_single_mut_borrow(prog: &Program) -> Option<Site<'_>> {
    // Find two let-bindings of `&mut same-var`.
    let mut first: Option<(&str, &str)> = None; // (name, target)
    let mut second: Option<(&str, StmtPath)> = None;
    for_each_stmt(prog, |s, p| {
        if let Stmt::Let {
            name,
            init: Expr::AddrOf(Mutability::Mut, t),
            ..
        } = s
        {
            if let Expr::Var(target) = &**t {
                match first {
                    None => first = Some((name.as_str(), target.as_str())),
                    Some((_, ft)) if ft == target && second.is_none() => {
                        second = Some((name.as_str(), p.clone()));
                    }
                    _ => {}
                }
            }
        }
    });
    let (keep, _) = first?;
    let (drop, drop_path) = second?;
    Some(Site::SingleMutBorrow {
        keep,
        drop,
        drop_path,
    })
}

/// Move a main-thread statement that races with spawned threads after the
/// `join`.
fn locate_read_before_join(prog: &Program) -> Option<Site<'_>> {
    let stmts = &main_fn(prog)?.body.stmts;
    let join = stmts.iter().position(|s| matches!(s, Stmt::JoinAll))?;
    // A statement between the first spawn and the join that touches a static.
    let spawn = stmts.iter().position(|s| matches!(s, Stmt::Spawn(_)))?;
    let victim = (spawn + 1..join).find(|&i| {
        !matches!(stmts[i], Stmt::Spawn(_))
            && stmt_contains(&stmts[i], |e| matches!(e, Expr::StaticRef(_)))
    })?;
    // Removing the victim shifts the join left by one, so inserting at the
    // join's old index lands right after it.
    Some(Site::MoveInMain {
        from: victim,
        to: join,
    })
}

/// Turn `tailcall f(args)` into a plain call (+ return of the first param
/// when the callee returns unit but the caller does not).
fn locate_tailcall(prog: &Program) -> Option<Site<'_>> {
    let mut target = None;
    for_each_stmt(prog, |s, p| {
        if target.is_none() {
            if let Stmt::TailCall(name, args) = s {
                target = Some((p.clone(), name.as_str(), args.as_slice()));
            }
        }
    });
    let (path, name, args) = target?;
    let callee_ret = &prog.func(name)?.ret;
    let caller = prog.funcs.get(path.func)?;
    if *callee_ret == caller.ret {
        Some(Site::TailCallReturn { path, name, args })
    } else if *callee_ret == Ty::Unit {
        let param = caller.params.first().map(|(n, _)| n.as_str());
        Some(Site::TailCallThenReturn {
            path,
            name,
            args,
            param,
        })
    } else {
        None
    }
}

/// A top-level `let <index var> = <literal >= len>`: its name and type.
fn oob_index_let(s: &Stmt, len: usize) -> Option<(&str, IntTy)> {
    match s {
        Stmt::Let {
            name,
            init: Expr::Lit(Lit::Int(v, t)),
            ..
        } if (name.contains("idx") || name.contains('i')) && *v >= len as i128 => {
            Some((name.as_str(), *t))
        }
        _ => None,
    }
}

/// `copy_nonoverlapping(src, ptr_offset(p, lit), count)` with `lit <
/// count`: the destination offset (`count`) that separates the ranges.
fn overlap_fix(e: &Expr) -> Option<(i64, IntTy)> {
    let Expr::Builtin(BuiltinKind::CopyNonoverlapping, _, args) = e else {
        return None;
    };
    let Expr::Lit(Lit::Int(n, _)) = &args[2] else {
        return None;
    };
    let count = *n as i64;
    let Expr::Builtin(BuiltinKind::PtrOffset, _, off_args) = &args[1] else {
        return None;
    };
    let Expr::Lit(Lit::Int(v, t)) = &off_args[1] else {
        return None;
    };
    ((*v as i64) < count).then_some((count, *t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_miri::run_program;

    fn first_error(prog: &Program) -> MiriError {
        run_program(prog)
            .errors
            .first()
            .cloned()
            .expect("buggy program must fail")
    }

    fn parse(src: &str) -> Program {
        rb_lang::parser::parse_program(src).unwrap()
    }

    #[test]
    fn rule_kinds_partition() {
        for r in RepairRule::ALL {
            let _ = r.kind();
            assert!(!r.name().is_empty());
        }
        for h in RepairRule::HALLUCINATIONS {
            assert_eq!(h.kind(), RuleKind::Hallucination);
        }
    }

    #[test]
    fn remove_double_free_fixes() {
        let p = parse(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        );
        let err = first_error(&p);
        assert_eq!(err.kind, UbKind::DoubleFree);
        let fixed = RepairRule::RemoveDoubleFree
            .apply(&p, &err)
            .expect("applies");
        assert!(
            run_program(&fixed).passes(),
            "{:?}",
            run_program(&fixed).errors
        );
    }

    #[test]
    fn bool_from_comparison_fixes() {
        let p = parse(
            "fn main() { let x: u8 = 5u8; \
             unsafe { let flag: bool = transmute::<u8, bool>(x); print(flag); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::BoolFromComparison
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["true"]);
    }

    #[test]
    fn from_le_bytes_fixes() {
        let p = parse(
            "fn main() { let n1: [u8; 2] = [23u8, 7u8]; \
             unsafe { let n2: u32 = transmute::<[u8; 2], u32>(n1); print(n2); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::TransmuteBytesToFromLe
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec![format!("{}", 23 + 7 * 256)]);
    }

    #[test]
    fn use_direct_pointer_fixes_provenance() {
        let p = parse(
            "fn main() { let val: i32 = 9; let p: *const i32 = &raw const val; \
             let addr: usize = p as usize; \
             let q: *const i32 = addr as *const i32; \
             unsafe { print(*q); } }",
        );
        let err = first_error(&p);
        assert_eq!(err.kind, UbKind::NoProvenance);
        let fixed = RepairRule::UseDirectPointer
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["9"]);
    }

    #[test]
    fn lock_spawn_bodies_fixes_race() {
        let p = parse(
            "static mut G: i32 = 0; fn main() { \
             spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } \
             join; unsafe { print(G); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::LockSpawnBodies
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
    }

    #[test]
    fn use_atomics_fixes_increment_race() {
        let p = parse(
            "static mut C: i32 = 0; fn main() { \
             spawn { unsafe { C = C + 1; } } spawn { unsafe { C = C + 1; } } \
             join; unsafe { print(C); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::UseAtomics.apply(&p, &err).expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["2"]);
    }

    #[test]
    fn hoist_local_out_fixes_dangling() {
        let p = parse(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } \
             unsafe { print(*q); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::HoistLocalOut.apply(&p, &err).expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["5"]);
    }

    #[test]
    fn reorder_dealloc_fixes_uaf() {
        let p = parse(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 7i32); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } }",
        );
        let err = first_error(&p);
        assert_eq!(err.kind, UbKind::UseAfterFree);
        let fixed = RepairRule::ReorderDeallocAfterUse
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["7"]);
    }

    #[test]
    fn widen_arithmetic_fixes_overflow() {
        let p = parse(
            "fn main() { let x: i32 = 2147483647; let d: i32 = 5; \
             unsafe { print(unchecked_add::<i32>(x, d)); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::WidenArithmetic
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["2147483652"]);
    }

    #[test]
    fn guard_division_fixes_panic() {
        let p = parse("fn main() { let d: i32 = 0; let n: i32 = 8; print(n / d); }");
        let err = first_error(&p);
        let fixed = RepairRule::GuardDivision.apply(&p, &err).expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["0"]);
    }

    #[test]
    fn single_mut_borrow_fixes_bothborrow() {
        let p = parse(
            "fn main() { let v: i32 = 1; unsafe { \
             let first: &mut i32 = &mut v; \
             let second: &mut i32 = &mut v; \
             *second = 9; print(*first); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::SingleMutBorrow
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["9"]);
    }

    #[test]
    fn tailcall_to_return_fixes() {
        let p = parse(
            "fn helper(x: i32, y: i32) -> i32 { return x + y; } \
             fn runner(x: i32) -> i32 { tailcall helper(x, 4); } \
             fn main() { print(runner(3)); }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::ReplaceTailCallWithReturn
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["7"]);
    }

    #[test]
    fn hallucinations_apply_but_rarely_fix() {
        let p = parse("fn main() { let d: i32 = 0; let n: i32 = 8; print(n / d); }");
        let err = first_error(&p);
        // Deleting the faulting statement "fixes" Miri but changes meaning.
        let deleted = RepairRule::DeleteStatement
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&deleted);
        assert!(r.passes());
        assert!(r.outputs.is_empty()); // outputs lost: semantically bad
    }

    #[test]
    fn candidates_nonempty_for_common_errors() {
        let p = parse(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        );
        let err = first_error(&p);
        let cands = RepairRule::candidates(&p, &err);
        assert!(cands.contains(&RepairRule::RemoveDoubleFree), "{cands:?}");
    }
}
