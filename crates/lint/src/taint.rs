//! Interprocedural secret-taint analysis (`taint.secret_to_*`).
//!
//! **Sources** — where secret material enters:
//! * bindings marked `// slicer-lint: secret` (file-scoped by name),
//! * parameters typed with the `slicer_crypto` key types
//!   ([`SECRET_TYPES`]),
//! * calls to the built-in secret getters ([`SECRET_GETTERS`]).
//!
//! **Sinks** — where it must never arrive:
//! * telemetry attribute/log/metric calls (`taint.secret_to_log`),
//! * `format!`-family macros, i.e. `Debug`/`Display` surfaces
//!   (`taint.secret_to_debug`),
//! * `slicer_persist` frame writers (`taint.secret_to_persist`),
//! * the daemon wire encoder (`taint.secret_to_wire`),
//! * non-constant-time `==`/`!=` on tainted operands
//!   (`taint.secret_to_ct`).
//!
//! **Sanitizers** discharge taint: hashing, PRF evaluation, SORE/symmetric
//! encryption, trapdoor-permutation operations, modular exponentiation and
//! the snapshot capture path ([`SANITIZERS`]).
//!
//! Taint is tracked per function as a bitmask — bit 63 is *secret*, bit
//! `i` means *flows from parameter `i`* — so one pass both finds concrete
//! leaks and builds a reusable summary (`returns taint from params {..};
//! param j reaches a log sink`). Summaries are computed to fixpoint over
//! the whole workspace call graph (monotone masks, so recursion
//! terminates), then a final emission pass reports each secret-to-sink
//! chain at the sink (or call) site. Sources are only seeded inside the
//! protocol crates ([`TAINT_CRATES`]); bench/test harnesses that handle
//! keys on purpose stay out of scope.

use crate::graph::{FnId, SymbolTable};
use crate::lexer::{Tok, TokKind};
use crate::parser::{FnDef, ParsedFile};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The taint rule family, in report order.
pub const TAINT_RULES: &[&str] = &[
    "taint.secret_to_log",
    "taint.secret_to_debug",
    "taint.secret_to_persist",
    "taint.secret_to_wire",
    "taint.secret_to_ct",
];

/// Crates where taint sources are seeded. Everything else (bench, workload,
/// testkit, the linter itself) handles key material only as a harness.
pub const TAINT_CRATES: &[&str] = &["crypto", "core", "sore", "trapdoor", "daemon", "persist"];

/// Types whose values are secret by construction (`slicer_crypto` /
/// `slicer_core` key material).
pub const SECRET_TYPES: &[&str] = &["Prf", "SymmetricKey", "KeySet", "TrapdoorKeyPair"];

/// Methods/functions returning secret material regardless of arguments.
pub const SECRET_GETTERS: &[&str] = &["prf_g", "record_key", "trapdoor", "trapdoor_salt"];

/// Calls whose result is sanctioned as public: one-way (hashing, PRF
/// evaluation), semantically public (ciphertexts, public keys), or the
/// audited key-seed-only snapshot path.
pub const SANITIZERS: &[&str] = &[
    "sha256",
    "eval",
    "eval128",
    "derive",
    "keyword_keys",
    "encrypt",
    "decrypt",
    "invert",
    "forward",
    "public",
    "hash_to_prime",
    "powmod",
    "modpow",
    "capture",
];

/// Methods whose result reveals only public structure of a tainted value.
const CLEAN_METHODS: &[&str] = &["len", "is_empty", "bit_len", "remaining"];

/// Telemetry sink methods; only treated as sinks when the first argument
/// is a string literal (the attribute/metric name), which distinguishes
/// `span.attr("k", v)` from unrelated methods sharing a name.
const LOG_SINKS: &[&str] = &["attr", "log", "count", "gauge"];

/// Formatting macros — `Debug`/`Display` surfaces.
const DEBUG_MACROS: &[&str] = &[
    "format", "println", "print", "eprintln", "eprint", "write", "writeln",
];

/// Durable-storage entry points in `slicer_persist`.
const PERSIST_SINKS: &[&str] = &["write_frames", "write_frames_at", "commit", "commit_delta"];

/// Wire-protocol encoder in `crates/daemon`.
const WIRE_SINKS: &[&str] = &["write_message"];

/// Names with more candidates than this are treated as unresolved calls
/// (argument taint still propagates conservatively, but their summaries'
/// sink reports are too ambiguous to attribute).
const AMBIG_LIMIT: usize = 3;

const SECRET_BIT: u64 = 1 << 63;

/// A function's interprocedural summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Return-value taint: `SECRET_BIT` and/or parameter-index bits.
    pub ret: u64,
    /// Parameters that (transitively) reach a sink inside this function,
    /// with the sink rule and a human-readable call chain.
    pub sinks: BTreeMap<u32, SinkHit>,
}

/// One parameter-to-sink flow recorded in a [`Summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkHit {
    /// The `taint.*` rule at the chain's end.
    pub rule: &'static str,
    /// `callee -> .. -> sink` description.
    pub chain: String,
}

/// Runs the whole-workspace taint analysis over parsed files and returns
/// findings (pragma suppression applied, deduplicated by site).
pub fn analyze(files: &[ParsedFile]) -> Vec<Finding> {
    let table = SymbolTable::build(files);
    let mut summaries: BTreeMap<FnId, Summary> = BTreeMap::new();

    // Fixpoint: masks and sink maps only grow, so this terminates; the
    // round cap is a backstop for pathological inputs.
    for _round in 0..12 {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut ctx = FnCtx::new(files, &table, &summaries, file, false);
                let summary = ctx.analyze_fn(f);
                let id = (fi, gi);
                if summaries.get(&id) != Some(&summary) {
                    summaries.insert(id, summary);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Emission pass.
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    for file in files {
        let mut file_findings = Vec::new();
        for f in &file.fns {
            let mut ctx = FnCtx::new(files, &table, &summaries, file, true);
            ctx.analyze_fn(f);
            file_findings.extend(ctx.findings);
        }
        suppress(&file.pragmas, &mut file_findings);
        for f in file_findings {
            if seen.insert((f.file.clone(), f.line, f.rule)) {
                findings.push(f);
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Debug aid: prints every function whose summary returns secret taint or
/// records a parameter-to-sink flow. Not part of the lint output.
pub fn debug_dump(files: &[ParsedFile]) {
    let table = SymbolTable::build(files);
    let mut summaries: BTreeMap<FnId, Summary> = BTreeMap::new();
    for _round in 0..12 {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut ctx = FnCtx::new(files, &table, &summaries, file, false);
                let summary = ctx.analyze_fn(f);
                if summaries.get(&(fi, gi)) != Some(&summary) {
                    summaries.insert((fi, gi), summary);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (&(fi, gi), s) in &summaries {
        let file = &files[fi];
        let f = &file.fns[gi];
        if s.ret & SECRET_BIT != 0 {
            println!("RET-SECRET {}:{} {}", file.path, f.line, f.name);
        }
        for (pi, hit) in &s.sinks {
            println!(
                "PARAM-SINK {}:{} {} param#{pi}({}) {} via {}",
                file.path,
                f.line,
                f.name,
                f.params.get(*pi as usize).map_or("?", |p| p.name.as_str()),
                hit.rule,
                hit.chain
            );
        }
    }
}

/// Applies valid `allow(..)` pragmas (own line + next) to taint findings.
fn suppress(pragmas: &[crate::lexer::Pragma], findings: &mut Vec<Finding>) {
    for p in pragmas {
        if !p.reason.is_empty() && TAINT_RULES.contains(&p.rule.as_str()) {
            findings.retain(|f| f.rule != p.rule || (f.line != p.line && f.line != p.line + 1));
        }
    }
}

/// Per-function analysis context: a recursive token walker that computes
/// expression taint masks, tracks variable bindings, applies summaries at
/// call sites and records sink hits.
struct FnCtx<'a> {
    files: &'a [ParsedFile],
    table: &'a SymbolTable,
    summaries: &'a BTreeMap<FnId, Summary>,
    file: &'a ParsedFile,
    /// Sources are only seeded in protocol crates.
    seed_sources: bool,
    emit: bool,
    vars: BTreeMap<String, u64>,
    param_sinks: BTreeMap<u32, SinkHit>,
    ret_mask: u64,
    findings: Vec<Finding>,
}

impl<'a> FnCtx<'a> {
    fn new(
        files: &'a [ParsedFile],
        table: &'a SymbolTable,
        summaries: &'a BTreeMap<FnId, Summary>,
        file: &'a ParsedFile,
        emit: bool,
    ) -> Self {
        FnCtx {
            files,
            table,
            summaries,
            file,
            seed_sources: TAINT_CRATES.contains(&file.krate.as_str()),
            emit,
            vars: BTreeMap::new(),
            param_sinks: BTreeMap::new(),
            ret_mask: 0,
            findings: Vec::new(),
        }
    }

    fn analyze_fn(&mut self, f: &FnDef) -> Summary {
        for (i, p) in f.params.iter().enumerate().take(62) {
            let mut mask = 1u64 << i;
            let secret_ty = SECRET_TYPES.iter().any(|t| type_mentions(&p.ty, t));
            if self.seed_sources && (secret_ty || self.file.secret_names.contains(&p.name)) {
                mask |= SECRET_BIT;
            }
            self.vars.insert(p.name.clone(), mask);
        }
        // Two passes so a name used before a later (re)binding in loop
        // bodies still converges; masks only grow, so this is monotone.
        // Return taint comes from `return` statements (recorded inside
        // `walk`) and the tail expression only — NOT the whole-body union,
        // which would claim every function touching a secret returns one.
        for _ in 0..2 {
            self.walk(&f.body, 0, f.body.len());
            self.ret_mask |= self.tail_expr_mask(&f.body);
        }
        Summary {
            ret: self.ret_mask,
            sinks: self.param_sinks.clone(),
        }
    }

    /// Mask of the body's tail expression (tokens after the last top-level
    /// `;` or `}`), i.e. the implicit return value.
    fn tail_expr_mask(&mut self, body: &[Tok]) -> u64 {
        let mut depth = 0usize;
        let mut tail_start = 0usize;
        for (i, t) in body.iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        tail_start = i + 1;
                    }
                }
                ";" if depth == 0 => tail_start = i + 1,
                _ => {}
            }
        }
        if tail_start < body.len() {
            self.walk(body, tail_start, body.len())
        } else {
            0
        }
    }

    /// Walks `toks[lo..hi]`, returning the union taint mask of the region.
    /// Handles `let`/assignments, call dispatch (sanitizers, getters,
    /// sinks, summaries), formatting macros and `==`/`!=` sinks.
    fn walk(&mut self, toks: &[Tok], lo: usize, hi: usize) -> u64 {
        let mut mask = 0u64;
        let mut i = lo;
        while i < hi {
            let t = &toks[i];
            let next = toks.get(i + 1).filter(|n| n.line > 0);
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "let") => {
                    i = self.handle_let(toks, i, hi);
                    continue;
                }
                (TokKind::Ident, "return") => {
                    let end = stmt_end(toks, i + 1, hi);
                    let m = self.walk(toks, i + 1, end);
                    self.ret_mask |= m;
                    mask |= m;
                    i = end;
                    continue;
                }
                (TokKind::Ident, name) if next.is_some_and(|n| n.text == "(") => {
                    let (m, after) = self.handle_call(toks, i, hi, name);
                    mask |= m;
                    i = after;
                    continue;
                }
                (TokKind::Ident, name)
                    if next.is_some_and(|n| n.text == "!")
                        && DEBUG_MACROS.contains(&name)
                        && toks
                            .get(i + 2)
                            .is_some_and(|d| matches!(d.text.as_str(), "(" | "[" | "{")) =>
                {
                    let close = matching(toks, i + 2, hi);
                    let inner = self.walk(toks, i + 3, close);
                    self.hit_sink(
                        inner,
                        "taint.secret_to_debug",
                        t.line,
                        &format!("`{name}!(..)` formatting"),
                    );
                    mask |= inner;
                    i = close + 1;
                    continue;
                }
                (TokKind::Ident, name) => {
                    // Re-assignment `name = ..` / `name |= ..` etc.
                    if let Some(op) = next.map(|n| n.text.as_str()) {
                        if op == "="
                            || (op.len() == 2
                                && op.ends_with('=')
                                && !matches!(op, "==" | "!=" | "<=" | ">="))
                        {
                            let end = stmt_end(toks, i + 2, hi);
                            let m = self.walk(toks, i + 2, end);
                            *self.vars.entry(name.to_string()).or_insert(0) |= m;
                            mask |= m;
                            i = end;
                            continue;
                        }
                    }
                    mask |= self.ident_mask(toks, i, hi);
                }
                (TokKind::Punct, "==") | (TokKind::Punct, "!=") => {
                    let m = self.window_mask(toks, i, lo, hi);
                    self.hit_sink(
                        m,
                        "taint.secret_to_ct",
                        t.line,
                        &format!("non-constant-time `{}`", t.text),
                    );
                }
                _ => {}
            }
            i += 1;
        }
        mask
    }

    /// `let <pattern> = <rhs>;` — taints every pattern identifier with the
    /// right-hand side's mask. Covers plain, tuple and `if let` patterns.
    fn handle_let(&mut self, toks: &[Tok], let_idx: usize, hi: usize) -> usize {
        let mut targets = Vec::new();
        let mut j = let_idx + 1;
        while j < hi {
            match (toks[j].kind, toks[j].text.as_str()) {
                (_, "=") => break,
                (_, ";") | (_, "{") => {
                    // `let else` bodies / malformed: no initializer.
                    return j;
                }
                (TokKind::Ident, name) if !matches!(name, "mut" | "ref") => {
                    // Skip constructor names in patterns (`Some`, `Ok`) —
                    // they are immediately followed by `(` or `::`.
                    let ctor = toks
                        .get(j + 1)
                        .is_some_and(|n| n.text == "(" || n.text == "::");
                    if !ctor {
                        targets.push(name.to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return hi;
        }
        let end = stmt_end(toks, j + 1, hi);
        let m = self.walk(toks, j + 1, end);
        for name in targets {
            *self.vars.entry(name).or_insert(0) |= m;
        }
        end
    }

    /// Is the value produced just before `idx` immediately fed into a
    /// sanitizing or structure-only method (`.sha256(..)`, `.public(..)`,
    /// `.len()`)? If so the producer contributes nothing: the sanctioned
    /// call consumes it. This is what makes `ks.trapdoor().public()` clean
    /// in a linear left-to-right walk.
    fn sanitized_next(&self, toks: &[Tok], idx: usize, hi: usize) -> bool {
        idx < hi
            && toks.get(idx).is_some_and(|t| t.text == ".")
            && toks.get(idx + 1).is_some_and(|n| {
                n.kind == TokKind::Ident
                    && (SANITIZERS.contains(&n.text.as_str())
                        || CLEAN_METHODS.contains(&n.text.as_str()))
            })
            && toks.get(idx + 2).is_some_and(|n| n.text == "(")
    }

    /// Dispatches a call `name( .. )` at token `i`; returns the call's
    /// result mask and the index just past the closing `)`.
    fn handle_call(&mut self, toks: &[Tok], i: usize, hi: usize, name: &str) -> (u64, usize) {
        let open = i + 1;
        let close = matching(toks, open, hi);
        let after = close + 1;
        let line = toks[i].line;

        if SANITIZERS.contains(&name) {
            return (0, after);
        }
        let cleaned = self.sanitized_next(toks, after, hi);
        if self.seed_sources && SECRET_GETTERS.contains(&name) {
            return (if cleaned { 0 } else { SECRET_BIT }, after);
        }

        let args = arg_ranges(toks, open, close);
        let first_arg_is_str = args
            .first()
            .and_then(|&(lo, _)| toks.get(lo))
            .is_some_and(|t| t.kind == TokKind::Str);
        let is_method = i >= 1 && toks[i - 1].text == ".";

        if is_method && LOG_SINKS.contains(&name) && first_arg_is_str {
            let m = self.args_mask(toks, &args);
            self.hit_sink(
                m,
                "taint.secret_to_log",
                line,
                &format!("telemetry `.{name}(..)`"),
            );
            return (0, after);
        }
        if PERSIST_SINKS.contains(&name) {
            let m = self.args_mask(toks, &args);
            self.hit_sink(
                m,
                "taint.secret_to_persist",
                line,
                &format!("persist `{name}(..)`"),
            );
            return (0, after);
        }
        if WIRE_SINKS.contains(&name) {
            let m = self.args_mask(toks, &args);
            self.hit_sink(
                m,
                "taint.secret_to_wire",
                line,
                &format!("wire `{name}(..)`"),
            );
            return (0, after);
        }

        let candidates = self.table.resolve(name);
        let arg_masks: Vec<u64> = args.iter().map(|&(lo, h)| self.walk(toks, lo, h)).collect();
        if candidates.is_empty() || candidates.len() > AMBIG_LIMIT {
            // Unresolved (std/ambiguous): propagate argument taint through.
            let m = arg_masks.iter().fold(0, |a, v| a | v);
            return (if cleaned { 0 } else { m }, after);
        }

        // Receiver of a method call maps to a `self` first parameter.
        let recv_mask = if is_method && i >= 2 && toks[i - 2].kind == TokKind::Ident {
            self.ident_mask(toks, i - 2, hi)
        } else {
            0
        };

        let mut out = 0u64;
        for &(fi, gi) in candidates {
            let callee = &self.files[fi].fns[gi];
            let has_self = callee.params.first().is_some_and(|p| p.name == "self");
            let mask_of_param = |pi: usize| -> u64 {
                if has_self {
                    if pi == 0 {
                        recv_mask
                    } else {
                        arg_masks.get(pi - 1).copied().unwrap_or(0)
                    }
                } else {
                    arg_masks.get(pi).copied().unwrap_or(0)
                }
            };
            let Some(summary) = self.summaries.get(&(fi, gi)) else {
                out |= arg_masks.iter().fold(0, |a, m| a | m);
                continue;
            };
            if summary.ret & SECRET_BIT != 0 && self.seed_sources {
                out |= SECRET_BIT;
            }
            for pi in 0..callee.params.len().min(62) {
                if summary.ret & (1 << pi) != 0 {
                    out |= mask_of_param(pi);
                }
            }
            for (&pi, hit) in &summary.sinks {
                let m = mask_of_param(pi as usize);
                if m == 0 {
                    continue;
                }
                let chain = format!("`{name}` -> {}", hit.chain);
                if self.emit && m & SECRET_BIT != 0 {
                    self.findings.push(Finding {
                        file: self.file.path.clone(),
                        line,
                        rule: hit.rule,
                        detail: format!("secret argument flows into {chain}"),
                    });
                }
                for b in param_bits(m) {
                    self.param_sinks.entry(b).or_insert_with(|| SinkHit {
                        rule: hit.rule,
                        chain: chain.clone(),
                    });
                }
            }
        }
        (if cleaned { 0 } else { out }, after)
    }

    /// Union mask over explicit argument ranges.
    fn args_mask(&mut self, toks: &[Tok], args: &[(usize, usize)]) -> u64 {
        args.iter()
            .fold(0, |a, &(lo, hi)| a | self.walk(toks, lo, hi))
    }

    /// Mask of a bare identifier occurrence, with the clean-method
    /// carve-out (`key.len()` reveals only public structure).
    fn ident_mask(&self, toks: &[Tok], i: usize, hi: usize) -> u64 {
        let name = toks[i].text.as_str();
        let mut m = self.vars.get(name).copied().unwrap_or(0);
        if self.seed_sources && self.file.secret_names.iter().any(|s| s == name) {
            m |= SECRET_BIT;
        }
        if m != 0 && self.sanitized_next(toks, i + 1, hi) {
            return 0;
        }
        m
    }

    /// Union mask of identifiers near a comparison operator, bounded by
    /// statement delimiters.
    fn window_mask(&self, toks: &[Tok], op: usize, lo: usize, hi: usize) -> u64 {
        let mut m = 0u64;
        let stop = |t: &Tok| matches!(t.text.as_str(), ";" | "{" | "}" | ",");
        let from = op.saturating_sub(6).max(lo);
        for j in (from..op).rev() {
            if stop(&toks[j]) {
                break;
            }
            if toks[j].kind == TokKind::Ident {
                m |= self.ident_mask(toks, j, hi);
            }
        }
        for j in op + 1..(op + 7).min(hi) {
            if stop(&toks[j]) {
                break;
            }
            if toks[j].kind == TokKind::Ident {
                m |= self.ident_mask(toks, j, hi);
            }
        }
        m
    }

    /// Records a sink hit: a finding when secret-tainted (emission pass),
    /// and a summary entry for every contributing parameter.
    ///
    /// The ct rule is deliberately intraprocedural: a `==` deep inside a
    /// callee almost always compares derived public structure (lengths,
    /// status codes), so only comparisons adjacent to the secret value
    /// itself are reported — no parameter summary is recorded for it.
    fn hit_sink(&mut self, mask: u64, rule: &'static str, line: u32, desc: &str) {
        if mask == 0 {
            return;
        }
        if self.emit && mask & SECRET_BIT != 0 {
            self.findings.push(Finding {
                file: self.file.path.clone(),
                line,
                rule,
                detail: format!("secret material reaches {desc}"),
            });
        }
        if rule == "taint.secret_to_ct" {
            return;
        }
        for b in param_bits(mask) {
            self.param_sinks.entry(b).or_insert_with(|| SinkHit {
                rule,
                chain: desc.to_string(),
            });
        }
    }
}

/// Parameter-index bits set in a mask.
fn param_bits(mask: u64) -> impl Iterator<Item = u32> {
    (0..62).filter(move |b| mask & (1 << b) != 0)
}

/// Does a space-joined type string mention `name` as a whole token?
fn type_mentions(ty: &str, name: &str) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|seg| seg == name)
}

/// Index of the delimiter matching the opener at `open` (any bracket
/// kind), bounded by `hi`.
fn matching(toks: &[Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < hi {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi.saturating_sub(1)
}

/// Top-level comma-separated argument ranges between `open` and `close`
/// (exclusive).
fn arg_ranges(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for (j, tok) in toks.iter().enumerate().take(close).skip(open + 1) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                if start < j {
                    out.push((start, j));
                }
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// End of the statement starting at `from`: the `;` at the current brace
/// depth, or `hi`.
fn stmt_end(toks: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut j = from;
    while j < hi {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_file(p, s)).collect();
        analyze(&parsed)
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn secret_param_to_log_sink() {
        let src = "fn f(span: &mut Span, key: &Prf) { span.attr(\"k\", key); }";
        let found = scan(&[("crates/core/src/x.rs", src)]);
        assert_eq!(rules(&found), vec!["taint.secret_to_log"]);
    }

    #[test]
    fn sanitizer_discharges() {
        let src = "fn f(span: &mut Span, key: &Prf) { span.attr(\"k\", sha256(key)); }";
        assert!(scan(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn annotation_seeds_and_debug_sinks() {
        let src = "fn f() {\n    // slicer-lint: secret\n    let material = load();\n    let s = format!(\"{:?}\", material);\n}";
        let found = scan(&[("crates/core/src/x.rs", src)]);
        assert_eq!(rules(&found), vec!["taint.secret_to_debug"]);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn interprocedural_chain_reported_at_call_site() {
        let helper = "fn helper(span: &mut Span, x: &[u8]) { span.attr(\"x\", x); }";
        let caller = "fn top(span: &mut Span, key: &KeySet) { helper(span, key); }";
        let found = scan(&[
            ("crates/core/src/a.rs", caller),
            ("crates/core/src/b.rs", helper),
        ]);
        assert_eq!(rules(&found), vec!["taint.secret_to_log"]);
        assert_eq!(found[0].file, "crates/core/src/a.rs");
        assert!(found[0].detail.contains("helper"), "{}", found[0].detail);
    }

    #[test]
    fn getter_to_ct_comparison() {
        let src = "fn check(ks: &KeySet, other: &[u8]) -> bool {\n    let material = ks.record_key();\n    material == other\n}";
        let found = scan(&[("crates/core/src/x.rs", src)]);
        assert_eq!(rules(&found), vec!["taint.secret_to_ct"]);
    }

    #[test]
    fn sources_not_seeded_outside_taint_crates() {
        let src = "fn f(span: &mut Span, key: &Prf) { span.attr(\"k\", key); }";
        assert!(scan(&[("crates/workload/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn clean_methods_reveal_structure_only() {
        let src = "fn f(span: &mut Span, key: &KeySet) { span.attr(\"n\", key.len()); }";
        assert!(scan(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn pragma_suppresses_taint_finding() {
        let src = "fn f(span: &mut Span, key: &Prf) {\n    // slicer-lint: allow(taint.secret_to_log) — redacted upstream\n    span.attr(\"k\", key);\n}";
        assert!(scan(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn recursion_terminates_with_fixpoint() {
        let src = "fn ping(key: &Prf, n: u8) -> u8 { if n == 0 { 0 } else { pong(key, n) } }\nfn pong(key: &Prf, n: u8) -> u8 { ping(key, n) }";
        // No sink: just must not hang or report.
        assert!(scan(&[("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn persist_and_wire_sinks_fire() {
        let p = "fn f(w: &mut W, key: &KeySet) { write_frames(w, key); }";
        let found = scan(&[("crates/persist/src/x.rs", p)]);
        assert_eq!(rules(&found), vec!["taint.secret_to_persist"]);
        let d = "fn f(store: &S, key: &KeySet) { store.commit_delta(key, snap); }";
        let found = scan(&[("crates/daemon/src/x.rs", d)]);
        assert_eq!(rules(&found), vec!["taint.secret_to_persist"]);
        let w = "fn f(s: &mut S, key: &KeySet) { write_message(s, key); }";
        let found = scan(&[("crates/daemon/src/x.rs", w)]);
        assert_eq!(rules(&found), vec!["taint.secret_to_wire"]);
    }
}
