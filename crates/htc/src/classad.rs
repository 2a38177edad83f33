//! ClassAd-lite: attribute lists and a matchmaking expression language.
//!
//! Condor matches jobs to machines by evaluating each side's `Requirements`
//! and `Rank` expressions against the *other* side's attributes. This module
//! implements the subset the Galaxy deployment needs: typed attribute
//! values, and expressions with comparison, boolean, and arithmetic
//! operators over attribute references.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! expr   := or
//! or     := and ("||" and)*
//! and    := not ("&&" not)*
//! not    := "!" not | cmp
//! cmp    := sum (("=="|"!="|"<="|">="|"<"|">") sum)?
//! sum    := prod (("+"|"-") prod)*
//! prod   := unary (("*"|"/") unary)*
//! unary  := "-" unary | atom
//! atom   := number | string | "true" | "false" | ident | "(" expr ")"
//! ```
//!
//! Attribute references resolve against the *target* ad first and then the
//! *own* ad (a simplification of Condor's `TARGET.`/`MY.` scoping that is
//! sufficient when attribute names do not collide). Undefined attributes
//! make comparisons false rather than erroring, mirroring ClassAd
//! three-valued logic closely enough for scheduling.
//!
//! # Two evaluators
//!
//! The parsed [`Expr`] tree carries a direct tree-walking evaluator
//! ([`Expr::eval`]) that serves as the **reference implementation**. The
//! matchmaker hot path instead uses [`CompiledExpr`]: attribute names are
//! interned into a process-wide [`Symbol`] table, the tree is flattened
//! into a postfix program with constant folding, and ads store their
//! attributes in symbol-indexed small-vec slots, so evaluation does
//! integer-keyed loads instead of `BTreeMap<String, _>` lookups (the old
//! storage lower-cased the key — one heap allocation — on *every* get).
//! Both evaluators share the same private value-op kernels (`unary_value`,
//! `binary_value`), so they cannot drift; the differential test suite
//! checks them against each other on randomized expressions and ads.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Symbol interning
// ---------------------------------------------------------------------------

/// An interned, case-folded attribute name.
///
/// Symbols are process-wide: the same (case-insensitive) attribute name
/// always maps to the same symbol, so ads and compiled expressions from
/// different pools can be evaluated against each other. The numeric id is
/// an implementation detail — it depends on interning order and must never
/// be used to order user-visible output (name-ordered APIs resolve the
/// string instead).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct SymbolTable {
    names: Vec<&'static str>,
    by_name: HashMap<Folded<'static>, u32>,
}

/// A name keyed case-insensitively: hashing and equality fold ASCII case
/// on the fly, so looking up an already-interned name allocates nothing.
struct Folded<'a>(&'a str);

impl Hash for Folded<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let bytes = self.0.as_bytes();
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (d, s) in word.iter_mut().zip(chunk) {
                *d = s.to_ascii_lowercase();
            }
            state.write_u64(u64::from_le_bytes(word));
        }
        state.write_usize(bytes.len());
    }
}

impl PartialEq for Folded<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Folded<'_> {}

impl SymbolTable {
    fn get(&self, name: &str) -> Option<Symbol> {
        // `HashMap` is covariant in its key, so the `'static` table can be
        // probed with a borrowed key.
        let by_name: &HashMap<Folded<'_>, u32> = &self.by_name;
        by_name.get(&Folded(name)).copied().map(Symbol)
    }
}

fn symbol_table() -> &'static Mutex<SymbolTable> {
    static TABLE: OnceLock<Mutex<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(SymbolTable {
            names: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Intern a name (case-insensitive, like Condor attribute names).
    pub fn intern(name: &str) -> Symbol {
        let mut tab = symbol_table().lock().expect("symbol table poisoned");
        if let Some(sym) = tab.get(name) {
            return sym;
        }
        let id = tab.names.len() as u32;
        let leaked: &'static str = Box::leak(name.to_ascii_lowercase().into_boxed_str());
        tab.names.push(leaked);
        tab.by_name.insert(Folded(leaked), id);
        Symbol(id)
    }

    /// Look up a name without interning it (lookups of never-set
    /// attributes should not grow the table).
    pub fn find(name: &str) -> Option<Symbol> {
        symbol_table()
            .lock()
            .expect("symbol table poisoned")
            .get(name)
    }

    /// The interned (lower-cased) name.
    pub fn name(self) -> &'static str {
        let tab = symbol_table().lock().expect("symbol table poisoned");
        tab.names[self.0 as usize]
    }
}

impl fmt::Debug for Symbol {
    // Show the name, not the unstable numeric id.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.name())
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Undefined (missing attribute).
    Undefined,
}

impl Value {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Undefined => false,
        }
    }

    /// Append an injective byte encoding of the value (tag + payload,
    /// strings length-prefixed, floats by bit pattern). Bitwise-equal
    /// encodings mean bitwise-identical evaluation behaviour — the
    /// property the pool's autocluster interning relies on.
    pub(crate) fn fingerprint_into(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                buf.push(0);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(1);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(2);
                buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.push(3);
                buf.push(*b as u8);
            }
            Value::Undefined => buf.push(4),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Undefined => write!(f, "undefined"),
        }
    }
}

/// An attribute list.
///
/// Attributes live in a small vec of `(Symbol, Value)` slots kept sorted
/// by symbol id, so the evaluator's loads are integer-keyed binary
/// searches over a handful of entries — no string hashing, no per-lookup
/// allocation. Typical ads hold 5–10 attributes.
#[derive(Clone, Default, PartialEq)]
pub struct ClassAd {
    attrs: Vec<(Symbol, Value)>,
}

impl ClassAd {
    /// An empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// Set an attribute (case-insensitive key, as in Condor).
    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        self.set_sym(Symbol::intern(key), value);
        self
    }

    /// Set an attribute by pre-interned symbol.
    pub fn set_sym(&mut self, sym: Symbol, value: Value) -> &mut Self {
        match self.attrs.binary_search_by_key(&sym, |(s, _)| *s) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (sym, value)),
        }
        self
    }

    /// Builder-style set.
    pub fn with(mut self, key: &str, value: Value) -> Self {
        self.set(key, value);
        self
    }

    /// Get an attribute (a clone; hot paths borrow through [`lookup`]).
    ///
    /// [`lookup`]: ClassAd::lookup
    pub fn get(&self, key: &str) -> Value {
        Symbol::find(key)
            .and_then(|sym| self.lookup(sym))
            .cloned()
            .unwrap_or(Value::Undefined)
    }

    /// Borrowing lookup by pre-interned symbol (the hot path); `None`
    /// when the attribute is absent.
    pub fn lookup(&self, sym: Symbol) -> Option<&Value> {
        self.attrs
            .binary_search_by_key(&sym, |(s, _)| *s)
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Append an injective byte encoding of the ad (attribute count, then
    /// symbol-ordered `(symbol, value)` pairs). Symbol ids are stable
    /// within a process, so equal encodings ⇔ identical attribute maps.
    pub(crate) fn fingerprint_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.attrs.len() as u64).to_le_bytes());
        for (sym, value) in &self.attrs {
            buf.extend_from_slice(&sym.0.to_le_bytes());
            value.fingerprint_into(buf);
        }
    }
}

impl fmt::Debug for ClassAd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render name-sorted so output is stable across interning orders
        // (symbol ids depend on which thread interned a name first).
        let mut entries: Vec<(&'static str, &Value)> =
            self.attrs.iter().map(|(s, v)| (s.name(), v)).collect();
        entries.sort_by_key(|(name, _)| *name);
        let mut map = f.debug_map();
        for (name, value) in entries {
            map.entry(&name, value);
        }
        map.finish()
    }
}

/// A parsed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Attribute reference.
    Attr(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical not.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(tok.as_bytes()) {
            // Don't split identifiers: `>=` vs `>`, handled by caller order;
            // for word tokens ensure a non-ident boundary.
            let end = self.pos + tok.len();
            let is_word = tok.chars().all(|c| c.is_ascii_alphanumeric());
            if is_word {
                if let Some(&next) = self.src.get(end) {
                    if next.is_ascii_alphanumeric() || next == b'_' || next == b'.' {
                        return false;
                    }
                }
            }
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or()
    }

    fn or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and()?;
        while self.eat("||") {
            let rhs = self.and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not()?;
        while self.eat("&&") {
            let rhs = self.not()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        // `!` but not `!=`.
        if self.src.get(self.pos) == Some(&b'!') && self.src.get(self.pos + 1) != Some(&b'=') {
            self.pos += 1;
            let inner = self.not()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.sum()?;
        for (tok, op) in [
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat(tok) {
                let rhs = self.sum()?;
                return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.prod()?;
        loop {
            if self.eat("+") {
                let rhs = self.prod()?;
                lhs = Expr::Binary(BinOp::Add, Box::new(lhs), Box::new(rhs));
            } else if self.eat("-") {
                let rhs = self.prod()?;
                lhs = Expr::Binary(BinOp::Sub, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn prod(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            if self.eat("*") {
                let rhs = self.unary()?;
                lhs = Expr::Binary(BinOp::Mul, Box::new(lhs), Box::new(rhs));
            } else if self.eat("/") {
                let rhs = self.unary()?;
                lhs = Expr::Binary(BinOp::Div, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
            let inner = self.unary()?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of expression")),
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek() == Some(b')') {
                    self.pos += 1;
                    Ok(e)
                } else {
                    Err(self.err("expected ')'"))
                }
            }
            Some(b'"') => self.string(),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn string(&mut self) -> Result<Expr, ParseError> {
        debug_assert_eq!(self.src[self.pos], b'"');
        self.pos += 1;
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'"' {
            self.pos += 1;
        }
        if self.pos >= self.src.len() {
            return Err(self.err("unterminated string"));
        }
        let s = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in string"))?
            .to_string();
        self.pos += 1;
        Ok(Expr::Lit(Value::Str(s)))
    }

    fn number(&mut self) -> Result<Expr, ParseError> {
        let start = self.pos;
        let mut saw_dot = false;
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == b'.' && !saw_dot {
                saw_dot = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        if saw_dot {
            text.parse::<f64>()
                .map(|f| Expr::Lit(Value::Float(f)))
                .map_err(|e| self.err(e.to_string()))
        } else {
            text.parse::<i64>()
                .map(|i| Expr::Lit(Value::Int(i)))
                .map_err(|e| self.err(e.to_string()))
        }
    }

    fn ident(&mut self) -> Result<Expr, ParseError> {
        let start = self.pos;
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let word = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii ident");
        match word.to_ascii_lowercase().as_str() {
            "true" => Ok(Expr::Lit(Value::Bool(true))),
            "false" => Ok(Expr::Lit(Value::Bool(false))),
            "undefined" => Ok(Expr::Lit(Value::Undefined)),
            _ => Ok(Expr::Attr(word.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared value-op kernels (used by both evaluators and the constant folder)
// ---------------------------------------------------------------------------

/// Apply a unary operator to an evaluated value.
fn unary_value(op: UnaryOp, v: &Value) -> Value {
    match op {
        UnaryOp::Not => Value::Bool(!v.truthy()),
        UnaryOp::Neg => match v.as_f64() {
            Some(f) => Value::Float(-f),
            None => Value::Undefined,
        },
    }
}

/// Apply a non-short-circuit binary operator to two evaluated values.
/// `And`/`Or` must be handled by the caller (they short-circuit).
fn binary_value(op: BinOp, lv: &Value, rv: &Value) -> Value {
    match op {
        BinOp::Eq => Value::Bool(value_eq(lv, rv)),
        BinOp::Ne => match (lv, rv) {
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Bool(false),
            _ => Value::Bool(!value_eq(lv, rv)),
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match (lv.as_f64(), rv.as_f64()) {
            (Some(a), Some(b)) => Value::Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            }),
            _ => Value::Bool(false),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match (lv.as_f64(), rv.as_f64()) {
            (Some(a), Some(b)) => {
                let x = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Value::Undefined;
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                Value::Float(x)
            }
            _ => Value::Undefined,
        },
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops handled by the caller"),
    }
}

impl Expr {
    /// Parse an expression from text.
    pub fn parse(src: &str) -> Result<Expr, ParseError> {
        let mut p = Parser::new(src);
        let e = p.expr()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing input"));
        }
        Ok(e)
    }

    /// Append an injective byte encoding of the tree (prefix order, a tag
    /// per node, attribute names length-prefixed as written, literals as
    /// [`Value`] encodes them). Equal encodings mean equal trees with
    /// bitwise-equal literals, so they compile to one program and evaluate
    /// identically — the basis of the pool's autocluster interning.
    pub(crate) fn fingerprint_into(&self, buf: &mut Vec<u8>) {
        match self {
            Expr::Lit(v) => {
                buf.push(0);
                v.fingerprint_into(buf);
            }
            Expr::Attr(name) => {
                buf.push(1);
                buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
                buf.extend_from_slice(name.as_bytes());
            }
            Expr::Unary(op, e) => {
                buf.push(2);
                buf.push(*op as u8);
                e.fingerprint_into(buf);
            }
            Expr::Binary(op, l, r) => {
                buf.push(3);
                buf.push(*op as u8);
                l.fingerprint_into(buf);
                r.fingerprint_into(buf);
            }
        }
    }

    /// A constant `true` expression.
    pub fn always() -> Expr {
        Expr::Lit(Value::Bool(true))
    }

    /// Compile into the flat postfix form the matchmaker evaluates.
    pub fn compile(&self) -> CompiledExpr {
        CompiledExpr::compile(self)
    }

    /// Evaluate against `target` (the other side's ad) with `own` as
    /// fallback scope. This is the tree-walking **reference** evaluator;
    /// [`CompiledExpr::eval`] must agree with it bit-for-bit.
    pub fn eval(&self, target: &ClassAd, own: &ClassAd) -> Value {
        match self {
            Expr::Lit(v) => v.clone(),
            Expr::Attr(name) => {
                // Strip explicit scopes if present.
                let (scope, bare) = match name.split_once('.') {
                    Some((s, b)) => (Some(s.to_ascii_lowercase()), b),
                    None => (None, name.as_str()),
                };
                match scope.as_deref() {
                    Some("my") => own.get(bare),
                    Some("target") => target.get(bare),
                    _ => match target.get(name) {
                        Value::Undefined => own.get(name),
                        v => v,
                    },
                }
            }
            Expr::Unary(op, inner) => {
                let v = inner.eval(target, own);
                unary_value(*op, &v)
            }
            Expr::Binary(op, l, r) => {
                match op {
                    BinOp::And => {
                        let lv = l.eval(target, own);
                        if !lv.truthy() {
                            return Value::Bool(false);
                        }
                        return Value::Bool(r.eval(target, own).truthy());
                    }
                    BinOp::Or => {
                        let lv = l.eval(target, own);
                        if lv.truthy() {
                            return Value::Bool(true);
                        }
                        return Value::Bool(r.eval(target, own).truthy());
                    }
                    _ => {}
                }
                let lv = l.eval(target, own);
                let rv = r.eval(target, own);
                binary_value(*op, &lv, &rv)
            }
        }
    }

    /// Evaluate as a boolean (requirements semantics: undefined → false).
    pub fn eval_bool(&self, target: &ClassAd, own: &ClassAd) -> bool {
        self.eval(target, own).truthy()
    }

    /// Evaluate as a rank score (undefined / non-numeric → 0.0).
    pub fn eval_rank(&self, target: &ClassAd, own: &ClassAd) -> f64 {
        rank_of(&self.eval(target, own))
    }
}

fn rank_of(v: &Value) -> f64 {
    match v {
        Value::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        v => v.as_f64().unwrap_or(0.0),
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.eq_ignore_ascii_case(y),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Undefined, _) | (_, Value::Undefined) => false,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// Which ad(s) an attribute load consults.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AttrScope {
    /// Unscoped: target ad first, own ad as fallback.
    Both,
    /// `MY.<attr>` — own ad only.
    My,
    /// `TARGET.<attr>` — target ad only.
    Target,
}

/// One instruction of a compiled expression program.
#[derive(Debug, Clone, PartialEq)]
enum Instr {
    /// Push a literal.
    Lit(Value),
    /// Push an attribute load.
    Attr(AttrScope, Symbol),
    /// Pop one, push `unary_value(op, v)`.
    Unary(UnaryOp),
    /// Pop two, push `binary_value(op, l, r)` (never `And`/`Or`).
    Bin(BinOp),
    /// Fused `attr <op> literal` — the dominant requirements shape
    /// (`Memory >= 1024`, `Arch == "X86_64"`). Pops nothing; both operands
    /// are read by reference, so the hot matchmaking loop does zero heap
    /// allocation per candidate.
    BinAttrLit(BinOp, AttrScope, Symbol, Value),
    /// Fused `literal <op> attr`.
    BinLitAttr(BinOp, Value, AttrScope, Symbol),
    /// Pop one, push `Bool(truthy)` (the `&&`/`||` join coercion).
    Truthy,
    /// Pop one; if falsy, push `Bool(false)` and jump to the operand.
    AndShort(u32),
    /// Pop one; if truthy, push `Bool(true)` and jump to the operand.
    OrShort(u32),
}

/// Resolve an attribute by reference (no clone). Equivalent to the
/// reference evaluator's scope handling: a stored `Undefined` in the
/// target ad falls back to the own ad, exactly like a missing attribute.
#[inline]
fn load_attr<'a>(
    scope: AttrScope,
    sym: Symbol,
    target: &'a ClassAd,
    own: &'a ClassAd,
) -> &'a Value {
    match scope {
        AttrScope::My => own.lookup(sym).unwrap_or(&Value::Undefined),
        AttrScope::Target => target.lookup(sym).unwrap_or(&Value::Undefined),
        AttrScope::Both => match target.lookup(sym) {
            Some(v) if *v != Value::Undefined => v,
            _ => own.lookup(sym).unwrap_or(&Value::Undefined),
        },
    }
}

/// A flat, constant-folded postfix program compiled from an [`Expr`].
///
/// The program form buys three things over tree walking: no pointer
/// chasing (instructions are contiguous), attribute references resolved to
/// interned [`Symbol`]s at compile time (no per-eval string handling), and
/// constant subtrees folded to a single push (a `true` requirements
/// expression is one instruction). Short-circuit `&&`/`||` compile into
/// conditional forward jumps so evaluation order — and therefore
/// observable semantics — matches the reference evaluator exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    code: Vec<Instr>,
    /// True when the program is a pure fused-compare AND-chain
    /// (`cmp [AndShort cmp Truthy]*` shapes): every value pushed is
    /// immediately consumed as a truthiness, so [`eval_bool`] can run a
    /// stack-free loop that just ANDs the fused comparisons.
    ///
    /// [`eval_bool`]: CompiledExpr::eval_bool
    conjunctive: bool,
}

/// Detect the conjunctive shape: only fused attr/const instructions,
/// `AndShort` jumps, and `Truthy` coercions. In such a program every
/// push is consumed by the following `AndShort`/`Truthy` (or is the
/// final result), so the value of the whole program is exactly the AND
/// of the fused instructions' truthiness.
fn is_conjunctive(code: &[Instr]) -> bool {
    code.iter().all(|i| {
        matches!(
            i,
            Instr::BinAttrLit(..) | Instr::BinLitAttr(..) | Instr::AndShort(_) | Instr::Truthy
        )
    })
}

/// Try to evaluate `e` as a constant (no attribute references).
fn fold_const(e: &Expr) -> Option<Value> {
    match e {
        Expr::Lit(v) => Some(v.clone()),
        Expr::Attr(_) => None,
        Expr::Unary(op, inner) => fold_const(inner).map(|v| unary_value(*op, &v)),
        Expr::Binary(BinOp::And, l, r) => {
            let lv = fold_const(l)?;
            if !lv.truthy() {
                return Some(Value::Bool(false));
            }
            fold_const(r).map(|rv| Value::Bool(rv.truthy()))
        }
        Expr::Binary(BinOp::Or, l, r) => {
            let lv = fold_const(l)?;
            if lv.truthy() {
                return Some(Value::Bool(true));
            }
            fold_const(r).map(|rv| Value::Bool(rv.truthy()))
        }
        Expr::Binary(op, l, r) => {
            let lv = fold_const(l)?;
            let rv = fold_const(r)?;
            Some(binary_value(*op, &lv, &rv))
        }
    }
}

fn attr_ref(name: &str) -> (AttrScope, Symbol) {
    match name.split_once('.') {
        Some((scope, bare)) if scope.eq_ignore_ascii_case("my") => {
            (AttrScope::My, Symbol::intern(bare))
        }
        Some((scope, bare)) if scope.eq_ignore_ascii_case("target") => {
            (AttrScope::Target, Symbol::intern(bare))
        }
        // Unknown scopes fall through to an unscoped lookup of the whole
        // dotted name, mirroring the reference evaluator.
        _ => (AttrScope::Both, Symbol::intern(name)),
    }
}

fn compile_node(e: &Expr, code: &mut Vec<Instr>) {
    if let Some(v) = fold_const(e) {
        code.push(Instr::Lit(v));
        return;
    }
    match e {
        // A bare literal always folds; reaching here means non-constant.
        Expr::Lit(_) => unreachable!("literals are folded"),
        Expr::Attr(name) => {
            let (scope, sym) = attr_ref(name);
            code.push(Instr::Attr(scope, sym));
        }
        Expr::Unary(op, inner) => {
            compile_node(inner, code);
            code.push(Instr::Unary(*op));
        }
        Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
            let short = match fold_const(l) {
                // A constant lhs that decided the result would have folded
                // above; the surviving constant is the neutral element, so
                // the result is just `Bool(r.truthy())`.
                Some(_) => None,
                None => {
                    compile_node(l, code);
                    let patch_at = code.len();
                    code.push(match op {
                        BinOp::And => Instr::AndShort(0),
                        _ => Instr::OrShort(0),
                    });
                    Some(patch_at)
                }
            };
            compile_node(r, code);
            code.push(Instr::Truthy);
            if let Some(patch_at) = short {
                let end = code.len() as u32;
                code[patch_at] = match op {
                    BinOp::And => Instr::AndShort(end),
                    _ => Instr::OrShort(end),
                };
            }
        }
        Expr::Binary(op, l, r) => {
            // Fuse `attr <op> const` / `const <op> attr` into a single
            // instruction evaluated by reference. Evaluation order is
            // preserved: an attribute load and a constant are both
            // side-effect-free, so fusing cannot reorder anything
            // observable.
            match (l.as_ref(), r.as_ref()) {
                (Expr::Attr(name), _) if fold_const(r).is_some() => {
                    let (scope, sym) = attr_ref(name);
                    let rv = fold_const(r).expect("checked above");
                    code.push(Instr::BinAttrLit(*op, scope, sym, rv));
                }
                (_, Expr::Attr(name)) if fold_const(l).is_some() => {
                    let lv = fold_const(l).expect("checked above");
                    let (scope, sym) = attr_ref(name);
                    code.push(Instr::BinLitAttr(*op, lv, scope, sym));
                }
                _ => {
                    compile_node(l, code);
                    compile_node(r, code);
                    code.push(Instr::Bin(*op));
                }
            }
        }
    }
}

impl CompiledExpr {
    /// Compile an expression tree.
    pub fn compile(e: &Expr) -> CompiledExpr {
        let mut code = Vec::new();
        compile_node(e, &mut code);
        let conjunctive = is_conjunctive(&code);
        CompiledExpr { code, conjunctive }
    }

    /// Number of instructions (diagnostics; a folded constant is 1).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program is empty (never produced by `compile`).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Evaluate with a caller-provided scratch stack (the matchmaker
    /// reuses one across thousands of evaluations per cycle).
    pub fn eval_with(&self, target: &ClassAd, own: &ClassAd, stack: &mut Vec<Value>) -> Value {
        stack.clear();
        let code = &self.code;
        let mut pc = 0usize;
        while pc < code.len() {
            match &code[pc] {
                Instr::Lit(v) => stack.push(v.clone()),
                Instr::Attr(scope, sym) => stack.push(load_attr(*scope, *sym, target, own).clone()),
                Instr::BinAttrLit(op, scope, sym, lit) => {
                    let v = load_attr(*scope, *sym, target, own);
                    stack.push(binary_value(*op, v, lit));
                }
                Instr::BinLitAttr(op, lit, scope, sym) => {
                    let v = load_attr(*scope, *sym, target, own);
                    stack.push(binary_value(*op, lit, v));
                }
                Instr::Unary(op) => {
                    let v = stack.pop().expect("stack underflow");
                    stack.push(unary_value(*op, &v));
                }
                Instr::Bin(op) => {
                    let rv = stack.pop().expect("stack underflow");
                    let lv = stack.pop().expect("stack underflow");
                    stack.push(binary_value(*op, &lv, &rv));
                }
                Instr::Truthy => {
                    let v = stack.pop().expect("stack underflow");
                    stack.push(Value::Bool(v.truthy()));
                }
                Instr::AndShort(end) => {
                    let v = stack.pop().expect("stack underflow");
                    if !v.truthy() {
                        stack.push(Value::Bool(false));
                        pc = *end as usize;
                        continue;
                    }
                }
                Instr::OrShort(end) => {
                    let v = stack.pop().expect("stack underflow");
                    if v.truthy() {
                        stack.push(Value::Bool(true));
                        pc = *end as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        stack.pop().expect("program left no value")
    }

    /// Evaluate (convenience wrapper allocating its own stack).
    pub fn eval(&self, target: &ClassAd, own: &ClassAd) -> Value {
        let mut stack = Vec::with_capacity(8);
        self.eval_with(target, own, &mut stack)
    }

    /// Evaluate one fused instruction by reference (no stack traffic).
    /// Returns `None` for non-fused instructions.
    #[inline]
    fn eval_fused(instr: &Instr, target: &ClassAd, own: &ClassAd) -> Option<Value> {
        match instr {
            Instr::BinAttrLit(op, scope, sym, lit) => {
                Some(binary_value(*op, load_attr(*scope, *sym, target, own), lit))
            }
            Instr::BinLitAttr(op, lit, scope, sym) => {
                Some(binary_value(*op, lit, load_attr(*scope, *sym, target, own)))
            }
            _ => None,
        }
    }

    /// Evaluate as a boolean (requirements semantics: undefined → false).
    ///
    /// A conjunctive program — the shape almost every requirements
    /// expression compiles to — runs stack-free: the fused comparisons
    /// are ANDed directly, which is exactly what the jump/Truthy
    /// sequence computes on the stack machine.
    pub fn eval_bool(&self, target: &ClassAd, own: &ClassAd, stack: &mut Vec<Value>) -> bool {
        if self.conjunctive {
            return self.code.iter().all(|instr| {
                match Self::eval_fused(instr, target, own) {
                    Some(v) => v.truthy(),
                    // AndShort / Truthy push nothing of their own.
                    None => true,
                }
            });
        }
        self.eval_with(target, own, stack).truthy()
    }

    /// Evaluate as a rank score (undefined / non-numeric → 0.0).
    ///
    /// Single-instruction programs (a bare attribute like the default
    /// `ComputeUnits` rank, a folded constant, or one fused compare)
    /// bypass the stack machine.
    pub fn eval_rank(&self, target: &ClassAd, own: &ClassAd, stack: &mut Vec<Value>) -> f64 {
        if let [instr] = &self.code[..] {
            return match instr {
                Instr::Lit(v) => rank_of(v),
                Instr::Attr(scope, sym) => rank_of(load_attr(*scope, *sym, target, own)),
                _ => match Self::eval_fused(instr, target, own) {
                    Some(v) => rank_of(&v),
                    None => rank_of(&self.eval_with(target, own, stack)),
                },
            };
        }
        rank_of(&self.eval_with(target, own, stack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> ClassAd {
        ClassAd::new()
            .with("Memory", Value::Int(1700))
            .with("Cpus", Value::Int(2))
            .with("ComputeUnits", Value::Float(2.2))
            .with("Arch", Value::Str("X86_64".to_string()))
            .with("OpSys", Value::Str("LINUX".to_string()))
    }

    fn job() -> ClassAd {
        ClassAd::new()
            .with("RequestMemory", Value::Int(1024))
            .with("Owner", Value::Str("user1".to_string()))
    }

    /// Assert tree and compiled evaluation agree on `src` over the ads.
    fn assert_compiled_matches(src: &str, target: &ClassAd, own: &ClassAd) {
        let e = Expr::parse(src).unwrap();
        let c = e.compile();
        assert_eq!(e.eval(target, own), c.eval(target, own), "{src}");
    }

    #[test]
    fn attribute_lookup_is_case_insensitive() {
        let ad = machine();
        assert_eq!(ad.get("memory"), Value::Int(1700));
        assert_eq!(ad.get("MEMORY"), Value::Int(1700));
        assert_eq!(ad.get("nope"), Value::Undefined);
    }

    #[test]
    fn typical_requirements_expression() {
        let e = Expr::parse(r#"Memory >= 1024 && Arch == "X86_64""#).unwrap();
        assert!(e.eval_bool(&machine(), &job()));
        let small = ClassAd::new()
            .with("Memory", Value::Int(613))
            .with("Arch", Value::Str("X86_64".to_string()));
        assert!(!e.eval_bool(&small, &job()));
        assert_compiled_matches(r#"Memory >= 1024 && Arch == "X86_64""#, &machine(), &job());
        assert_compiled_matches(r#"Memory >= 1024 && Arch == "X86_64""#, &small, &job());
    }

    #[test]
    fn string_compare_is_case_insensitive() {
        let e = Expr::parse(r#"OpSys == "linux""#).unwrap();
        assert!(e.eval_bool(&machine(), &job()));
    }

    #[test]
    fn rank_prefers_bigger_machines() {
        let rank = Expr::parse("ComputeUnits").unwrap();
        let small = ClassAd::new().with("ComputeUnits", Value::Float(1.0));
        assert!(rank.eval_rank(&machine(), &job()) > rank.eval_rank(&small, &job()));
    }

    #[test]
    fn arithmetic_and_precedence() {
        let e = Expr::parse("1 + 2 * 3").unwrap();
        assert_eq!(e.eval(&ClassAd::new(), &ClassAd::new()), Value::Float(7.0));
        let e = Expr::parse("(1 + 2) * 3").unwrap();
        assert_eq!(e.eval(&ClassAd::new(), &ClassAd::new()), Value::Float(9.0));
        let e = Expr::parse("10 / 4").unwrap();
        assert_eq!(e.eval(&ClassAd::new(), &ClassAd::new()), Value::Float(2.5));
    }

    #[test]
    fn division_by_zero_is_undefined() {
        let e = Expr::parse("1 / 0").unwrap();
        assert_eq!(e.eval(&ClassAd::new(), &ClassAd::new()), Value::Undefined);
        assert!(!e.eval_bool(&ClassAd::new(), &ClassAd::new()));
        assert_compiled_matches("1 / 0", &ClassAd::new(), &ClassAd::new());
    }

    #[test]
    fn undefined_comparisons_are_false() {
        let ads = (ClassAd::new(), ClassAd::new());
        for src in ["Missing > 5", "Missing == 5", "Missing != 5"] {
            let e = Expr::parse(src).unwrap();
            assert!(!e.eval_bool(&ads.0, &ads.1), "{src}");
            assert_compiled_matches(src, &ads.0, &ads.1);
        }
    }

    #[test]
    fn boolean_operators_short_circuit_sanely() {
        let e = Expr::parse("true || Missing > 1").unwrap();
        assert!(e.eval_bool(&ClassAd::new(), &ClassAd::new()));
        let e = Expr::parse("false && Missing > 1").unwrap();
        assert!(!e.eval_bool(&ClassAd::new(), &ClassAd::new()));
        let e = Expr::parse("!false").unwrap();
        assert!(e.eval_bool(&ClassAd::new(), &ClassAd::new()));
    }

    #[test]
    fn explicit_scopes_resolve() {
        let target = ClassAd::new().with("X", Value::Int(1));
        let own = ClassAd::new().with("X", Value::Int(2));
        let t = Expr::parse("TARGET.X").unwrap();
        let m = Expr::parse("MY.X").unwrap();
        assert_eq!(t.eval(&target, &own), Value::Int(1));
        assert_eq!(m.eval(&target, &own), Value::Int(2));
        // Unscoped prefers target.
        let u = Expr::parse("X").unwrap();
        assert_eq!(u.eval(&target, &own), Value::Int(1));
        // Falls back to own when target lacks it.
        assert_eq!(u.eval(&ClassAd::new(), &own), Value::Int(2));
        for src in ["TARGET.X", "MY.X", "X"] {
            assert_compiled_matches(src, &target, &own);
            assert_compiled_matches(src, &ClassAd::new(), &own);
        }
    }

    #[test]
    fn negative_numbers_parse() {
        let e = Expr::parse("-3 + 1").unwrap();
        assert_eq!(e.eval(&ClassAd::new(), &ClassAd::new()), Value::Float(-2.0));
    }

    #[test]
    fn floats_parse() {
        let e = Expr::parse("ComputeUnits >= 2.2").unwrap();
        assert!(e.eval_bool(&machine(), &job()));
    }

    #[test]
    fn keyword_literals() {
        assert_eq!(Expr::parse("true").unwrap(), Expr::Lit(Value::Bool(true)));
        assert_eq!(
            Expr::parse("undefined").unwrap(),
            Expr::Lit(Value::Undefined)
        );
        // `trueish` is an attribute, not the keyword.
        assert_eq!(
            Expr::parse("trueish").unwrap(),
            Expr::Attr("trueish".to_string())
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("(1 + 2").is_err());
        assert!(Expr::parse("\"unterminated").is_err());
        assert!(Expr::parse("1 ~~ 2").is_err());
        assert!(Expr::parse("1 2").is_err(), "trailing input");
    }

    #[test]
    fn not_equal_operator_not_confused_with_not() {
        let e = Expr::parse("1 != 2").unwrap();
        assert!(e.eval_bool(&ClassAd::new(), &ClassAd::new()));
    }

    #[test]
    fn symbols_intern_case_insensitively() {
        let a = Symbol::intern("ComputeUnits");
        let b = Symbol::intern("COMPUTEUNITS");
        assert_eq!(a, b);
        assert_eq!(a.name(), "computeunits");
        assert_eq!(Symbol::find("computeUNITS"), Some(a));
        // Names longer than one folded 8-byte word, and ones differing only
        // past it, stay distinct; non-ASCII bytes are compared as they are.
        let long = Symbol::intern("ARatherLongAttributeName");
        assert_eq!(Symbol::find("aratherlongattributename"), Some(long));
        assert_ne!(Symbol::intern("ARatherLongAttributeNamf"), long);
        assert_ne!(Symbol::intern("ARatherLongAttributeNam"), long);
        let accented = Symbol::intern("Größe");
        assert_eq!(Symbol::find("GRößE"), Some(accented));
        assert_eq!(Symbol::find("GRÖßE"), None);
    }

    #[test]
    fn constant_expressions_fold_to_one_instruction() {
        for src in [
            "true",
            "1 + 2 * 3",
            "false && Missing > 1",
            "true || Missing > 1",
            "!(1 > 2)",
            "1 / 0",
        ] {
            let c = Expr::parse(src).unwrap().compile();
            assert_eq!(c.len(), 1, "{src} compiled to {c:?}");
        }
        // An attr-vs-constant compare fuses to a single instruction
        // (but not a literal push — it still reads the ads).
        let c = Expr::parse("Memory >= 1024").unwrap().compile();
        assert_eq!(c.len(), 1, "fused compare: {c:?}");
        // A two-term requirements conjunction: cmp, AndShort, cmp, Truthy.
        let c = Expr::parse(r#"Memory >= 1024 && Arch == "X86_64""#)
            .unwrap()
            .compile();
        assert_eq!(c.len(), 4, "fused conjunction: {c:?}");
        // Attr-vs-attr does not fuse.
        let c = Expr::parse("Memory + ComputeUnits").unwrap().compile();
        assert_eq!(c.len(), 3, "{c:?}");
    }

    #[test]
    fn compiled_short_circuit_skips_rhs() {
        // The rhs divides by zero; short-circuiting must never reach it —
        // and when it does run, it must coerce exactly like the reference.
        let target = ClassAd::new().with("Go", Value::Bool(false));
        for src in ["Go && 1 / 0", "!Go || 1 / 0", "Go || 1", "!Go && 1"] {
            assert_compiled_matches(src, &target, &ClassAd::new());
        }
    }

    #[test]
    fn compiled_agrees_on_the_standard_expressions() {
        let m = machine();
        let j = job();
        for src in [
            "ComputeUnits",
            r#"Memory >= 1024 && Arch == "X86_64""#,
            r#"OpSys == "linux""#,
            "ComputeUnits >= 2.2",
            "Memory / Cpus > 500",
            "-ComputeUnits + 10",
            "Missing != 5",
            "Cpus * 2 + Memory",
            "MY.RequestMemory <= Memory",
            "TARGET.Memory > MY.RequestMemory",
        ] {
            assert_compiled_matches(src, &m, &j);
            // And with the scopes swapped / empty.
            assert_compiled_matches(src, &j, &m);
            assert_compiled_matches(src, &ClassAd::new(), &ClassAd::new());
        }
    }

    #[test]
    fn classad_debug_is_name_ordered() {
        let ad = ClassAd::new()
            .with("Zeta", Value::Int(1))
            .with("alpha", Value::Int(2));
        let dbg = format!("{ad:?}");
        let alpha = dbg.find("alpha").unwrap();
        let zeta = dbg.find("zeta").unwrap();
        assert!(alpha < zeta, "{dbg}");
    }

    #[test]
    fn stored_undefined_behaves_like_missing_for_scoped_fallback() {
        // An explicitly stored Undefined in the target falls back to own,
        // matching the reference evaluator's `get` semantics.
        let target = ClassAd::new().with("X", Value::Undefined);
        let own = ClassAd::new().with("X", Value::Int(9));
        assert_compiled_matches("X", &target, &own);
        assert_eq!(
            Expr::parse("X").unwrap().compile().eval(&target, &own),
            Value::Int(9)
        );
    }
}
