//! Content predicates: daemon-side filtering over self-describing
//! payloads.
//!
//! Subject-based addressing matches on hierarchical prefixes only; a
//! [`Predicate`] narrows a subscription further, by *content*. It is a
//! small AST — comparisons, set membership, and/or/not — over attribute
//! paths into the published [`Value`] (dotted slot names navigate nested
//! [`DataObject`](infobus_types::DataObject)s; the meta-object protocol
//! makes fields introspectable without application code). Because the AST serializes to a compact
//! byte form ([`Predicate::encode`]), predicates travel inside
//! subscription announcements, so the *publisher's* daemon can evaluate
//! them before marshalling and fan-out: a publication rejected by every
//! matching interest is never framed, never sequenced, and never sent.
//!
//! Evaluation is **total and panic-free** on arbitrary values: a missing
//! attribute, a type mismatch, or an incomparable pair makes the leaf
//! `false` (never an error), so a malformed or foreign payload simply
//! fails to match. `Not` inverts that as ordinary boolean negation —
//! `Not(Cmp)` over a missing field is `true`, which is the conservative
//! direction for a filter (deliver rather than silently drop).
//!
//! A [`CompiledPredicate`] is the per-subscription compiled form: paths
//! are split into elements once, and the compile step enforces the same
//! depth/size bounds the wire decoder does, so anything accepted locally
//! is announcéable and anything decoded off the wire is evaluable.

use std::fmt;
use std::sync::Arc;

use infobus_types::{wire, Value};

/// Maximum AST nesting depth accepted by [`Predicate::decode`] and
/// [`CompiledPredicate::compile`]. Deep towers of `Not` from a hostile
/// peer are rejected, not recursed.
pub const MAX_PREDICATE_DEPTH: usize = 16;
/// Maximum node count per predicate.
pub const MAX_PREDICATE_NODES: usize = 256;
/// Maximum encoded size in bytes (an announcement carries one predicate
/// per filter; this bounds the frame).
pub const MAX_PREDICATE_BYTES: usize = 8 * 1024;
/// Maximum elements in one attribute path.
pub const MAX_PATH_ELEMENTS: usize = 32;

/// Comparison operator of a [`Predicate::Cmp`] leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal (false when the attribute is missing — totality, not
    /// tri-valued logic).
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn tag(self) -> u8 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        }
    }

    fn from_tag(t: u8) -> Option<CmpOp> {
        Some(match t {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A content predicate over a published value.
///
/// Attribute paths are dotted slot names (`"quote.price"` reads slot
/// `price` of the object in slot `quote`); an empty path addresses the
/// published value itself. Paths read declared slots first, then
/// dynamically attached properties, so a Keyword-Generator-style
/// annotation is filterable like any declared attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Compare the attribute at `path` with a constant.
    Cmp {
        /// Dotted attribute path into the published value.
        path: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand constant.
        value: Value,
    },
    /// True when the attribute at `path` equals any member of `set`.
    In {
        /// Dotted attribute path into the published value.
        path: String,
        /// Accepted constants.
        set: Vec<Value>,
    },
    /// True when every child is true (vacuously true when empty).
    All(Vec<Predicate>),
    /// True when at least one child is true (false when empty).
    Any(Vec<Predicate>),
    /// Boolean negation of the child.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `path == value`.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            path: path.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `path != value`.
    pub fn ne(path: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            path: path.into(),
            op: CmpOp::Ne,
            value: value.into(),
        }
    }

    /// `path < value`.
    pub fn lt(path: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            path: path.into(),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// `path <= value`.
    pub fn le(path: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            path: path.into(),
            op: CmpOp::Le,
            value: value.into(),
        }
    }

    /// `path > value`.
    pub fn gt(path: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            path: path.into(),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// `path >= value`.
    pub fn ge(path: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            path: path.into(),
            op: CmpOp::Ge,
            value: value.into(),
        }
    }

    /// `path ∈ set`.
    pub fn is_in(path: impl Into<String>, set: Vec<Value>) -> Predicate {
        Predicate::In {
            path: path.into(),
            set,
        }
    }

    /// Conjunction.
    pub fn all(children: Vec<Predicate>) -> Predicate {
        Predicate::All(children)
    }

    /// Disjunction.
    pub fn any(children: Vec<Predicate>) -> Predicate {
        Predicate::Any(children)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(child: Predicate) -> Predicate {
        Predicate::Not(Box::new(child))
    }

    /// Number of AST nodes.
    pub fn node_count(&self) -> usize {
        match self {
            Predicate::Cmp { .. } | Predicate::In { .. } => 1,
            Predicate::All(cs) | Predicate::Any(cs) => {
                1 + cs.iter().map(Predicate::node_count).sum::<usize>()
            }
            Predicate::Not(c) => 1 + c.node_count(),
        }
    }

    /// Maximum nesting depth (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Predicate::Cmp { .. } | Predicate::In { .. } => 1,
            Predicate::All(cs) | Predicate::Any(cs) => {
                1 + cs.iter().map(Predicate::depth).max().unwrap_or(0)
            }
            Predicate::Not(c) => 1 + c.depth(),
        }
    }

    /// Serializes the predicate to its announcement byte form.
    ///
    /// Layout (all integers little-endian): each node is a tag byte —
    /// `1` Cmp, `2` In, `3` All, `4` Any, `5` Not — followed by its
    /// payload. Cmp: op byte, u16 path length + path bytes, u32 constant
    /// length + [`wire::marshal_value`] bytes. In: u16 path length +
    /// path, u16 member count, then per member a u32 length + marshalled
    /// value. All/Any: u16 child count + children. Not: the child.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            let len = s.len().min(u16::MAX as usize) as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&s.as_bytes()[..len as usize]);
        }
        fn put_value(out: &mut Vec<u8>, v: &Value) {
            let bytes = wire::marshal_value(v);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        match self {
            Predicate::Cmp { path, op, value } => {
                out.push(1);
                out.push(op.tag());
                put_str(out, path);
                put_value(out, value);
            }
            Predicate::In { path, set } => {
                out.push(2);
                put_str(out, path);
                let n = set.len().min(u16::MAX as usize) as u16;
                out.extend_from_slice(&n.to_le_bytes());
                for v in set.iter().take(n as usize) {
                    put_value(out, v);
                }
            }
            Predicate::All(cs) | Predicate::Any(cs) => {
                out.push(if matches!(self, Predicate::All(_)) {
                    3
                } else {
                    4
                });
                let n = cs.len().min(u16::MAX as usize) as u16;
                out.extend_from_slice(&n.to_le_bytes());
                for c in cs.iter().take(n as usize) {
                    c.encode_into(out);
                }
            }
            Predicate::Not(c) => {
                out.push(5);
                c.encode_into(out);
            }
        }
    }

    /// Decodes a predicate from its byte form, enforcing
    /// [`MAX_PREDICATE_BYTES`], [`MAX_PREDICATE_DEPTH`], and
    /// [`MAX_PREDICATE_NODES`]. Trailing bytes are an error: an
    /// announcement entry carries exactly one predicate.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] on truncation, unknown tags, malformed
    /// constants, or a predicate exceeding the bounds.
    pub fn decode(buf: &[u8]) -> Result<Predicate, FilterError> {
        if buf.len() > MAX_PREDICATE_BYTES {
            return Err(FilterError::TooLarge);
        }
        let mut cursor = buf;
        let mut nodes = 0usize;
        let p = Self::decode_node(&mut cursor, 1, &mut nodes)?;
        if !cursor.is_empty() {
            return Err(FilterError::TrailingBytes(cursor.len()));
        }
        Ok(p)
    }

    fn decode_node(
        buf: &mut &[u8],
        depth: usize,
        nodes: &mut usize,
    ) -> Result<Predicate, FilterError> {
        if depth > MAX_PREDICATE_DEPTH {
            return Err(FilterError::TooDeep);
        }
        *nodes += 1;
        if *nodes > MAX_PREDICATE_NODES {
            return Err(FilterError::TooManyNodes);
        }
        fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], FilterError> {
            if buf.len() < n {
                return Err(FilterError::Truncated);
            }
            let (head, tail) = buf.split_at(n);
            *buf = tail;
            Ok(head)
        }
        fn get_u8(buf: &mut &[u8]) -> Result<u8, FilterError> {
            Ok(take(buf, 1)?[0])
        }
        fn get_u16(buf: &mut &[u8]) -> Result<u16, FilterError> {
            let b = take(buf, 2)?;
            Ok(u16::from_le_bytes([b[0], b[1]]))
        }
        fn get_str(buf: &mut &[u8]) -> Result<String, FilterError> {
            let len = get_u16(buf)? as usize;
            let raw = take(buf, len)?;
            String::from_utf8(raw.to_vec()).map_err(|_| FilterError::BadPath)
        }
        fn get_value(buf: &mut &[u8]) -> Result<Value, FilterError> {
            let b = take(buf, 4)?;
            let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
            let raw = take(buf, len)?;
            wire::unmarshal_value(raw).map_err(|_| FilterError::BadConstant)
        }
        match get_u8(buf)? {
            1 => {
                let op = CmpOp::from_tag(get_u8(buf)?).ok_or(FilterError::BadTag(255))?;
                let path = get_str(buf)?;
                let value = get_value(buf)?;
                Ok(Predicate::Cmp { path, op, value })
            }
            2 => {
                let path = get_str(buf)?;
                let n = get_u16(buf)? as usize;
                let mut set = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    set.push(get_value(buf)?);
                }
                Ok(Predicate::In { path, set })
            }
            t @ (3 | 4) => {
                let n = get_u16(buf)? as usize;
                let mut cs = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    cs.push(Self::decode_node(buf, depth + 1, nodes)?);
                }
                Ok(if t == 3 {
                    Predicate::All(cs)
                } else {
                    Predicate::Any(cs)
                })
            }
            5 => Ok(Predicate::Not(Box::new(Self::decode_node(
                buf,
                depth + 1,
                nodes,
            )?))),
            other => Err(FilterError::BadTag(other)),
        }
    }
}

/// Errors from predicate decoding or compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FilterError {
    /// Nesting exceeds [`MAX_PREDICATE_DEPTH`].
    TooDeep,
    /// Node count exceeds [`MAX_PREDICATE_NODES`].
    TooManyNodes,
    /// Encoded form exceeds [`MAX_PREDICATE_BYTES`].
    TooLarge,
    /// The byte form ended mid-node.
    Truncated,
    /// Bytes remained after the predicate (count).
    TrailingBytes(usize),
    /// Unknown node or operator tag.
    BadTag(u8),
    /// A constant failed to unmarshal.
    BadConstant,
    /// A path was not valid UTF-8 or has too many elements
    /// ([`MAX_PATH_ELEMENTS`]).
    BadPath,
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterError::TooDeep => write!(f, "predicate nesting exceeds {MAX_PREDICATE_DEPTH}"),
            FilterError::TooManyNodes => {
                write!(f, "predicate exceeds {MAX_PREDICATE_NODES} nodes")
            }
            FilterError::TooLarge => {
                write!(f, "encoded predicate exceeds {MAX_PREDICATE_BYTES} bytes")
            }
            FilterError::Truncated => write!(f, "encoded predicate is truncated"),
            FilterError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after predicate")
            }
            FilterError::BadTag(t) => write!(f, "unknown predicate tag {t}"),
            FilterError::BadConstant => write!(f, "predicate constant failed to unmarshal"),
            FilterError::BadPath => write!(f, "predicate path is malformed"),
        }
    }
}

impl std::error::Error for FilterError {}

/// A predicate compiled for per-message evaluation: attribute paths are
/// split into elements once, and the size bounds are enforced at compile
/// time so every held predicate is announcéable.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPredicate {
    source: Predicate,
    root: Node,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Cmp {
        path: Vec<String>,
        op: CmpOp,
        value: Value,
    },
    In {
        path: Vec<String>,
        set: Vec<Value>,
    },
    All(Vec<Node>),
    Any(Vec<Node>),
    Not(Box<Node>),
}

impl CompiledPredicate {
    /// Compiles a predicate, validating the same bounds the wire decoder
    /// enforces.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] if the predicate exceeds the depth,
    /// node, byte, or path bounds.
    pub fn compile(p: &Predicate) -> Result<CompiledPredicate, FilterError> {
        if p.depth() > MAX_PREDICATE_DEPTH {
            return Err(FilterError::TooDeep);
        }
        if p.node_count() > MAX_PREDICATE_NODES {
            return Err(FilterError::TooManyNodes);
        }
        let root = Self::compile_node(p)?;
        Ok(CompiledPredicate {
            source: p.clone(),
            root,
        })
    }

    /// Compiles straight from the wire byte form (decode + compile).
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] on malformed bytes or an out-of-bounds
    /// predicate.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompiledPredicate, FilterError> {
        Self::compile(&Predicate::decode(bytes)?)
    }

    fn compile_node(p: &Predicate) -> Result<Node, FilterError> {
        fn split_path(path: &str) -> Result<Vec<String>, FilterError> {
            if path.is_empty() {
                return Ok(Vec::new());
            }
            let parts: Vec<String> = path.split('.').map(str::to_owned).collect();
            if parts.len() > MAX_PATH_ELEMENTS || parts.iter().any(String::is_empty) {
                return Err(FilterError::BadPath);
            }
            Ok(parts)
        }
        Ok(match p {
            Predicate::Cmp { path, op, value } => Node::Cmp {
                path: split_path(path)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::In { path, set } => Node::In {
                path: split_path(path)?,
                set: set.clone(),
            },
            Predicate::All(cs) => Node::All(
                cs.iter()
                    .map(Self::compile_node)
                    .collect::<Result<_, _>>()?,
            ),
            Predicate::Any(cs) => Node::Any(
                cs.iter()
                    .map(Self::compile_node)
                    .collect::<Result<_, _>>()?,
            ),
            Predicate::Not(c) => Node::Not(Box::new(Self::compile_node(c)?)),
        })
    }

    /// The predicate this was compiled from.
    pub fn source(&self) -> &Predicate {
        &self.source
    }

    /// The announcement byte form (what crosses the wire).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.source.encode()
    }

    /// Evaluates the predicate against a published value. Total and
    /// panic-free: missing attributes, type mismatches, and incomparable
    /// pairs make the affected leaf `false`.
    pub fn eval(&self, value: &Value) -> bool {
        Self::eval_node(&self.root, value)
    }

    fn eval_node(node: &Node, value: &Value) -> bool {
        match node {
            Node::Cmp { path, op, value: c } => match lookup(value, path) {
                Some(v) => cmp_values(*op, v, c),
                None => false,
            },
            Node::In { path, set } => match lookup(value, path) {
                Some(v) => set.iter().any(|m| loose_eq(v, m)),
                None => false,
            },
            Node::All(cs) => cs.iter().all(|c| Self::eval_node(c, value)),
            Node::Any(cs) => cs.iter().any(|c| Self::eval_node(c, value)),
            Node::Not(c) => !Self::eval_node(c, value),
        }
    }
}

/// Walks a dotted attribute path: objects are read slot-first, then
/// dynamically attached properties; any other value ends the walk.
fn lookup<'a>(mut value: &'a Value, path: &[String]) -> Option<&'a Value> {
    for elem in path {
        let obj = value.as_object()?;
        value = obj.get(elem).or_else(|| obj.property(elem))?;
    }
    Some(value)
}

/// Loose equality: numbers compare across `I64`/`F64`; everything else
/// compares within its own kind.
fn loose_eq(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

fn cmp_values(op: CmpOp, lhs: &Value, rhs: &Value) -> bool {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => loose_eq(lhs, rhs),
        CmpOp::Ne => !loose_eq(lhs, rhs),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let ord: Option<Ordering> = match (lhs, rhs) {
                (Value::Str(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_str())),
                (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
                _ => match (lhs.as_f64(), rhs.as_f64()) {
                    // NaN anywhere → incomparable → false.
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => None,
                },
            };
            match ord {
                Some(o) => match op {
                    CmpOp::Lt => o == Ordering::Less,
                    CmpOp::Le => o != Ordering::Greater,
                    CmpOp::Gt => o == Ordering::Greater,
                    CmpOp::Ge => o != Ordering::Less,
                    _ => unreachable!("ordering ops only"),
                },
                None => false,
            }
        }
    }
}

/// Publisher-side gate over every *matching* interest entry.
///
/// Returns `true` when the publication must be sent: immediately on the
/// first predicate-free entry or the first accepting predicate. Returns
/// `false` only when at least one entry matched and **all** of them
/// carried rejecting predicates — suppressing on unanimous rejection is
/// the only safe direction. With *zero* matching interest the gate sends
/// (`true`): soft-state announcements race subscription creation, and
/// today's protocol already broadcasts into silence, so the gate never
/// tightens that.
///
/// `evals` counts predicate evaluations performed (feeds `filt_evals`).
pub fn interest_accepts<'a, I>(value: &Value, preds: I, evals: &mut u64) -> bool
where
    I: IntoIterator<Item = Option<&'a CompiledPredicate>>,
{
    let mut matched_any = false;
    for p in preds {
        matched_any = true;
        match p {
            None => return true,
            Some(p) => {
                *evals += 1;
                if p.eval(value) {
                    return true;
                }
            }
        }
    }
    !matched_any
}

/// A cheap estimate of a value's marshalled size, used to attribute
/// `filt_suppressed_bytes` when the publish gate suppresses a
/// publication *before* it was ever marshalled (so no exact wire length
/// exists). Lower-bound-ish and deliberately shallow for objects — the
/// counter is diagnostic, not billing.
pub fn approx_wire_bytes(value: &Value) -> usize {
    match value {
        Value::Nil | Value::Bool(_) => 8,
        Value::I64(_) | Value::F64(_) => 16,
        Value::Str(s) => 8 + s.len(),
        Value::Bytes(b) => 8 + b.len(),
        Value::List(xs) => 8 + xs.iter().map(approx_wire_bytes).sum::<usize>(),
        Value::Object(_) => 64,
    }
}

/// Driver-side filter/semantic counters, kept as atomics because the
/// gates run outside any engine lock (the publish gate fires before the
/// engine is locked). Folded into
/// [`BusStats`](super::BusStats) snapshots via
/// [`FilterCounters::fold_into`].
#[derive(Debug, Default)]
pub struct FilterCounters {
    /// Predicate evaluations performed (→ `filt_evals`).
    pub evals: std::sync::atomic::AtomicU64,
    /// Publications suppressed by the publish gate
    /// (→ `filt_pub_suppressed`).
    pub pub_suppressed: std::sync::atomic::AtomicU64,
    /// Deliveries suppressed by the delivery gate
    /// (→ `filt_delivery_suppressed`).
    pub delivery_suppressed: std::sync::atomic::AtomicU64,
    /// Approximate payload bytes kept off the wire
    /// (→ `filt_suppressed_bytes`).
    pub suppressed_bytes: std::sync::atomic::AtomicU64,
    /// Semantic rewrites applied (→ `sem_canonicalized`).
    pub sem_canonicalized: std::sync::atomic::AtomicU64,
    /// Extra semantic filter insertions (→ `sem_expanded_filters`).
    pub sem_expanded: std::sync::atomic::AtomicU64,
}

impl FilterCounters {
    /// Adds the counters into a merged stats snapshot.
    pub fn fold_into(&self, stats: &mut super::BusStats) {
        use std::sync::atomic::Ordering::Relaxed;
        stats.filt_evals += self.evals.load(Relaxed);
        stats.filt_pub_suppressed += self.pub_suppressed.load(Relaxed);
        stats.filt_delivery_suppressed += self.delivery_suppressed.load(Relaxed);
        stats.filt_suppressed_bytes += self.suppressed_bytes.load(Relaxed);
        stats.sem_canonicalized += self.sem_canonicalized.load(Relaxed);
        stats.sem_expanded_filters += self.sem_expanded.load(Relaxed);
    }

    /// Records the result of a publish-gate decision: `evals`
    /// evaluations happened; when `sent` is false the publication was
    /// suppressed with `approx_bytes` payload bytes kept off the wire.
    pub fn record_publish_gate(&self, evals: u64, sent: bool, approx_bytes: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        self.evals.fetch_add(evals, Relaxed);
        if !sent {
            self.pub_suppressed.fetch_add(1, Relaxed);
            self.suppressed_bytes
                .fetch_add(approx_bytes as u64, Relaxed);
        }
    }
}

/// Combines the predicates of every local subscription sharing one
/// filter text into the single predicate announced for that filter:
/// `None` (announce unfiltered) if any subscription is predicate-free,
/// otherwise the disjunction. The announced form is an
/// over-approximation of each individual subscription, so the remote
/// publish gate never starves a local subscriber; exact per-subscription
/// filtering happens again at the delivery gate.
pub fn announced_predicate(
    subs: &[Option<Arc<CompiledPredicate>>],
) -> Option<Arc<CompiledPredicate>> {
    if subs.is_empty() || subs.iter().any(Option::is_none) {
        return None;
    }
    if subs.len() == 1 {
        return subs[0].clone();
    }
    let children: Vec<Predicate> = subs.iter().flatten().map(|p| p.source().clone()).collect();
    CompiledPredicate::compile(&Predicate::Any(children))
        .ok()
        .map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infobus_types::DataObject;

    fn quote(sym: &str, price: f64, size: i64) -> Value {
        Value::object(
            DataObject::new("Quote")
                .with("sym", sym)
                .with("price", price)
                .with("size", size),
        )
    }

    fn compiled(p: &Predicate) -> CompiledPredicate {
        CompiledPredicate::compile(p).expect("compiles")
    }

    #[test]
    fn comparisons_and_membership() {
        let v = quote("IBM", 101.5, 300);
        assert!(compiled(&Predicate::eq("sym", "IBM")).eval(&v));
        assert!(!compiled(&Predicate::eq("sym", "GM")).eval(&v));
        assert!(compiled(&Predicate::gt("price", 100.0)).eval(&v));
        assert!(compiled(&Predicate::le("size", 300i64)).eval(&v));
        assert!(compiled(&Predicate::ne("sym", "GM")).eval(&v));
        assert!(compiled(&Predicate::is_in(
            "sym",
            vec![Value::str("GM"), Value::str("IBM")]
        ))
        .eval(&v));
        assert!(!compiled(&Predicate::is_in("sym", vec![])).eval(&v));
    }

    #[test]
    fn numeric_widening_across_kinds() {
        let v = quote("IBM", 100.0, 300);
        // i64 constant against f64 attribute and vice versa.
        assert!(compiled(&Predicate::eq("price", 100i64)).eval(&v));
        assert!(compiled(&Predicate::lt("size", 300.5f64)).eval(&v));
    }

    #[test]
    fn missing_fields_and_type_mismatches_are_false_not_errors() {
        let v = quote("IBM", 101.5, 300);
        assert!(!compiled(&Predicate::eq("absent", 1i64)).eval(&v));
        assert!(!compiled(&Predicate::lt("sym", 10i64)).eval(&v));
        // Not over a missing field is true (boolean negation).
        assert!(compiled(&Predicate::not(Predicate::eq("absent", 1i64))).eval(&v));
        // Non-object payloads never match attribute paths…
        assert!(!compiled(&Predicate::eq("x", 1i64)).eval(&Value::I64(5)));
        // …but the empty path addresses the value itself.
        assert!(compiled(&Predicate::eq("", 5i64)).eval(&Value::I64(5)));
    }

    #[test]
    fn nested_paths_and_properties() {
        let inner = DataObject::new("Src").with("name", "Reuters");
        let mut story = DataObject::new("Story").with("source", inner);
        story.set_property("keywords", Value::List(vec![Value::str("auto")]));
        let v = Value::object(story);
        assert!(compiled(&Predicate::eq("source.name", "Reuters")).eval(&v));
        assert!(!compiled(&Predicate::eq("source.name.deeper", "x")).eval(&v));
        // Properties resolve like slots.
        assert!(compiled(&Predicate::ne("keywords", "unused")).eval(&v));
    }

    #[test]
    fn boolean_composition() {
        let v = quote("IBM", 101.5, 300);
        let p = Predicate::all(vec![
            Predicate::eq("sym", "IBM"),
            Predicate::any(vec![
                Predicate::gt("price", 200.0),
                Predicate::ge("size", 100i64),
            ]),
        ]);
        assert!(compiled(&p).eval(&v));
        assert!(
            compiled(&Predicate::All(vec![])).eval(&v),
            "empty All is true"
        );
        assert!(
            !compiled(&Predicate::Any(vec![])).eval(&v),
            "empty Any is false"
        );
    }

    #[test]
    fn nan_never_matches_orderings() {
        let v = quote("IBM", f64::NAN, 1);
        for p in [
            Predicate::lt("price", 1.0),
            Predicate::gt("price", 1.0),
            Predicate::le("price", 1.0),
            Predicate::ge("price", 1.0),
        ] {
            assert!(!compiled(&p).eval(&v), "{p:?}");
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = Predicate::all(vec![
            Predicate::eq("sym", "IBM"),
            Predicate::not(Predicate::is_in(
                "venue",
                vec![Value::str("dark"), Value::I64(9)],
            )),
            Predicate::any(vec![Predicate::lt("price", 10.25f64)]),
        ]);
        let bytes = p.encode();
        assert_eq!(Predicate::decode(&bytes).expect("decodes"), p);
        // Compile-from-bytes agrees with compile-from-AST.
        let a = CompiledPredicate::from_bytes(&bytes).expect("compiles");
        let b = compiled(&p);
        let v = quote("IBM", 5.0, 1);
        assert_eq!(a.eval(&v), b.eval(&v));
    }

    #[test]
    fn decode_rejects_garbage_and_bounds() {
        assert!(Predicate::decode(&[]).is_err());
        assert!(Predicate::decode(&[9, 9, 9]).is_err());
        let mut deep = Predicate::eq("x", 1i64);
        for _ in 0..MAX_PREDICATE_DEPTH + 1 {
            deep = Predicate::not(deep);
        }
        assert_eq!(Predicate::decode(&deep.encode()), Err(FilterError::TooDeep));
        assert_eq!(
            CompiledPredicate::compile(&deep).err(),
            Some(FilterError::TooDeep)
        );
        let wide = Predicate::All(vec![Predicate::eq("x", 1i64); MAX_PREDICATE_NODES]);
        assert!(Predicate::decode(&wide.encode()).is_err());
        // Truncation at every prefix length is an error, never a panic.
        let bytes = Predicate::eq("sym", "IBM").encode();
        for n in 0..bytes.len() {
            assert!(Predicate::decode(&bytes[..n]).is_err(), "prefix {n}");
        }
        // Trailing bytes are rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            Predicate::decode(&padded),
            Err(FilterError::TrailingBytes(1))
        );
    }

    #[test]
    fn compile_rejects_bad_paths() {
        assert_eq!(
            CompiledPredicate::compile(&Predicate::eq("a..b", 1i64)).err(),
            Some(FilterError::BadPath)
        );
        let long = vec!["x"; MAX_PATH_ELEMENTS + 1].join(".");
        assert_eq!(
            CompiledPredicate::compile(&Predicate::eq(long, 1i64)).err(),
            Some(FilterError::BadPath)
        );
    }

    #[test]
    fn interest_gate_rules() {
        let v = quote("IBM", 101.5, 300);
        let hit = compiled(&Predicate::eq("sym", "IBM"));
        let miss = compiled(&Predicate::eq("sym", "GM"));
        let mut evals = 0;
        // Zero interest → send.
        assert!(interest_accepts(&v, std::iter::empty(), &mut evals));
        // Any predicate-free entry → send without evaluating the rest.
        assert!(interest_accepts(&v, vec![None, Some(&miss)], &mut evals));
        assert_eq!(evals, 0);
        // Unanimous rejection → suppress.
        assert!(!interest_accepts(
            &v,
            vec![Some(&miss), Some(&miss)],
            &mut evals
        ));
        assert_eq!(evals, 2);
        // One acceptance is enough.
        assert!(interest_accepts(
            &v,
            vec![Some(&miss), Some(&hit)],
            &mut evals
        ));
        assert_eq!(evals, 4);
    }

    #[test]
    fn announced_predicate_over_approximates() {
        let v_ibm = quote("IBM", 1.0, 1);
        let v_gm = quote("GM", 1.0, 1);
        let a = Arc::new(compiled(&Predicate::eq("sym", "IBM")));
        let b = Arc::new(compiled(&Predicate::eq("sym", "GM")));
        // Mixed with a predicate-free sub → unfiltered.
        assert!(announced_predicate(&[Some(a.clone()), None]).is_none());
        assert!(announced_predicate(&[]).is_none());
        // Single predicate passes through by pointer.
        let single = announced_predicate(&[Some(a.clone())]).expect("some");
        assert!(Arc::ptr_eq(&single, &a));
        // Two predicates announce their disjunction.
        let both = announced_predicate(&[Some(a), Some(b)]).expect("some");
        assert!(both.eval(&v_ibm) && both.eval(&v_gm));
        assert!(!both.eval(&quote("T", 1.0, 1)));
    }
}
