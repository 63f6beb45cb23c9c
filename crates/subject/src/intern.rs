//! Subject interning: dense integer ids for subject names.
//!
//! Every layer of the bus names messages by subject, and before
//! interning every layer paid for that name separately: the string was
//! re-validated, re-hashed, and re-cloned at each hop of the hot path
//! (publish → sequence → batch → fan-out). A [`SubjectTable`] collapses
//! that cost to one lookup: the first time a daemon sees a subject it
//! validates the text once and assigns the next dense [`SubjectId`];
//! every later use travels as an [`InternedSubject`] — the id plus a
//! reference-counted handle to the *single* shared [`Subject`] value —
//! so clones are a pointer bump and driver-side caches (trie-match
//! memoization, per-subject routing) can key on a `u32` instead of
//! hashing text.
//!
//! # Ids are per-daemon, never on the wire
//!
//! Two daemons intern subjects in whatever order traffic reaches them,
//! so the same subject may get different ids on different hosts. Ids
//! are therefore **driver-local accelerators only**: the wire format
//! and the durable ledger keep full subject strings, translated at
//! frame encode/decode, and every equality, hash, and ordering of an
//! [`InternedSubject`] is defined by the subject *text*, not the id.
//! Correctness never depends on two tables agreeing.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use crate::{Subject, SubjectError};

/// Dense per-daemon identifier of an interned subject (`0..table.len()`).
///
/// Ids are assigned in first-appearance order by a [`SubjectTable`] and
/// are meaningful only to the daemon that assigned them — see the
/// module docs. Use them as cache keys; never compare ids from
/// different tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubjectId(pub u32);

impl SubjectId {
    /// The id as a plain index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SubjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A subject that has been interned in some daemon's [`SubjectTable`]:
/// the validated [`Subject`] plus the dense [`SubjectId`] the table
/// assigned it.
///
/// Cloning is two pointer-sized copies (the id and a reference-count
/// bump on the shared text). Equality, hashing, and ordering all follow
/// the subject **text** — the id is deliberately excluded, so values
/// interned by different tables (or by one table at different times)
/// compare exactly like the underlying strings and map/set
/// behavior is identical to the pre-interning code.
#[derive(Clone)]
pub struct InternedSubject {
    id: SubjectId,
    name: Subject,
}

impl InternedSubject {
    /// Pairs an already-validated subject with its table-assigned id.
    /// Exposed for drivers that maintain their own side tables; normal
    /// code obtains values from [`SubjectTable::intern`].
    pub fn from_parts(id: SubjectId, name: Subject) -> InternedSubject {
        InternedSubject { id, name }
    }

    /// The dense id assigned by the interning table.
    pub fn id(&self) -> SubjectId {
        self.id
    }

    /// The underlying validated subject.
    pub fn subject(&self) -> &Subject {
        &self.name
    }

    /// The subject's textual form.
    pub fn as_str(&self) -> &str {
        self.name.as_str()
    }

    /// Unwraps into the underlying [`Subject`].
    pub fn into_subject(self) -> Subject {
        self.name
    }
}

impl PartialEq for InternedSubject {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for InternedSubject {}

impl std::hash::Hash for InternedSubject {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl PartialOrd for InternedSubject {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternedSubject {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(&other.name)
    }
}

impl PartialEq<str> for InternedSubject {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for InternedSubject {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl AsRef<str> for InternedSubject {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for InternedSubject {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl std::ops::Deref for InternedSubject {
    type Target = Subject;

    fn deref(&self) -> &Subject {
        &self.name
    }
}

impl fmt::Display for InternedSubject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for InternedSubject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InternedSubject({}{})", self.as_str(), self.id)
    }
}

/// The per-daemon intern table: subject text → dense [`SubjectId`],
/// first-appearance ordered.
///
/// The table is a cheap cloneable handle (a driver shares its engine's
/// table, so an id means the same thing on both sides). Lookups
/// of already-interned subjects take a read lock only; a miss validates
/// the text, assigns the next id under the write lock, and stores the
/// one shared [`Subject`] every later [`InternedSubject`] will alias.
#[derive(Clone, Default)]
pub struct SubjectTable {
    inner: Arc<TableInner>,
}

#[derive(Default)]
struct TableInner {
    /// text → id. Keyed by the same `Subject` values `rev` holds, so
    /// the text allocation exists exactly once per distinct subject.
    map: RwLock<HashMap<Subject, u32>>,
    /// id → subject, dense (index == id).
    rev: RwLock<Vec<Subject>>,
}

impl SubjectTable {
    /// Creates an empty table.
    pub fn new() -> SubjectTable {
        SubjectTable::default()
    }

    /// Interns `text`, validating it on first appearance.
    ///
    /// # Errors
    ///
    /// Returns the [`SubjectError`] from subject validation if `text`
    /// is not a well-formed plain subject.
    pub fn intern(&self, text: &str) -> Result<InternedSubject, SubjectError> {
        self.intern_full(text).map(|(s, _)| s)
    }

    /// Interns `text` and reports whether this call created the entry
    /// (`true` exactly once per distinct subject per table) — the hook
    /// the stats plane uses to count interned subjects.
    ///
    /// # Errors
    ///
    /// Returns the [`SubjectError`] from subject validation if `text`
    /// is not a well-formed plain subject.
    pub fn intern_full(&self, text: &str) -> Result<(InternedSubject, bool), SubjectError> {
        if let Some(found) = self.get(text) {
            return Ok((found, false));
        }
        let name = Subject::new(text)?;
        Ok(self.insert(name))
    }

    /// Interns an already-validated subject (no re-validation).
    pub fn intern_subject(&self, name: &Subject) -> InternedSubject {
        if let Some(found) = self.get(name.as_str()) {
            return found;
        }
        self.insert(name.clone()).0
    }

    fn insert(&self, name: Subject) -> (InternedSubject, bool) {
        let mut map = self.inner.map.write().unwrap_or_else(|e| e.into_inner());
        // Double-check under the write lock: another thread may have
        // interned the same subject between our read miss and here.
        if let Some(&id) = map.get(name.as_str()) {
            let rev = self.inner.rev.read().unwrap_or_else(|e| e.into_inner());
            let stored = rev[id as usize].clone();
            return (InternedSubject::from_parts(SubjectId(id), stored), false);
        }
        let mut rev = self.inner.rev.write().unwrap_or_else(|e| e.into_inner());
        let id = u32::try_from(rev.len()).expect("more than u32::MAX distinct subjects");
        rev.push(name.clone());
        map.insert(name.clone(), id);
        (InternedSubject::from_parts(SubjectId(id), name), true)
    }

    /// Looks up `text` without interning it; `None` if never seen.
    pub fn get(&self, text: &str) -> Option<InternedSubject> {
        let map = self.inner.map.read().unwrap_or_else(|e| e.into_inner());
        let &id = map.get(text)?;
        // `rev` is append-only and `map` never points past its end, so
        // the indexed read cannot fail.
        let rev = self.inner.rev.read().unwrap_or_else(|e| e.into_inner());
        let stored = rev[id as usize].clone();
        Some(InternedSubject::from_parts(SubjectId(id), stored))
    }

    /// Resolves an id previously assigned by **this** table; `None` if
    /// the id was never assigned.
    pub fn resolve(&self, id: SubjectId) -> Option<Subject> {
        let rev = self.inner.rev.read().unwrap_or_else(|e| e.into_inner());
        rev.get(id.index()).cloned()
    }

    /// Number of distinct subjects interned so far.
    pub fn len(&self) -> usize {
        self.inner
            .rev
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for SubjectTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SubjectTable(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_appearance_ordered() {
        let t = SubjectTable::new();
        let a = t.intern("news.equity.gmc").unwrap();
        let b = t.intern("fab5.cc.litho8").unwrap();
        let a2 = t.intern("news.equity.gmc").unwrap();
        assert_eq!(a.id(), SubjectId(0));
        assert_eq!(b.id(), SubjectId(1));
        assert_eq!(a2.id(), a.id());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn round_trips_id_to_text_to_id() {
        let t = SubjectTable::new();
        for text in ["a", "a.b", "a.b.c", "zz.top"] {
            let s = t.intern(text).unwrap();
            let back = t.resolve(s.id()).unwrap();
            assert_eq!(back.as_str(), text);
            let again = t.intern(back.as_str()).unwrap();
            assert_eq!(again.id(), s.id());
        }
    }

    #[test]
    fn interned_subjects_share_one_text_allocation() {
        let t = SubjectTable::new();
        let a = t.intern("news.equity.gmc").unwrap();
        let b = t.intern("news.equity.gmc").unwrap();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn equality_hash_and_order_follow_text_not_id() {
        let t1 = SubjectTable::new();
        let t2 = SubjectTable::new();
        t2.intern("zz.filler").unwrap(); // skew t2's ids
        let a = t1.intern("news.equity.gmc").unwrap();
        let b = t2.intern("news.equity.gmc").unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(a, b);
        use std::collections::HashSet;
        let set: HashSet<InternedSubject> = [a.clone(), b].into_iter().collect();
        assert_eq!(set.len(), 1);
        let c = t1.intern("news.equity.ibm").unwrap();
        assert!(a < c);
        assert_eq!(a, "news.equity.gmc");
    }

    #[test]
    fn rejects_invalid_text() {
        let t = SubjectTable::new();
        assert!(t.intern("bad..subject").is_err());
        assert!(t.intern("wild.*").is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn intern_full_reports_first_appearance() {
        let t = SubjectTable::new();
        assert!(t.intern_full("a.b").unwrap().1);
        assert!(!t.intern_full("a.b").unwrap().1);
        assert!(t.intern_full("a.c").unwrap().1);
    }

    #[test]
    fn get_does_not_intern() {
        let t = SubjectTable::new();
        assert!(t.get("a.b").is_none());
        t.intern("a.b").unwrap();
        assert_eq!(t.get("a.b").unwrap().id(), SubjectId(0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shared_handle_sees_all_interns() {
        let t = SubjectTable::new();
        let t2 = t.clone();
        let a = t.intern("x.y").unwrap();
        assert_eq!(t2.get("x.y").unwrap().id(), a.id());
        assert_eq!(t2.len(), 1);
    }
}
