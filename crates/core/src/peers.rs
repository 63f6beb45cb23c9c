//! The peer-interest table: what every other daemon on the segment
//! announced it subscribes to.
//!
//! Soft state fed by `SubAnnounce` packets and read by three consumers —
//! the publish gate (which predicates match a subject), guaranteed
//! delivery (which hosts must acknowledge a subject), and information
//! routers (the sorted filter snapshot a link summarizes). Every driver
//! keeps exactly one of these.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use infobus_subject::{Subject, SubjectFilter};

use crate::engine::filter::CompiledPredicate;
use crate::msg::AnnounceEntry;

/// One announced filter: parsed, with the content predicate it travels
/// with (`None` = unfiltered).
#[derive(Debug)]
struct PeerFilter {
    filter: SubjectFilter,
    pred: Option<Arc<CompiledPredicate>>,
}

/// `host → filter text → announced filter`. See the [module docs](self).
#[derive(Debug, Default)]
pub struct PeerTable {
    hosts: HashMap<u32, HashMap<String, PeerFilter>>,
}

impl PeerTable {
    /// An empty table.
    pub fn new() -> PeerTable {
        PeerTable::default()
    }

    /// Applies one `SubAnnounce` from `host`: `full` replaces the host's
    /// table, `add` entries replace same-text entries, `remove` drops
    /// them. Entries whose filter text does not parse are ignored; a
    /// malformed predicate decodes to unfiltered — the direction that can
    /// only over-deliver.
    pub fn apply_announce(
        &mut self,
        host: u32,
        full: bool,
        add: Vec<AnnounceEntry>,
        remove: Vec<String>,
    ) {
        let table = self.hosts.entry(host).or_default();
        if full {
            table.clear();
        }
        for e in add {
            if let Ok(filter) = SubjectFilter::new(&e.filter) {
                let pred = if e.pred.is_empty() {
                    None
                } else {
                    CompiledPredicate::from_bytes(&e.pred).ok().map(Arc::new)
                };
                table.insert(e.filter, PeerFilter { filter, pred });
            }
        }
        for text in remove {
            table.remove(&text);
        }
    }

    /// The predicate of every announced filter matching `subject`, in
    /// the shape [`interest_accepts`](crate::engine::filter::interest_accepts)
    /// consumes (`None` = unfiltered interest).
    pub fn matching<'a>(
        &'a self,
        subject: &'a Subject,
    ) -> impl Iterator<Item = Option<&'a CompiledPredicate>> + 'a {
        self.hosts
            .values()
            .flat_map(HashMap::values)
            .filter(move |pf| pf.filter.matches(subject))
            .map(|pf| pf.pred.as_deref())
    }

    /// The hosts that announced at least one filter matching `subject`
    /// (the guaranteed-delivery acknowledgment set).
    pub fn interested_hosts(&self, subject: &Subject) -> Vec<u32> {
        self.hosts
            .iter()
            .filter(|(_, table)| table.values().any(|pf| pf.filter.matches(subject)))
            .map(|(&host, _)| host)
            .collect()
    }

    /// Every announced filter text, deduplicated across hosts, sorted.
    pub fn filters(&self) -> Vec<String> {
        let set: BTreeSet<&String> = self.hosts.values().flat_map(HashMap::keys).collect();
        set.into_iter().cloned().collect()
    }

    /// The predicate each host announced for exactly the filter `text`
    /// (one item per announcing host).
    pub fn announced_for<'a>(
        &'a self,
        text: &'a str,
    ) -> impl Iterator<Item = Option<Arc<CompiledPredicate>>> + 'a {
        self.hosts
            .values()
            .filter_map(move |table| table.get(text))
            .map(|pf| pf.pred.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::filter::{interest_accepts, Predicate};
    use infobus_types::Value;

    fn plain(filters: &[&str]) -> Vec<AnnounceEntry> {
        filters.iter().map(|f| AnnounceEntry::plain(*f)).collect()
    }

    #[test]
    fn announce_replace_remove_and_full() {
        let mut t = PeerTable::new();
        t.apply_announce(2, false, plain(&["a.>", "b.x"]), vec![]);
        t.apply_announce(3, false, plain(&["a.>", "not..valid"]), vec![]);
        assert_eq!(t.filters(), ["a.>", "b.x"]);
        let subject = Subject::new("a.q").unwrap();
        let mut hosts = t.interested_hosts(&subject);
        hosts.sort_unstable();
        assert_eq!(hosts, [2, 3]);
        t.apply_announce(2, false, vec![], vec!["a.>".into()]);
        assert_eq!(t.interested_hosts(&subject), [3]);
        // A full announce replaces everything the host said before.
        t.apply_announce(3, true, plain(&["c.>"]), vec![]);
        assert!(t.interested_hosts(&subject).is_empty());
        assert_eq!(t.filters(), ["b.x", "c.>"]);
    }

    #[test]
    fn predicates_gate_and_malformed_ones_widen() {
        let subject = Subject::new("p.x").unwrap();
        let mut evals = 0;
        let mut accepts = |t: &PeerTable, v: i64| {
            interest_accepts(&Value::I64(v), t.matching(&subject), &mut evals)
        };
        let ge5 = CompiledPredicate::compile(&Predicate::ge("", Value::I64(5))).unwrap();
        let mut t = PeerTable::new();
        let filtered = AnnounceEntry::filtered("p.>", ge5.to_bytes());
        t.apply_announce(2, false, vec![filtered], vec![]);
        assert!(!accepts(&t, 1));
        assert!(accepts(&t, 9));
        assert_eq!(t.announced_for("p.>").filter(Option::is_some).count(), 1);
        // Re-announced with bytes no decoder accepts: unfiltered.
        let garbage = AnnounceEntry::filtered("p.>", vec![0xff; 7]);
        t.apply_announce(2, false, vec![garbage], vec![]);
        assert!(accepts(&t, 1));
        assert_eq!(t.announced_for("p.>").filter(Option::is_none).count(), 1);
        assert_eq!(evals, 2, "an unfiltered entry costs no evaluation");
    }
}
