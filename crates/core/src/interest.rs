//! Interest management: the local subject trie, debounced subscription
//! announcements, and the peer-daemon gossip tables.
//!
//! This is driver state, not engine state: the trie routes deliveries to
//! application slots, and announcements ride the simulated broadcast
//! segment. The engine only sees the *derived* facts (entitlement
//! verdicts, per-subject interest snapshots).

use std::collections::BTreeSet;
use std::sync::Arc;

use infobus_netsim::Ctx;
use infobus_subject::{Subject, SubjectFilter, SubscriptionId};
use infobus_types::Value;

use crate::daemon::DaemonState;
use crate::engine::filter::{announced_predicate, CompiledPredicate};
use crate::engine::Micros;
use crate::msg::{AnnounceEntry, Packet};

/// What a trie entry routes to.
#[derive(Debug, Clone)]
pub(crate) enum SubTarget {
    /// A data subscription of a local application.
    App { app_idx: usize },
    /// A discovery responder ("I am") with its announced info.
    Responder { app_idx: usize, info: Value },
    /// A locally exported service (answers RMI queries on the subject).
    Service { svc_idx: usize },
    /// A transient control subscription for a pending discovery or RMI
    /// call (lets offer/announce envelopes through the interest filter).
    Control,
}

/// Debounce delay for subscription announcements.
const ANN_FLUSH_DELAY_US: Micros = 5_000;

impl DaemonState {
    /// The predicate this daemon announces for `filter`: `None`
    /// (unfiltered) if any local subscription on the filter is
    /// predicate-free, the disjunction otherwise (see
    /// [`announced_predicate`]).
    pub(crate) fn announced_pred_for(&self, filter: &str) -> Option<Arc<CompiledPredicate>> {
        let subs = self.my_filters.get(filter)?;
        let preds: Vec<Option<Arc<CompiledPredicate>>> =
            subs.iter().map(|(_, p)| p.clone()).collect();
        announced_predicate(&preds)
    }

    /// The wire form of [`DaemonState::announced_pred_for`] (empty =
    /// unfiltered).
    fn announced_pred_bytes(&self, filter: &str) -> Vec<u8> {
        self.announced_pred_for(filter)
            .map_or_else(Vec::new, |p| p.to_bytes())
    }

    fn announce_add(
        &mut self,
        net: &mut Ctx<'_>,
        filter: &SubjectFilter,
        id: SubscriptionId,
        pred: Option<Arc<CompiledPredicate>>,
    ) {
        let before = self.announced_pred_bytes(filter.as_str());
        let is_new = {
            let subs = self
                .my_filters
                .entry(filter.as_str().to_owned())
                .or_default();
            subs.push((id, pred));
            subs.len() == 1
        };
        // A later subscription can *change* what the filter announces
        // (another predicate joins the disjunction, or a predicate-free
        // subscriber widens it to unfiltered): re-announce, replacing
        // the peers' stored entry.
        if is_new || before != self.announced_pred_bytes(filter.as_str()) {
            self.pending_announce_add.push(filter.as_str().to_owned());
            self.arm_announce_flush(net);
        }
    }

    /// Debounces announcements: thousands of subscriptions made in one
    /// handler (Figure 8's 10,000-subject consumers) travel in one packet.
    fn arm_announce_flush(&mut self, net: &mut Ctx<'_>) {
        if !self.announce_flush_armed {
            self.announce_flush_armed = true;
            net.set_timer(ANN_FLUSH_DELAY_US, crate::daemon::TOK_ANN_FLUSH);
        }
    }

    pub(crate) fn flush_announcements(&mut self, net: &mut Ctx<'_>) {
        self.announce_flush_armed = false;
        if self.pending_announce_add.is_empty() && self.pending_announce_remove.is_empty() {
            return;
        }
        let mut add = std::mem::take(&mut self.pending_announce_add);
        let remove = std::mem::take(&mut self.pending_announce_remove);
        // Re-announcements can queue a filter more than once; peers
        // replace on receipt, so only the latest state matters.
        add.sort();
        add.dedup();
        let add: Vec<AnnounceEntry> = add
            .into_iter()
            .filter(|f| self.my_filters.contains_key(f))
            .map(|f| {
                let pred = self.announced_pred_bytes(&f);
                AnnounceEntry { filter: f, pred }
            })
            .collect();
        if add.is_empty() && remove.is_empty() {
            return;
        }
        self.send_packet_broadcast(
            net,
            &Packet::SubAnnounce {
                host: self.host32,
                full: false,
                add,
                remove,
            },
        );
    }

    fn announce_remove(&mut self, net: &mut Ctx<'_>, filter: &SubjectFilter, id: SubscriptionId) {
        let before = self.announced_pred_bytes(filter.as_str());
        let now_zero = match self.my_filters.get_mut(filter.as_str()) {
            Some(subs) => {
                subs.retain(|(sid, _)| *sid != id);
                subs.is_empty()
            }
            None => false,
        };
        if now_zero {
            self.my_filters.remove(filter.as_str());
            self.pending_announce_remove
                .push(filter.as_str().to_owned());
            self.arm_announce_flush(net);
        } else if self.my_filters.contains_key(filter.as_str())
            && before != self.announced_pred_bytes(filter.as_str())
        {
            // Still subscribed, but the announced predicate narrowed
            // (the predicate-free subscriber left, say): re-announce.
            self.pending_announce_add.push(filter.as_str().to_owned());
            self.arm_announce_flush(net);
        }
    }

    pub(crate) fn announce_full(&mut self, net: &mut Ctx<'_>) {
        let add: Vec<AnnounceEntry> = self
            .my_filters
            .keys()
            .map(|f| AnnounceEntry {
                filter: f.clone(),
                pred: self.announced_pred_bytes(f),
            })
            .collect();
        self.send_packet_broadcast(
            net,
            &Packet::SubAnnounce {
                host: self.host32,
                full: true,
                add,
                remove: vec![],
            },
        );
    }

    /// Subscribes an application, expanding the filter through the
    /// configured [`SubjectMap`](infobus_router::SubjectMap) first: one
    /// call on `EQUITY.IBM` may materialize sibling subscriptions on
    /// every synonym/broadening of the filter. The returned id is the
    /// *family head*; unsubscribing it removes the whole family.
    pub(crate) fn subscribe_app_expanded(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        filter: &str,
        pred: Option<Arc<CompiledPredicate>>,
    ) -> Result<SubscriptionId, crate::BusError> {
        let expanded: Vec<String> = match self.engine.config().semantic_map() {
            Some(m) => m.expand_filter(filter),
            None => vec![filter.to_owned()],
        };
        let mut parsed = Vec::with_capacity(expanded.len());
        for f in &expanded {
            parsed.push(SubjectFilter::new(f)?);
        }
        let mut ids = Vec::with_capacity(parsed.len());
        for f in &parsed {
            ids.push(self.subscribe_app(net, app_idx, f, pred.clone()));
        }
        let primary = ids[0];
        if ids.len() > 1 {
            self.engine.stats.sem_expanded_filters += (ids.len() - 1) as u64;
            self.expansions.insert(primary, ids.split_off(1));
        }
        Ok(primary)
    }

    pub(crate) fn subscribe_app(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        filter: &SubjectFilter,
        pred: Option<Arc<CompiledPredicate>>,
    ) -> SubscriptionId {
        let id = self.trie.insert(filter, SubTarget::App { app_idx });
        self.sub_times.insert(id, net.now());
        if let Some(Some(meta)) = self.app_meta.get_mut(app_idx) {
            meta.subs.push(id);
        }
        if let Some(p) = &pred {
            self.sub_preds.insert(id, Arc::clone(p));
        }
        self.announce_add(net, filter, id, pred);
        id
    }

    pub(crate) fn subscribe_internal(
        &mut self,
        net: &mut Ctx<'_>,
        filter: &SubjectFilter,
        target: SubTarget,
    ) -> SubscriptionId {
        let id = self.trie.insert(filter, target);
        self.sub_times.insert(id, net.now());
        self.announce_add(net, filter, id, None);
        id
    }

    pub(crate) fn unsubscribe(&mut self, net: &mut Ctx<'_>, id: SubscriptionId) {
        // Semantic expansion families fall together: removing the head
        // removes every sibling the SubjectMap materialized.
        if let Some(extras) = self.expansions.remove(&id) {
            for extra in extras {
                self.unsubscribe_one(net, extra);
            }
        }
        self.unsubscribe_one(net, id);
    }

    fn unsubscribe_one(&mut self, net: &mut Ctx<'_>, id: SubscriptionId) {
        let mut filter: Option<SubjectFilter> = None;
        self.trie.for_each(|sid, f, _| {
            if sid == id {
                filter = Some(f.clone());
            }
        });
        if self.trie.remove(id).is_some() {
            self.sub_times.remove(&id);
            self.sub_preds.remove(&id);
            if let Some(f) = filter {
                self.announce_remove(net, &f, id);
            }
            for meta in self.app_meta.iter_mut().flatten() {
                meta.subs.retain(|s| *s != id);
            }
        }
    }

    pub(crate) fn known_subscriptions(&self) -> Vec<SubjectFilter> {
        let mut texts: BTreeSet<String> = self.my_filters.keys().cloned().collect();
        texts.extend(self.peer_subs.filters());
        // Only parseable filters ever enter either table.
        texts
            .iter()
            .filter_map(|f| SubjectFilter::new(f).ok())
            .collect()
    }

    /// The earliest creation time among local subscriptions matching
    /// `subject` (data, control, responder, or service entries alike).
    /// Feeds the engine's first-contact entitlement checks.
    pub(crate) fn earliest_matching_sub(&self, subject: &Subject) -> Option<Micros> {
        self.trie
            .matches(subject)
            .filter_map(|(id, _)| self.sub_times.get(&id).copied())
            .min()
    }
}
