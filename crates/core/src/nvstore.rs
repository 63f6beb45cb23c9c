//! The driver-side non-volatile store behind `Persist`/`Unpersist`.
//!
//! The engine logs every guaranteed envelope *before* it is sent by
//! emitting [`Action::Persist`](crate::engine::Action) and releases it
//! with `Unpersist` once acknowledged; what those actions land on is the
//! driver's choice. [`NvStore`] is that choice, shared by every
//! wall-clock driver:
//!
//! * **`Mem`** — the historical in-memory map. Guaranteed delivery
//!   survives engine restarts (tests hand the map back to
//!   [`Engine::gd_load`](crate::engine::Engine::gd_load)) but not
//!   process death.
//! * **`Durable`** — one [`WalLedger`] at `<dir>/shard-0` under
//!   [`BusConfig::durable_dir`], replayed into the engine when a driver
//!   opens.
//!
//! Ledger I/O failures on the write path are fail-stop (a panic): a
//! daemon that cannot log a guaranteed message must not pretend it can
//! guarantee it.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use infobus_subject::SubjectTable;
use infobus_wal::{LedgerOptions, LedgerStats, WalLedger};

use crate::config::BusConfig;
use crate::engine::BusStats;
use crate::envelope::Envelope;

/// The non-volatile store a driver performs ledger actions against.
/// See the module docs.
pub enum NvStore {
    /// In-memory stand-in for the paper's non-volatile store (the
    /// default, when [`BusConfig::durable_dir`] is unset).
    Mem(BTreeMap<String, Vec<u8>>),
    /// The write-ahead ledger under [`BusConfig::durable_dir`].
    Durable(WalLedger),
}

/// The ledger's directory under a durable root. Earlier builds split the
/// ledger into one `shard-<n>` directory per engine shard; keeping the
/// name of the first means a ledger such a build wrote at its default
/// of one shard still recovers.
const LEDGER_DIR: &str = "shard-0";

impl NvStore {
    /// Opens the store `cfg` asks for: in-memory when
    /// [`BusConfig::durable_dir`] is unset, otherwise the recovered
    /// [`WalLedger`] at `<durable_dir>/shard-0`.
    ///
    /// # Errors
    ///
    /// Propagates ledger I/O failures (corrupt content is recovered,
    /// not an error), and refuses a durable root holding a non-empty
    /// `shard-<n>` directory for `n ≥ 1`: a ledger slice written by an
    /// earlier multi-shard build, whose guaranteed entries would
    /// otherwise be silently dropped.
    pub fn open(cfg: &BusConfig) -> io::Result<NvStore> {
        let Some(root) = &cfg.durable_dir else {
            return Ok(NvStore::Mem(BTreeMap::new()));
        };
        refuse_orphaned_slices(root)?;
        let opts = LedgerOptions::default()
            .with_segment_bytes(cfg.segment_bytes)
            .with_fsync(cfg.fsync)
            .with_mem_bytes(cfg.durable_mem_bytes);
        Ok(NvStore::Durable(WalLedger::open(
            root.join(LEDGER_DIR),
            opts,
        )?))
    }

    /// Whether this store writes to disk.
    pub fn is_durable(&self) -> bool {
        matches!(self, NvStore::Durable(_))
    }

    /// Records `key → bytes` (the `Persist` action). `_shard` is always
    /// 0: there is one ledger.
    ///
    /// # Panics
    ///
    /// Panics on ledger I/O failure — see the module docs on fail-stop.
    pub fn persist(&mut self, _shard: usize, key: &str, bytes: &[u8]) {
        match self {
            NvStore::Mem(map) => {
                map.insert(key.to_owned(), bytes.to_vec());
            }
            NvStore::Durable(ledger) => ledger
                .append(key, bytes)
                .expect("guaranteed-delivery ledger append failed"),
        }
    }

    /// Releases `key` (the `Unpersist` action). `_shard` is always 0, as
    /// for [`NvStore::persist`].
    ///
    /// # Panics
    ///
    /// Panics on ledger I/O failure — see the module docs on fail-stop.
    pub fn unpersist(&mut self, _shard: usize, key: &str) {
        match self {
            NvStore::Mem(map) => {
                map.remove(key);
            }
            NvStore::Durable(ledger) => {
                ledger
                    .remove(key)
                    .expect("guaranteed-delivery ledger tombstone failed");
            }
        }
    }

    /// Decodes every stored entry back into an envelope — the restart
    /// replay input for [`Engine::gd_load`](crate::engine::Engine::gd_load).
    /// Entries whose payload no longer decodes (version skew across a
    /// restart) are skipped rather than fatal.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading spilled ledger entries.
    pub fn recovered_envelopes(&self, table: &SubjectTable) -> io::Result<Vec<Envelope>> {
        let mut envs = Vec::new();
        match self {
            NvStore::Mem(map) => {
                for bytes in map.values() {
                    if let Ok(env) = Envelope::decode(&mut bytes.as_slice(), table) {
                        envs.push(env);
                    }
                }
            }
            NvStore::Durable(ledger) => {
                for (_, bytes) in ledger.entries()? {
                    if let Ok(env) = Envelope::decode(&mut bytes.as_slice(), table) {
                        envs.push(env);
                    }
                }
            }
        }
        Ok(envs)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        match self {
            NvStore::Mem(map) => map.len(),
            NvStore::Durable(ledger) => ledger.len(),
        }
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ledger counters (all zero for the in-memory store).
    pub fn ledger_stats(&self) -> LedgerStats {
        match self {
            NvStore::Mem(_) => LedgerStats::default(),
            NvStore::Durable(ledger) => ledger.stats(),
        }
    }

    /// Stamps the `gd_ledger_*` counters of a stats snapshot from this
    /// store (drivers call this when assembling their snapshot).
    pub fn stamp_stats(&self, stats: &mut BusStats) {
        let ls = self.ledger_stats();
        stats.gd_ledger_appends = ls.appends;
        stats.gd_ledger_bytes = ls.bytes;
        stats.gd_ledger_segments = ls.segments;
        stats.gd_ledger_compactions = ls.compactions;
        stats.gd_ledger_recovered = ls.recovered;
        stats.gd_ledger_truncations = ls.truncations;
    }
}

/// Fails if `root` holds a non-empty `shard-<n>` directory with `n ≥ 1`.
/// Only [`LEDGER_DIR`] is replayed, so opening over such a slice would
/// drop its guaranteed entries without a word.
fn refuse_orphaned_slices(root: &Path) -> io::Result<()> {
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let slice = path
            .file_name()
            .and_then(|n| n.to_str()?.strip_prefix("shard-")?.parse::<u64>().ok());
        if slice.is_some_and(|n| n >= 1)
            && path.is_dir()
            && std::fs::read_dir(&path)?.next().is_some()
        {
            return Err(io::Error::other(format!(
                "{} holds a guaranteed-delivery ledger slice of an earlier \
                 multi-shard build, which this build does not replay; \
                 drain or remove it before opening {}",
                path.display(),
                root.display()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::Bytes;
    use crate::engine::{Engine, Event};
    use crate::{QoS, StreamKey};
    use infobus_wal::scratch::ScratchDir;

    fn env(subject: &str, seq: u64) -> Envelope {
        Envelope {
            stream: StreamKey {
                app: "t".into(),
                host: 1,
                inc: 1,
            },
            subject: SubjectTable::new().intern(subject).unwrap(),
            seq,
            qos: QoS::Guaranteed,
            kind: crate::EnvelopeKind::Data,
            corr: 0,
            stream_start: 0,
            redelivery: false,
            route: None,
            payload: Bytes::from_vec(vec![1, 2, 3]),
        }
    }

    #[test]
    fn mem_store_round_trips_envelopes() {
        let mut nv = NvStore::open(&BusConfig::default()).unwrap();
        assert!(!nv.is_durable());
        let mut bytes = Vec::new();
        env("a.b", 1).encode(&mut bytes);
        nv.persist(0, "gd/t/a.b/1", &bytes);
        assert_eq!(nv.len(), 1);
        let envs = nv.recovered_envelopes(&SubjectTable::new()).unwrap();
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0].subject, "a.b");
        nv.unpersist(0, "gd/t/a.b/1");
        assert!(nv.is_empty());
    }

    /// A ledger an earlier build wrote at its default of one shard lives
    /// in `<dir>/shard-0`, which is where the store still looks.
    #[test]
    fn durable_store_recovers_a_shard_0_ledger() {
        let dir = ScratchDir::new("nv-shard0");
        {
            let mut ledger =
                WalLedger::open(dir.path().join("shard-0"), LedgerOptions::default()).unwrap();
            let mut bytes = Vec::new();
            env("a.x", 1).encode(&mut bytes);
            ledger.append("gd/t/a.x/1", &bytes).unwrap();
        }
        let nv = NvStore::open(&BusConfig::default().with_durable_dir(dir.path())).unwrap();
        let envs = nv.recovered_envelopes(&SubjectTable::new()).unwrap();
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0].subject, "a.x");
    }

    /// A non-empty `shard-<n>` slice for `n ≥ 1` would be dropped without
    /// a word, so opening refuses and names it; an empty one is harmless.
    #[test]
    fn durable_store_refuses_an_orphaned_shard_slice() {
        let dir = ScratchDir::new("nv-orphan");
        let cfg = BusConfig::default().with_durable_dir(dir.path());
        let slice = dir.path().join("shard-3");
        std::fs::create_dir_all(&slice).unwrap();
        assert!(NvStore::open(&cfg).is_ok(), "an empty slice loses nothing");
        std::fs::write(slice.join("seg-0000000000000000.wal"), b"entries").unwrap();
        let err = NvStore::open(&cfg)
            .err()
            .expect("orphaned slice must refuse");
        assert!(
            err.to_string().contains(&slice.display().to_string()),
            "error must name the slice: {err}"
        );
    }

    /// The full restart loop: a publisher engine persists guaranteed
    /// envelopes through a durable store, "dies", and a fresh engine
    /// reloads the store's envelopes as pending redeliveries.
    #[test]
    fn engine_restart_replays_durable_ledger() {
        let dir = ScratchDir::new("nv-engine");
        let cfg = BusConfig::default().with_durable_dir(dir.path());
        let mut nv = NvStore::open(&cfg).unwrap();
        {
            let mut eng = Engine::new(cfg.clone(), 7);
            let source = crate::engine::PubSource {
                app: "t".into(),
                inc: 1,
                route: None,
            };
            let subject = eng.table().intern("g.x").unwrap();
            let (env, actions) = eng.publish(
                0,
                &source,
                &subject,
                QoS::Guaranteed,
                crate::EnvelopeKind::Data,
                0,
                Bytes::from_vec(vec![9]),
            );
            let mut found_persist = false;
            for a in actions.into_iter().chain(eng.enqueue(&env)) {
                if let crate::engine::Action::Persist { key, bytes } = a {
                    nv.persist(0, &key, &bytes);
                    found_persist = true;
                }
            }
            assert!(found_persist, "guaranteed publish must persist");
        }
        drop(nv);
        let nv = NvStore::open(&cfg).unwrap();
        let mut eng = Engine::new(cfg, 7);
        let envs = nv.recovered_envelopes(eng.table()).unwrap();
        assert_eq!(envs.len(), 1);
        eng.gd_load(envs);
        assert_eq!(eng.stats.gd_pending, 1);
        assert_eq!(eng.gd_subjects(), vec!["g.x".to_string()]);
        // The reloaded entry retries as a redelivery.
        let mut interest = std::collections::HashMap::new();
        interest.insert("g.x".to_string(), vec![2u32]);
        let actions = eng.handle(1_000_000, Event::GdRetry { interest });
        let resent = actions.iter().any(|a| {
            matches!(a, crate::engine::Action::Broadcast(crate::msg::Packet::Data { envelopes, .. })
                if envelopes.iter().any(|e| e.redelivery))
        });
        assert!(resent, "reloaded entry must retransmit flagged");
    }
}
