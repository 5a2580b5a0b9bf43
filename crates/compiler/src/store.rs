//! Persistent content-addressed evaluation store.
//!
//! The bottom tier of the driver's cache hierarchy (see [`crate::driver`]):
//! a directory of small JSON files, one per evaluated configuration,
//! keyed by a 128-bit FNV-1a hash over the *serialized content* of
//! everything the evaluation depends on — the IR module, both cost
//! models, the [`CompilerConfig`](crate::CompilerConfig), and
//! [`STORE_FORMAT_VERSION`]. Because the key commits to the inputs rather
//! than to names or paths, a store can never serve a stale result: any
//! change to the module, the cost models, or the on-disk format lands on
//! a different key and reads as a cold miss. Infeasible configurations
//! are persisted too (as explicit `null` evaluations), so a warm process
//! does not re-discover known-bad genomes.
//!
//! An evaluation entry holds only what the search scores on: the
//! configuration's [`ModuleMetrics`]. The compiled program is not
//! stored. A search needs programs only for the few variants it
//! returns, and the driver rebuilds those on demand
//! ([`EvalCache::program`](crate::EvalCache::program)); storing them
//! made every entry a ~92 KB program whose parse cost more than
//! compiling the configuration again, while a metrics entry is about
//! half a kilobyte.
//!
//! Every entry (evaluation or leakage score) also records its own key
//! and an FNV-1a-128 checksum of its payload, and [`DiskStore::load`]
//! rejects any mismatch. So a truncated, bit-flipped, misplaced or
//! old-layout entry reads as a miss, never as a wrong hit.
//!
//! All disk traffic is best-effort: unreadable, corrupt, or missing
//! entries behave as misses, and failed writes are dropped silently. The
//! store is therefore safe to share between concurrent processes —
//! writers land entries atomically (temp file + rename), and the worst
//! outcome of a race is a redundant compile.

use crate::driver::ModuleMetrics;
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamp mixed into every store key. Bump when the serialized
/// entry layout (or the meaning of any hashed input) changes: old
/// entries then simply stop matching instead of deserializing wrongly.
///
/// Version history: 1 — evaluation entries only; 2 — the secure search
/// added leakage-score entries ([`DiskStore::store_score`]) and stored
/// evals can now originate from ladderised IR, so every key moved;
/// 3 — codegen gained copy coalescing and value-graph loop bounds, and
/// the genome grew `gvn`/`load_fwd` genes, so cached metrics for equal
/// keys would no longer match what the compiler now produces;
/// 4 — evaluation entries hold metrics only (no compiled program), and
/// every entry records its own key and a payload checksum.
pub const STORE_FORMAT_VERSION: u32 = 4;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Fold `bytes` into a running FNV-1a-128 hash. Seed the first call
/// with [`fnv_offset`]; chain later calls from the previous result so
/// compound keys (model prefix, then per-config suffix) need not
/// re-serialize their shared prefix.
pub(crate) fn fnv1a128(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a-128 offset basis (the seed for a fresh hash chain).
pub(crate) fn fnv_offset() -> u128 {
    FNV_OFFSET
}

/// Hash a serializable value into a running FNV-1a-128 chain via its
/// compact JSON rendering. The vendored serde serializes hash maps in
/// canonical key order and floats in shortest round-trip form, so equal
/// values hash equally across processes.
pub(crate) fn hash_json<T: Serialize>(hash: u128, value: &T) -> u128 {
    let text = serde_json::to_string(value).expect("serializable value");
    fnv1a128(hash, text.as_bytes())
}

/// Render a key or checksum as the fixed-width hex an entry records.
fn hex(value: u128) -> String {
    format!("{value:032x}")
}

/// FNV-1a-128 checksum of an entry payload's compact JSON rendering.
fn checksum(payload: &Value) -> Value {
    Value::Str(hex(hash_json(fnv_offset(), payload)))
}

/// Distinguishes temp files (in-flight writes) from committed entries.
const ENTRY_EXT: &str = "json";

/// Monotonic suffix keeping concurrent in-process writers' temp files
/// distinct (the process id distinguishes concurrent processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A content-addressed directory of evaluation results shared across
/// processes. See the module docs for keying and corruption semantics.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `path`.
    ///
    /// # Errors
    /// Propagates the I/O error when the directory cannot be created.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<DiskStore> {
        let root = path.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(DiskStore { root })
    }

    /// The store's root directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Number of committed entries (a diagnostic, not a fast path).
    pub fn entries(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(ENTRY_EXT))
                    .count()
            })
            .unwrap_or(0)
    }

    fn entry_path(&self, key: u128) -> PathBuf {
        self.root.join(format!("{}.{ENTRY_EXT}", hex(key)))
    }

    /// Load the evaluation entry for `key`. Outer `None` means absent
    /// (or unreadable/corrupt — both behave as a cold miss); inner
    /// `None` is a *recorded* infeasible configuration.
    pub fn load(&self, key: u128) -> Option<Option<ModuleMetrics>> {
        self.read(key)
    }

    /// Persist the evaluation entry for `key` (best effort: write
    /// failures are dropped, leaving the slot cold). The temp-file +
    /// rename dance keeps concurrent readers from ever observing a
    /// half-written entry.
    pub fn store(&self, key: u128, eval: Option<&ModuleMetrics>) {
        self.write(key, eval);
    }

    /// Load the leakage-score entry for `key`. Outer `None` means
    /// absent/corrupt (a cold miss); inner `None` is a *recorded*
    /// measurement failure.
    pub fn load_score(&self, key: u128) -> Option<Option<f64>> {
        self.read(key)
    }

    /// Persist a leakage score under `key` (best effort, atomic — same
    /// semantics as [`DiskStore::store`]). Score keys must chain in a
    /// discriminator distinct from evaluation keys so the two entry
    /// kinds can never collide on one slot.
    pub fn store_score(&self, key: u128, score: Option<f64>) {
        self.write(key, score.as_ref());
    }

    /// Read and verify the entry for `key`. A committed entry is a JSON
    /// map of the key it was stored under, the [`checksum`] of its
    /// payload, and the payload (`null` records a known failure — an
    /// infeasible configuration or a trapped measurement rig — so a warm
    /// process skips the failing work too). Serving it requires both
    /// records to match: the key guards against a file copied or renamed
    /// onto another slot, the checksum against truncation and flipped
    /// digits that would still parse. Anything else reads as a miss.
    fn read<T: Deserialize>(&self, key: u128) -> Option<Option<T>> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let entry: Value = serde_json::from_str(&text).ok()?;
        let field = |name| serde::field(entry.as_map()?, name).ok();
        let payload = field("payload")?;
        let intact =
            *field("key")? == Value::Str(hex(key)) && *field("checksum")? == checksum(payload);
        intact
            .then(|| Option::<T>::from_value(payload).ok())
            .flatten()
    }

    fn write<T: Serialize>(&self, key: u128, payload: Option<&T>) {
        let payload = payload.to_value();
        let entry = Value::Map(vec![
            ("key".into(), Value::Str(hex(key))),
            ("checksum".into(), checksum(&payload)),
            ("payload".into(), payload),
        ]);
        if let Ok(text) = serde_json::to_string(&entry) {
            self.commit(key, text);
        }
    }

    fn commit(&self, key: u128, text: String) {
        let tmp = self.root.join(format!(
            "{}.tmp.{}.{}",
            hex(key),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // A write that fails partway leaves a partial temp file behind
        // just like a failed rename does: remove it in both cases.
        if fs::write(&tmp, text)
            .and_then(|()| fs::rename(&tmp, self.entry_path(key)))
            .is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::VariantMetrics;

    fn temp_store(tag: &str) -> DiskStore {
        let dir =
            std::env::temp_dir().join(format!("teamplay-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskStore::open(&dir).expect("create store dir")
    }

    fn metrics() -> ModuleMetrics {
        ModuleMetrics::new(vec![
            (
                "compress".into(),
                VariantMetrics {
                    wcet_cycles: 48213,
                    wcec_pj: 3071.625,
                    code_halfwords: 412,
                },
            ),
            (
                "dct".into(),
                VariantMetrics {
                    wcet_cycles: 977,
                    wcec_pj: 61.5,
                    code_halfwords: 88,
                },
            ),
        ])
    }

    #[test]
    fn fnv_chain_matches_one_shot() {
        let one = fnv1a128(fnv_offset(), b"hello world");
        let chained = fnv1a128(fnv1a128(fnv_offset(), b"hello "), b"world");
        assert_eq!(one, chained);
        assert_ne!(one, fnv1a128(fnv_offset(), b"hello worlc"));
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let store = temp_store("corrupt");
        assert!(store.load(42).is_none());
        fs::write(store.entry_path(42), "{not json").expect("write corrupt entry");
        assert!(store.load(42).is_none());
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn metrics_round_trip_and_entries_stay_small() {
        let store = temp_store("metrics");
        store.store(5, Some(&metrics()));
        assert_eq!(store.load(5), Some(Some(metrics())));
        let bytes = fs::metadata(store.entry_path(5)).expect("entry").len();
        assert!(bytes < 512, "a metrics entry is {bytes} bytes");
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn scores_round_trip_including_recorded_failures() {
        let store = temp_store("scores");
        assert!(store.load_score(11).is_none());
        store.store_score(11, Some(4.25));
        assert_eq!(store.load_score(11), Some(Some(4.25)));
        store.store_score(12, None);
        assert_eq!(store.load_score(12), Some(None));
        assert_eq!(store.entries(), 2);
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn infeasible_entries_round_trip() {
        let store = temp_store("infeasible");
        store.store(7, None);
        assert_eq!(store.entries(), 1);
        // Outer Some: the entry exists; inner None: recorded failure.
        assert_eq!(store.load(7), Some(None));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn truncated_entries_are_misses() {
        let store = temp_store("truncated");
        store.store(3, Some(&metrics()));
        let text = fs::read_to_string(store.entry_path(3)).expect("entry");
        for cut in [1, text.len() / 2, text.len() - 1] {
            fs::write(store.entry_path(3), &text[..cut]).expect("truncate");
            assert!(store.load(3).is_none(), "entry cut at {cut} was served");
        }
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn flipped_digits_are_misses() {
        // Every digit of the entry flipped in turn: each variant still
        // parses wherever the digit sits in a number, so only the key
        // and checksum records can turn it into a miss.
        let store = temp_store("flipped");
        store.store(9, Some(&metrics()));
        store.store_score(10, Some(2.5));
        for key in [9, 10] {
            let text = fs::read_to_string(store.entry_path(key)).expect("entry");
            let mut flipped = 0;
            for (i, c) in text.char_indices().filter(|(_, c)| c.is_ascii_digit()) {
                let other = if c == '7' { '3' } else { '7' };
                let mut bad = text.clone();
                bad.replace_range(i..=i, &other.to_string());
                fs::write(store.entry_path(key), &bad).expect("flip");
                assert!(
                    store.load(key).is_none(),
                    "eval entry with digit {i} flipped served"
                );
                assert!(
                    store.load_score(key).is_none(),
                    "score entry with digit {i} flipped served"
                );
                flipped += 1;
            }
            assert!(flipped > 10, "only {flipped} digits in {text}");
        }
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn entries_copied_to_another_key_are_misses() {
        let store = temp_store("copied");
        store.store(21, Some(&metrics()));
        store.store_score(22, Some(1.0));
        fs::copy(store.entry_path(21), store.entry_path(23)).expect("copy eval");
        fs::copy(store.entry_path(22), store.entry_path(24)).expect("copy score");
        assert!(store.load(23).is_none());
        assert!(store.load_score(24).is_none());
        // The originals still serve.
        assert_eq!(store.load(21), Some(Some(metrics())));
        assert_eq!(store.load_score(22), Some(Some(1.0)));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn version_3_layout_entries_are_misses() {
        // The version-3 layout: `{"eval": [program, metrics]}` (or
        // `null`), with neither key nor checksum.
        let store = temp_store("v3");
        let metrics_json = serde_json::to_string(&metrics()).expect("serializes");
        for (key, text) in [
            (
                31,
                format!(r#"{{"eval":[{{"functions":[]}},{metrics_json}]}}"#),
            ),
            (32, r#"{"eval":null}"#.to_string()),
            (33, r#"{"score":1.5}"#.to_string()),
        ] {
            fs::write(store.entry_path(key), text).expect("write v3 entry");
            assert!(
                store.load(key).is_none(),
                "v3 entry {key} served as an eval"
            );
            assert!(
                store.load_score(key).is_none(),
                "v3 entry {key} served as a score"
            );
        }
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn commit_leaves_no_temp_file_behind() {
        let store = temp_store("tmp");
        store.store(41, Some(&metrics()));
        // A rename onto a directory fails: the temp file must go too.
        fs::create_dir_all(store.entry_path(42)).expect("blocking dir");
        store.store(42, Some(&metrics()));
        let names: Vec<String> = fs::read_dir(store.path())
            .expect("list")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.contains(".tmp.")),
            "temp files left: {names:?}"
        );
        let _ = fs::remove_dir_all(store.path());
    }
}
